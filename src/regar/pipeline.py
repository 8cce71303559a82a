"""Frame-parallel reconstruction of a whole channel.

Checks the channel's consistency box up front, builds each frame's box from
the frame's own samples, solves every degraded frame (in parallel when
requested) and adds each estimate into the windowed overlap-add as it lands.
Frames whose exact solution is the observation (nothing degraded in them)
pass through and never reach the pool.  Consecutive degraded frames are
solved in lockstep stacks of at most ``FRAMES_PER_STACK``; a stack closes
early at the next passthrough frame.  A task is one ``acs_run`` call on its
stack's box and the solver config, the stacks do not depend on the worker
count, and every row of a stack has the bits of its frame solved alone, so
the result does not depend on the worker count.  The same frame-report
builder scores reconstructions here and estimates in ``regar evaluate``.
"""

import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby, islice, repeat

import numpy as np

from .framing import frame_layout, overlap_add, segment, sine_window
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      sdr_scores)
from .prox import ConsistencySpec, _checked_param
from .solver import SolverConfig, _set_one_blas_thread, acs_run

__all__ = ["DegradationModel", "frame_record", "reconstruct_channel"]

# degraded frames solved together by one acs_run call (one pool task)
FRAMES_PER_STACK = 4
# frames in flight per pool worker: enough to keep every worker busy, few
# enough that only a handful of frame specs are alive at once
FRAMES_PER_WORKER = 8
# the consistency box of each degradation kind, and the field holding its parameter
_BOXES = {"clip": ("declip", "theta"), "quant": ("dequant", "delta"),
          "drop": ("inpaint", "reliable")}


@dataclass(frozen=True)
class DegradationModel:
    """How a channel was degraded: its consistency box without the
    observation, whose parameter (theta, delta or the channel's reliable
    mask) ``_BOXES`` names by kind."""

    kind: str
    theta: float | None = None
    delta: float | None = None
    reliable: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _BOXES:
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        variant, name = _BOXES[self.kind]
        object.__setattr__(self, name, _checked_param(variant, getattr(self, name)))

    def spec_for(self, y: np.ndarray, reliable=None) -> ConsistencySpec:
        """Consistency spec of the samples ``y``; ``reliable`` is a drop
        model's mask over them (by default the whole channel's)."""
        variant, name = _BOXES[self.kind]
        return ConsistencySpec(variant, y,
                               getattr(self, name) if reliable is None else reliable)

    def frame_specs(self, y, layout) -> Iterator[ConsistencySpec]:
        """Consistency spec of every frame of channel ``y``, one at a time,
        built from its frame of ``segment(y, layout)``; a drop model counts
        the end padding as reliable."""
        frames = segment(y, layout)
        if self.kind != "drop":
            return map(self.spec_for, frames)
        return map(self.spec_for, frames,
                   (~gap for gap in segment(~self.reliable, layout)))


def _stacks(specs, untouched) -> Iterator[tuple]:
    """(frames, solve) in frame order: a frame ``untouched`` says to pass
    through alone, the others in runs of up to FRAMES_PER_STACK."""
    for skip, run in groupby(specs, key=untouched):
        size = 1 if skip else FRAMES_PER_STACK
        while stack := list(islice(run, size)):
            yield stack, not skip


def _frame_estimates(specs, cfg: SolverConfig | None,
                     workers: int) -> Iterator[tuple]:
    """(spec, estimate, trace) of every frame, in frame order.

    A frame whose observation is its exact solution (all samples pinned, and
    the strategy keeps pinned samples), or any frame when ``cfg`` is None, is
    its own estimate, with an empty trace; the others are solved in stacks
    by ``acs_run``.  A task is called when its frames are taken: a pool
    future's result when ``workers`` > 1, or else the solve itself.
    """
    def untouched(spec):
        return cfg is None or (cfg.keeps_pinned and bool(spec.pinned.all()))

    def rows(stack, solved):
        """Each frame with its row of the ``acs_run`` result ``solved``, or
        with itself and an empty trace if ``solved`` is None."""
        _, x, traces = solved or (None, [spec.y for spec in stack], repeat(()))
        return zip(stack, x, traces)

    # a worker of a banded signal step runs scipy's BLAS on one thread from
    # its start, and the calling process keeps its own; a worker of the
    # signal DR never loads scipy.linalg
    pool = (ProcessPoolExecutor(
                max_workers=workers,
                initializer=None if cfg.signal_step == "dr" else _set_one_blas_thread)
            if workers > 1 and cfg is not None else None)
    submit = partial if pool is None else lambda *call: pool.submit(*call).result
    with nullcontext() if pool is None else pool:
        pending = deque()  # (frames, task or None), in frame order
        in_flight = 0  # frames in pending
        for run in chain(_stacks(specs, untouched), [None]):
            if run is not None:
                stack, solve = run
                pending.append((stack, submit(
                    acs_run, ConsistencySpec.stack(stack), cfg) if solve else None))
                in_flight += len(stack)
            while pending and (run is None or pending[0][1] is None
                               or in_flight >= FRAMES_PER_WORKER * workers):
                stack, task = pending.popleft()
                in_flight -= len(stack)
                yield from rows(stack, task and task())


def frame_record(k: int, estimate, observed=None, spec=None, reference=None,
                 trace=()) -> FrameRecord:
    """Report row of frame k: the estimate's SDR against the reference, its
    gain over the observed frame and its distance from the consistency set
    ``spec``, each None when its inputs are.  The solver columns come from
    the frame's ``trace`` (its ``AcsStep`` list, empty for a frame the
    solver never saw): the outer iterations run, the last objective (None
    without one), the inner iterations and the wall time in ms, both summed
    over the steps."""
    score, gain = sdr_scores(reference, estimate, observed)
    return FrameRecord(
        k, score, gain,
        None if spec is None else consistency_distance(estimate, spec),
        len(trace), trace[-1].objective if trace else None,
        sum(step.inner_iters for step in trace),
        1000.0 * sum(step.wall_time for step in trace))


def reconstruct_channel(y, model: DegradationModel, cfg: SolverConfig | None,
                        frame_length: int, hop: int, *, workers: int = 1,
                        reference=None):
    """Reconstruct one channel frame by frame.

    ``cfg = None`` skips the solver entirely (frames pass through overlap-add
    unmodified); ``workers`` (at least 1) processes solve the others.  A model
    whose box the strategy does not take, or a ``cfg.order`` not below the
    frame length, fails before any frame is solved.
    Returns the reconstructed channel and a ReconstructionReport; SDR fields
    are filled when a reference is given.
    """
    y = np.asarray(y, dtype=float)
    t_begin = time.perf_counter()
    if workers < 1:
        raise ValueError("worker count must be positive")
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.size != y.size:
            raise ValueError("reference length does not match the observation")
    layout = frame_layout(y.size, frame_length, hop)
    box = model.spec_for(y)
    if cfg is not None:
        cfg.check_box(box.variant)
        if cfg.order >= frame_length:
            raise ValueError(f"model order {cfg.order} must be below the frame "
                             f"length {frame_length}")
    records = []

    def scored(outputs, references):
        for k, ((spec, x, trace), ref) in enumerate(zip(outputs, references)):
            records.append(frame_record(k, x, spec.y, spec, ref, trace))
            yield x

    x_hat = overlap_add(
        scored(_frame_estimates(model.frame_specs(y, layout), cfg, workers),
               repeat(None) if reference is None
               else segment(reference, layout)),
        layout, sine_window(frame_length))
    score, gain = sdr_scores(reference, x_hat, y)
    report = ReconstructionReport(
        sdr_db=score,
        delta_sdr_db=gain,
        consistency_sq=consistency_distance(x_hat, box),
        per_frame=records,
        timing_s=time.perf_counter() - t_begin,
    )
    return x_hat, report
