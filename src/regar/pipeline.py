"""Frame-parallel reconstruction of a whole channel.

Splits the observed channel into overlapping frames, derives a frame-local
consistency spec for each, runs the solver on every degraded frame (in
parallel when requested) and synthesizes the result by windowed overlap-add.
Frames whose exact solution is the observation itself (nothing degraded in
them) are passed through untouched.  A task carries only its frame's spec
and the solver config, and all per-frame work is a pure function of them,
so the result does not depend on the worker count.  The same frame-report
builder scores reconstructions here and estimates in ``regar evaluate``.
"""

import math
import os
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .framing import frame_layout, overlap_add, segment, sine_window
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      sdr_scores)
from .prox import ConsistencySpec
from .solver import SolverConfig, acs_run

__all__ = ["DegradationModel", "frame_records", "frame_specs",
           "reconstruct_channel", "resolve_workers"]

# slack for observations that passed through a float32 file
MASK_TOL_FACTOR = 1e-6
# tasks in flight per pool worker: enough to cover runs of passthrough
# frames, few enough that only a handful of frame specs are alive at once
TASKS_PER_WORKER = 8


@dataclass(frozen=True)
class DegradationModel:
    """How a channel was degraded: the information needed to rebuild frame specs.

    kind "clip" needs theta, "quant" needs delta, "drop" needs the reliable
    mask over the whole channel.
    """

    kind: str
    theta: float | None = None
    delta: float | None = None
    reliable: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("clip", "quant", "drop"):
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        if self.kind == "clip" and not (self.theta and self.theta > 0):
            raise ValueError("clip model needs a positive theta")
        if self.kind == "quant" and not (self.delta and self.delta > 0):
            raise ValueError("quant model needs a positive delta")
        if self.kind == "drop":
            if self.reliable is None:
                raise ValueError("drop model needs the reliable mask")
            object.__setattr__(self, "reliable",
                               np.asarray(self.reliable, dtype=bool))

    def spec_for(self, y: np.ndarray, reliable=None) -> ConsistencySpec:
        """Consistency spec for an observed segment (or the whole channel)."""
        if self.kind == "clip":
            return ConsistencySpec.declip(y, self.theta,
                                          tol=MASK_TOL_FACTOR * self.theta)
        if self.kind == "quant":
            return ConsistencySpec.dequant(y, self.delta)
        rel = self.reliable if reliable is None else reliable
        if len(rel) != len(y):
            raise ValueError("reliable mask length does not match the segment")
        return ConsistencySpec.inpaint(y, rel)


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: explicit argument, then REGAR_THREADS, then the CPU count."""
    if requested is not None:
        if requested < 1:
            raise ValueError("worker count must be positive")
        return requested
    env = os.environ.get("REGAR_THREADS")
    if env:
        value = int(env)
        if value < 1:
            raise ValueError("REGAR_THREADS must be positive")
        return value
    return os.cpu_count() or 1


def _untouched_is_exact(spec: ConsistencySpec, cfg: SolverConfig) -> bool:
    """True when the observation is already the exact solution for this frame:
    every sample is pinned, and the strategy fixes the pinned samples."""
    return ((cfg.strategy in ("inpaint", "glp") or math.isinf(cfg.lambda_s))
            and bool(spec.pinned.all()))


def _solve_frame(spec: ConsistencySpec, cfg: SolverConfig | None):
    """Solver output of one frame, its (outer_iter, objective, inner_iters,
    wall_ms) statistics and its consistency distance; ``cfg = None`` passes
    every frame through."""
    t0 = time.perf_counter()
    if cfg is None or _untouched_is_exact(spec, cfg):
        x, stats = spec.y, (0, None, 0)
    else:
        _, x, trace = acs_run(spec.y, spec, cfg)
        stats = (len(trace), trace.entries[-1].objective if trace.entries else None,
                 int(sum(e.inner_iters for e in trace.entries)))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return x, (*stats, wall_ms), consistency_distance(x, spec)


def frame_specs(model: DegradationModel, frames,
                layout) -> Iterator[ConsistencySpec]:
    """Consistency spec of every observed frame of one channel, one at a time.

    The zero padding of a drop model's mask counts as reliable: the padded
    samples are known zeros.
    """
    if model.kind != "drop":
        return (model.spec_for(frame) for frame in frames)
    missing = segment(~model.reliable, layout)
    return (model.spec_for(frame, reliable=gap == 0.0)
            for frame, gap in zip(frames, missing))


def frame_records(estimates, observed=None, consistency=None, references=None,
                  stats=None) -> list[FrameRecord]:
    """Report rows of one channel's frames, in frame order.

    Each estimate frame scores its SDR against its reference frame and its
    improvement over its observed frame; ``consistency`` holds each frame's
    distance from its consistency set.  A score whose inputs are missing
    (``None``) is None.  ``stats`` holds each frame's (outer_iter,
    objective, inner_iters, wall_ms); without it every frame reports as
    untouched.
    """
    records = []
    for k, x in enumerate(estimates):
        score, gain = sdr_scores(
            None if references is None else references[k], x,
            None if observed is None else observed[k])
        records.append(FrameRecord(
            k, score, gain, None if consistency is None else consistency[k],
            *((0, None, 0, 0.0) if stats is None else stats[k])))
    return records


def reconstruct_channel(y, model: DegradationModel, cfg: SolverConfig | None,
                        frame_length: int, hop: int, *, workers: int = 1,
                        reference=None):
    """Reconstruct one channel frame by frame.

    ``cfg = None`` skips the solver entirely (frames pass through overlap-add
    unmodified).  Returns the reconstructed channel and a
    ReconstructionReport; SDR fields are filled when a reference is given.
    """
    y = np.asarray(y, dtype=float)
    t_begin = time.perf_counter()
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.size != y.size:
            raise ValueError("reference length does not match the observation")
    global_spec = model.spec_for(y)
    layout = frame_layout(y.size, frame_length, hop)
    frames = segment(y, layout)
    specs = frame_specs(model, frames, layout)
    if workers > 1 and cfg is not None:
        solved, running = [], deque()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for spec in specs:
                running.append(pool.submit(_solve_frame, spec, cfg))
                if len(running) >= TASKS_PER_WORKER * workers:
                    solved.append(running.popleft().result())
            solved.extend(task.result() for task in running)
    else:
        solved = [_solve_frame(spec, cfg) for spec in specs]
    estimates, stats, consistency = zip(*solved)
    x_hat = overlap_add(estimates, layout, sine_window(frame_length))
    records = frame_records(
        estimates, frames, consistency,
        None if reference is None else segment(reference, layout), stats)
    score, gain = sdr_scores(reference, x_hat, y)
    report = ReconstructionReport(
        sdr_db=score,
        delta_sdr_db=gain,
        consistency_sq=consistency_distance(x_hat, global_spec),
        per_frame=records,
        timing_s=time.perf_counter() - t_begin,
    )
    return x_hat, report
