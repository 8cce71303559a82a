"""Frame-parallel reconstruction of a whole channel.

Splits the observed channel into overlapping frames, derives a frame-local
consistency spec for each, runs the solver on every degraded frame (in
parallel when requested) and synthesizes the result by windowed overlap-add.
Frames whose exact solution is the observation itself (nothing degraded in
them) are passed through untouched.  All per-frame work is a pure function
of the frame payload, so the result does not depend on the worker count.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .framing import frame_layout, overlap_add, segment, sine_window
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      frame_sdr, sdr)
from .prox import ConsistencySpec
from .solver import SolverConfig, acs_run

__all__ = ["DegradationModel", "reconstruct_channel", "resolve_workers"]

# slack for observations that passed through a float32 file
MASK_TOL_FACTOR = 1e-6


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
    """True when the observation is already the exact solution for this frame."""
    masks = spec.masks
    if masks is None:
        return False
    if cfg.strategy in ("inpaint", "glp"):
        return bool(masks.reliable.all())
    if cfg.strategy == "declip" and math.isinf(cfg.lambda_s):
        return bool(masks.reliable.all())
    return False


def _solve_frame(task):
    index, frame, model, reliable, cfg = task
    spec = model.spec_for(frame, reliable=reliable)
    t0 = time.perf_counter()
    if _untouched_is_exact(spec, cfg):
        wall = time.perf_counter() - t0
        return index, frame, spec, 0, 0, None, wall
    _, x, trace = acs_run(frame, spec, cfg)
    wall = time.perf_counter() - t0
    inner_total = int(sum(e.inner_iters for e in trace.entries))
    final_q = trace.entries[-1].objective if trace.entries else None
    return index, x, spec, len(trace), inner_total, final_q, wall


def _segment_mask(mask: np.ndarray, layout) -> list[np.ndarray]:
    # zero padding counts as reliable: the padded samples are known zeros
    padded = np.concatenate((
        np.ones(layout.pad_start, dtype=bool),
        mask,
        np.ones(layout.pad_end, dtype=bool),
    ))
    return [padded[layout.start(k): layout.start(k) + layout.frame_length]
            for k in range(layout.n_frames)]


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
    layout = frame_layout(y.size, frame_length, hop)
    frames = segment(y, layout)
    if model.kind == "drop":
        rel_frames = _segment_mask(model.reliable, layout)
    else:
        rel_frames = [None] * layout.n_frames
    if cfg is None:
        solved = [(k, frames[k], model.spec_for(frames[k], reliable=rel_frames[k]),
                   0, 0, None, 0.0) for k in range(layout.n_frames)]
    else:
        tasks = [(k, frames[k], model, rel_frames[k], cfg)
                 for k in range(layout.n_frames)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                solved = list(pool.map(_solve_frame, tasks))
        else:
            solved = [_solve_frame(t) for t in tasks]
    solved.sort(key=lambda item: item[0])
    out_frames = [item[1] for item in solved]
    x_hat = overlap_add(out_frames, layout, sine_window(frame_length))

    ref_frames = None
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.size != y.size:
            raise ValueError("reference length does not match the observation")
        ref_frames = segment(reference, layout)
    records = []
    for index, x_frame, spec, outer, inner_total, final_q, wall in solved:
        score, gain = None, None
        if ref_frames is not None:
            score, gain = frame_sdr(ref_frames[index], x_frame, frames[index])
        records.append(FrameRecord(
            frame_index=index,
            sdr_db=score,
            delta_sdr_db=gain,
            consistency_sq=consistency_distance(x_frame, spec),
            outer_iter=outer,
            objective=final_q,
            inner_iters=inner_total,
            wall_ms=wall * 1000.0,
        ))
    global_spec = model.spec_for(y)
    report = ReconstructionReport(
        sdr_db=sdr(reference, x_hat) if reference is not None else None,
        delta_sdr_db=(sdr(reference, x_hat) - sdr(reference, y))
        if reference is not None else None,
        consistency_sq=consistency_distance(x_hat, global_spec),
        per_frame=records,
        timing_s=time.perf_counter() - t_begin,
    )
    return x_hat, report
