"""Reconstruction quality and feasibility metrics."""

import math
from dataclasses import dataclass, field

import numpy as np

from .prox import ConsistencySpec, project_consistency

__all__ = [
    "sdr",
    "delta_sdr",
    "frame_sdr",
    "consistency_distance",
    "FrameRecord",
    "ReconstructionReport",
]


def sdr(reference, estimate, where=None) -> float:
    """Signal-to-distortion ratio 10 log10(||y||^2 / ||y - x||^2) in dB.

    ``where`` optionally restricts the computation to a boolean mask (e.g.
    the clipped samples only).  A zero-error estimate returns +inf.
    """
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError("lengths differ")
    if where is not None:
        where = np.asarray(where, dtype=bool)
        reference = reference[where]
        estimate = estimate[where]
    energy = float(reference @ reference)
    if energy == 0.0:
        raise ValueError("reference is all-zero")
    err = reference - estimate
    err_energy = float(err @ err)
    if err_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(energy / err_energy)


def delta_sdr(reference, degraded, estimate, where=None) -> float:
    """SDR improvement of the estimate over the degraded input, in dB."""
    return sdr(reference, estimate, where) - sdr(reference, degraded, where)


def frame_sdr(reference, estimate, degraded=None):
    """Report scores of one frame: (SDR, SDR improvement over ``degraded``).

    A silent reference frame has no SDR and scores (None, None); without a
    degraded frame the improvement is None.
    """
    reference = np.asarray(reference, dtype=float)
    if not float(reference @ reference) > 0:
        return None, None
    score = sdr(reference, estimate)
    if degraded is None:
        return score, None
    return score, score - sdr(reference, degraded)


def consistency_distance(estimate, spec: ConsistencySpec) -> float:
    """Half squared Euclidean distance from the consistency set."""
    estimate = np.asarray(estimate, dtype=float)
    diff = estimate - project_consistency(estimate, spec)
    return 0.5 * float(diff @ diff)


@dataclass(frozen=True)
class FrameRecord:
    """Per-frame entry of a reconstruction report."""

    frame_index: int
    sdr_db: float | None
    delta_sdr_db: float | None
    consistency_sq: float
    outer_iter: int
    objective: float | None
    inner_iters: int
    wall_ms: float


@dataclass
class ReconstructionReport:
    """Global and per-frame quality figures for one reconstruction run."""

    sdr_db: float | None
    delta_sdr_db: float | None
    consistency_sq: float | None
    per_frame: list = field(default_factory=list)
    timing_s: float = 0.0

    @property
    def mean_frame_sdr_db(self) -> float | None:
        values = [r.sdr_db for r in self.per_frame if r.sdr_db is not None]
        if not values:
            return None
        return float(np.mean(values))
