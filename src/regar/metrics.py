"""Reconstruction quality and feasibility metrics."""

import math
from dataclasses import dataclass, field

import numpy as np

from .prox import ConsistencySpec, project_consistency

__all__ = [
    "sdr",
    "sdr_scores",
    "consistency_distance",
    "FrameRecord",
    "ReconstructionReport",
]


def sdr(reference, estimate) -> float:
    """Signal-to-distortion ratio 10 log10(||y||^2 / ||y - x||^2) in dB.

    A zero-error estimate returns +inf.
    """
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError("lengths differ")
    energy = float(reference @ reference)
    if energy == 0.0:
        raise ValueError("reference is all-zero")
    err = reference - estimate
    err_energy = float(err @ err)
    if err_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(energy / err_energy)


def sdr_scores(reference, estimate, degraded=None):
    """Report scores of a frame or a whole signal: (SDR, SDR improvement).

    Multichannel arrays score as one flattened signal.  Without a reference,
    or with a silent one, there is no SDR and the scores are (None, None);
    without a ``degraded`` signal, or when the estimate and the degraded
    signal both equal the reference (inf - inf), the improvement is None.
    """
    if reference is None:
        return None, None
    reference = np.asarray(reference, dtype=float).reshape(-1)
    if not float(reference @ reference) > 0:
        return None, None
    score = sdr(reference, np.reshape(estimate, -1))
    if degraded is None:
        return score, None
    gain = score - sdr(reference, np.reshape(degraded, -1))
    return score, None if math.isnan(gain) else gain


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
    consistency_sq: float | None
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
