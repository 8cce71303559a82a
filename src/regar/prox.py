"""Proximal operators and consistency-set projections.

Hosts the consistency-set description shared by the solver, metrics and CLI
layers, the projections onto the three observation-consistent sets, the
penalty prox built from them, and the soft threshold used for the
coefficient regularizer.  The quadratic prox of the AR residual lives in
``fastops``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .degrade import ReliabilityMasks, derive_clip_masks

__all__ = [
    "ConsistencySpec",
    "project_consistency",
    "prox_signal_penalty",
    "soft_threshold",
]

_VARIANTS = ("declip", "dequant", "inpaint")


@dataclass(frozen=True)
class ConsistencySpec:
    """Description of the set of signals consistent with an observation.

    variant "declip":  reliable samples equal y, samples clipped high are
        >= theta, samples clipped low are <= -theta.
    variant "dequant": every sample lies within delta/2 of y (the closed box;
        the open set has no projection, and its closure shares all feasible
        limit points).
    variant "inpaint": reliable samples equal y, the rest are free.
    """

    variant: str
    y: np.ndarray
    theta: float | None = None
    delta: float | None = None
    masks: ReliabilityMasks | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1:
            raise ValueError("observation must be a 1-D signal")
        object.__setattr__(self, "y", y)
        if self.variant == "declip":
            if self.theta is None or not self.theta > 0:
                raise ValueError("declip spec needs a positive theta")
            if self.masks is None or len(self.masks) != y.size:
                raise ValueError("declip spec needs masks matching the observation")
        elif self.variant == "dequant":
            if self.delta is None or not self.delta > 0:
                raise ValueError("dequant spec needs a positive delta")
        else:
            if self.masks is None or len(self.masks) != y.size:
                raise ValueError("inpaint spec needs masks matching the observation")

    @property
    def n(self) -> int:
        return self.y.size

    @classmethod
    def declip(cls, y, theta: float, masks: ReliabilityMasks | None = None,
               tol: float = 0.0) -> "ConsistencySpec":
        y = np.asarray(y, dtype=float)
        if masks is None:
            masks = derive_clip_masks(y, theta, tol=tol)
        return cls(variant="declip", y=y, theta=theta, masks=masks)

    @classmethod
    def dequant(cls, y, delta: float) -> "ConsistencySpec":
        return cls(variant="dequant", y=np.asarray(y, dtype=float), delta=delta)

    @classmethod
    def inpaint(cls, y, reliable) -> "ConsistencySpec":
        y = np.asarray(y, dtype=float)
        masks = ReliabilityMasks.for_inpainting(reliable, n=y.size)
        return cls(variant="inpaint", y=y, masks=masks)


def project_consistency(x, spec: ConsistencySpec) -> np.ndarray:
    """Euclidean projection onto the (closed) consistency set."""
    x = np.asarray(x, dtype=float)
    if x.shape != spec.y.shape:
        raise ValueError("signal and observation lengths differ")
    if spec.variant == "dequant":
        half = spec.delta / 2.0
        return np.clip(x, spec.y - half, spec.y + half)
    out = x.copy()
    masks = spec.masks
    out[masks.reliable] = spec.y[masks.reliable]
    if spec.variant == "declip":
        out[masks.high] = np.maximum(x[masks.high], spec.theta)
        out[masks.low] = np.minimum(x[masks.low], -spec.theta)
    return out


def prox_signal_penalty(x, lambda_s: float, spec: ConsistencySpec) -> np.ndarray:
    """Prox of the scaled half-squared distance to the consistency set.

    For finite lambda_s this is the convex combination
    ``lambda_s/(lambda_s+1) * proj(x) + 1/(lambda_s+1) * x``; the limit
    lambda_s = inf is the projection itself (indicator function).
    """
    if lambda_s < 0:
        raise ValueError("lambda_s must be nonnegative")
    x = np.asarray(x, dtype=float)
    proj = project_consistency(x, spec)
    if math.isinf(lambda_s):
        return proj
    w = lambda_s / (lambda_s + 1.0)
    return w * proj + (1.0 - w) * x


def soft_threshold(v, threshold: float) -> np.ndarray:
    """Elementwise soft thresholding, the prox of threshold * ||.||_1."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
