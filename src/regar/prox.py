"""Proximal operators and consistency-set projections.

Hosts the consistency-set description shared by the solver, metrics and CLI
layers, the projection onto it, the penalty prox built from that projection,
and the soft threshold used for the coefficient regularizer.  The quadratic
prox of the AR residual lives in ``fastops``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .degrade import _as_bool_mask, _as_signal

__all__ = [
    "ConsistencySpec",
    "project_consistency",
    "prox_signal_penalty",
    "soft_threshold",
]

_VARIANTS = ("declip", "dequant", "inpaint")


@dataclass(frozen=True)
class ConsistencySpec:
    """The set of signals consistent with an observation: one interval per sample.

    Sample n of a consistent signal lies in [lower[n], upper[n]].  A pinned
    sample (lower = upper = y) is known exactly; an infinite bound leaves
    that side free.  The arrays are one frame, or a stack of frames of one
    length (one per row, see ``stack``).  The constructors build the box of
    one frame for each variant:

    "declip":  reliable samples pinned, samples clipped high bounded below by
        theta, samples clipped low bounded above by -theta.
    "dequant": every sample within delta/2 of y (the closed box; the open set
        has no projection, and its closure shares all feasible limit points).
    "inpaint": reliable samples pinned, the rest free.
    """

    variant: str
    y: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        y = np.asarray(self.y, dtype=float)
        if y.ndim not in (1, 2):
            raise ValueError("observation must be a 1-D signal or a stack of them")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != y.shape or upper.shape != y.shape:
            raise ValueError("bounds must match the observation")
        if np.any(lower > upper):
            raise ValueError("consistency set is empty")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def pinned(self) -> np.ndarray:
        """Samples the observation fixes exactly."""
        return self.lower == self.upper

    def head(self, n: int) -> "ConsistencySpec":
        """The set of the first n samples, viewing this set's arrays."""
        return ConsistencySpec(self.variant, self.y[..., :n], self.lower[..., :n],
                               self.upper[..., :n])

    @classmethod
    def stack(cls, specs) -> "ConsistencySpec":
        """One set whose row k is the frame ``specs[k]`` (of the first's variant)."""
        return cls(specs[0].variant, *(np.stack([getattr(spec, name) for spec in specs])
                                       for name in ("y", "lower", "upper")))

    def rows(self) -> list["ConsistencySpec"]:
        """The frame of every row of a stack, viewing its arrays."""
        return [ConsistencySpec(self.variant, *row)
                for row in zip(self.y, self.lower, self.upper)]

    @classmethod
    def declip(cls, y, theta: float, tol: float = 0.0) -> "ConsistencySpec":
        """Box of a clipped observation.

        A sample is reliable iff |y_n| < theta - tol; samples at or beyond the
        (tolerance-reduced) threshold are clipped high or low by sign.
        ``tol`` defaults to exact comparison and exists for observations that
        went through a lossy store such as a 32-bit float file.  Samples
        exceeding theta by more than max(tol, 1 ulp) are rejected.
        """
        y = _as_signal(y)
        if not theta > 0:
            raise ValueError("clipping threshold must be positive")
        if tol < 0:
            raise ValueError("tolerance must be nonnegative")
        if np.any(np.abs(y) > theta + max(tol, np.spacing(theta))):
            raise ValueError("sample magnitude exceeds the clipping threshold")
        level = theta - tol
        high = y >= level
        low = y <= -level
        return cls("declip", y, np.where(high, theta, np.where(low, -np.inf, y)),
                   np.where(low, -theta, np.where(high, np.inf, y)))

    @classmethod
    def dequant(cls, y, delta: float) -> "ConsistencySpec":
        if not delta > 0:
            raise ValueError("dequant spec needs a positive delta")
        y = np.asarray(y, dtype=float)
        half = delta / 2.0
        return cls("dequant", y, y - half, y + half)

    @classmethod
    def inpaint(cls, y, reliable) -> "ConsistencySpec":
        y = np.asarray(y, dtype=float)
        free = ~_as_bool_mask(reliable, y.size)
        return cls("inpaint", y, np.where(free, -np.inf, y),
                   np.where(free, np.inf, y))


def project_consistency(x, spec: ConsistencySpec, out=None) -> np.ndarray:
    """Euclidean projection onto the (closed) consistency set, written into
    ``out`` when given."""
    x = np.asarray(x, dtype=float)
    if x.shape != spec.y.shape:
        raise ValueError("signal and observation lengths differ")
    # two ufuncs give np.clip's bits (NaN and signed zeros too) at half its cost
    out = np.maximum(x, spec.lower, out=out)
    return np.minimum(out, spec.upper, out=out)


def prox_signal_penalty(x, lambda_s, spec: ConsistencySpec, out=None) -> np.ndarray:
    """Prox of the scaled half-squared distance to the consistency set.

    For finite lambda_s this is the convex combination
    ``lambda_s/(lambda_s+1) * proj(x) + 1/(lambda_s+1) * x``; the limit
    lambda_s = inf is the projection itself (indicator function).  A stack
    of frames may carry one weight per row, as a column.  The result is
    written into ``out`` when given, which must not overlap x.
    """
    lam = np.asarray(lambda_s, dtype=float)
    least = lam.min()  # one reduction checks the sign and the infinite case
    if least < 0:
        raise ValueError("lambda_s must be nonnegative")
    x = np.asarray(x, dtype=float)
    proj = project_consistency(x, spec, out=out)
    if least == math.inf:
        return proj
    with np.errstate(invalid="ignore"):  # inf / inf in a row taken by isinf
        w = np.where(np.isinf(lam), 1.0, lam / (lam + 1.0))
    return np.add(w * proj, (1.0 - w) * x, out=proj)


def soft_threshold(v, threshold, out=None) -> np.ndarray:
    """Elementwise soft thresholding, the prox of threshold * ||.||_1.

    A stack of rows may carry one threshold per row, as a column.  The
    result is written into ``out`` when given, which must not overlap v.
    """
    if np.asarray(threshold).min() < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    out = np.abs(v, out=out)
    out -= threshold
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out
