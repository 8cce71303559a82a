"""Proximal operators and consistency-set projections.

Hosts the consistency-set description shared by the solver, metrics and CLI
layers (an observation and one parameter, from which the per-sample bounds
follow), the projection onto it, the penalty prox built from that
projection, and the soft threshold used for the coefficient regularizer.
The quadratic prox of the AR residual lives in ``fastops``.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .degrade import _as_bool_mask, _as_signal

__all__ = [
    "ConsistencySpec",
    "project_consistency",
    "prox_signal_penalty",
    "soft_threshold",
]

_VARIANTS = ("declip", "dequant", "inpaint")
# a declip sample within CLIP_SLACK * theta of +-theta counts as clipped, and
# may overshoot it by as much: the slack of an observation stored as float32
CLIP_SLACK = 1e-6


def _checked_param(variant: str, param, y=None):
    """``param`` checked as a ``variant`` box's parameter (theta or delta
    positive, or a boolean mask), and against the frame ``y`` when given: no
    |y_n| beyond theta by more than max(CLIP_SLACK * theta, 1 ulp)."""
    if variant == "inpaint":
        return _as_bool_mask(param, np.size(param) if y is None else y.size)
    if param is None or not param > 0:
        raise ValueError("clipping threshold must be positive" if variant == "declip"
                         else "dequant spec needs a positive delta")
    if variant == "declip" and y is not None and np.any(
            np.abs(y) > param + max(CLIP_SLACK * param, np.spacing(param))):
        raise ValueError("sample magnitude exceeds the clipping threshold")
    return param


@dataclass(frozen=True)
class ConsistencySpec:
    """The set of signals consistent with an observation: one interval per sample.

    The set is the observation ``y`` and its variant's parameter ``param``.
    Sample n of a consistent signal lies in [lower[n], upper[n]], arrays
    derived on first read and never pickled; a pinned sample (lower = upper
    = y) is known exactly, and an infinite bound leaves that side free.

    "declip":  theta: |y_n| < theta - CLIP_SLACK * theta pinned, the others
        bounded below by theta or above by -theta, by sign.
    "dequant": delta: every sample within delta/2 of y (the closed box; the
        open set has no projection, and its closure shares all feasible
        limit points).
    "inpaint": the boolean reliable mask: reliable samples pinned, the rest free.

    A stack of frames of one length (see ``stack``) holds one frame per row
    of ``y``, with theta or delta as a column, or one mask per row.
    """

    variant: str
    y: np.ndarray
    param: float | np.ndarray

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        y = np.asarray(self.y, dtype=float)
        if y.ndim == 1:  # a frame; a stack is checked through its frames
            y = _as_signal(y)
            object.__setattr__(self, "param", _checked_param(self.variant, self.param, y))
        elif y.ndim != 2:
            raise ValueError("observation must be a 1-D signal or a stack of them")
        object.__setattr__(self, "y", y)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _box(self) -> tuple:
        """(lower, upper, pinned)."""
        y, p = self.y, self.param
        if self.variant == "declip":
            slack = CLIP_SLACK * p
            high, low = y >= p - slack, y <= slack - p
            return (np.where(high, p, np.where(low, -np.inf, y)),
                    np.where(low, -p, np.where(high, np.inf, y)), ~(high | low))
        if self.variant == "dequant":
            lower, upper = y - p / 2.0, y + p / 2.0
            return lower, upper, lower == upper  # a delta below an ulp pins
        return np.where(p, y, -np.inf), np.where(p, y, np.inf), p

    lower = property(lambda self: self._box[0])
    upper = property(lambda self: self._box[1])
    pinned = property(lambda self: self._box[2])

    @classmethod
    def stack(cls, specs) -> "ConsistencySpec":
        """One set whose row k is the frame ``specs[k]`` (of the first's variant)."""
        return cls(specs[0].variant, *(
            np.stack([np.atleast_1d(getattr(spec, name)) for spec in specs])
            for name in ("y", "param")))

    def rows(self) -> list["ConsistencySpec"]:
        """The frame of every row of a stack, viewing its arrays."""
        return [ConsistencySpec(self.variant, *row)
                for row in zip(self.y, self.param)]


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
