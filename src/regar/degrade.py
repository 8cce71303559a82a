"""Forward degradation models: hard clipping, uniform quantization, sample dropping.

These produce the observations that the reconstruction strategies try to
invert.  All signals are 1-D float arrays; the reliable-sample mask of a
drop is a boolean array of the same length.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClipObservation",
    "QuantObservation",
    "hard_clip",
    "quantizer_step",
    "uniform_quantize",
    "drop_samples",
]


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    return x


def _as_bool_mask(m, n: int) -> np.ndarray:
    """The boolean mask ``m`` itself, checked to have length n."""
    m = np.asarray(m)
    if m.dtype != bool:
        raise ValueError(f"mask must be a boolean array, got dtype {m.dtype}")
    if m.shape != (n,):
        raise ValueError(f"boolean mask must have length {n}, got {m.shape}")
    return m


@dataclass(frozen=True)
class ClipObservation:
    """Hard-clipped signal with its threshold."""

    y: np.ndarray
    theta: float


@dataclass(frozen=True)
class QuantObservation:
    """Uniformly quantized signal; every sample is an odd multiple of delta/2."""

    y: np.ndarray
    delta: float


def hard_clip(x, theta: float) -> ClipObservation:
    """Saturate samples with magnitude >= theta at +-theta.

    Samples strictly inside (-theta, theta) pass through unchanged; the rest
    are replaced by theta times their sign.
    """
    x = _as_signal(x)
    if not theta > 0:
        raise ValueError("clipping threshold must be positive")
    clipped = np.abs(x) >= theta
    # theta > 0 keeps x == 0 out of the clipped branch, so sign(0) = 0 is inert
    y = np.where(clipped, theta * np.sign(x), x)
    return ClipObservation(y=y, theta=theta)


def quantizer_step(word_length: int) -> float:
    """Step 2**(1-word_length) of a 1- to 53-bit quantizer (beyond 53 bits
    the odd multiples of half a step in [-1, 1] do not fit a float64)."""
    if word_length < 1:
        raise ValueError("word length must be at least 1 bit")
    if word_length > 53:
        raise ValueError("word length must be at most 53 bits")
    return 2.0 ** (1 - word_length)


def uniform_quantize(x, word_length: int) -> QuantObservation:
    """Mid-riser uniform quantization with step ``quantizer_step(word_length)``.

    y_n = sgn+(x_n) * delta * (floor(|x_n|/delta) + 1/2) where sgn+ maps
    nonnegative values to +1.  Values beyond full scale are quantized by the
    same rule (the top level can exceed 1).
    """
    x = _as_signal(x)
    delta = quantizer_step(word_length)
    sign = np.where(x >= 0, 1.0, -1.0)
    y = sign * delta * (np.floor(np.abs(x) / delta) + 0.5)
    return QuantObservation(y=y, delta=delta)


def drop_samples(x, reliable) -> np.ndarray:
    """The observed signal: x on the boolean ``reliable`` mask, 0 elsewhere
    (missing entries are stored as 0, never NaN)."""
    x = _as_signal(x)
    return np.where(_as_bool_mask(reliable, len(x)), x, 0.0)
