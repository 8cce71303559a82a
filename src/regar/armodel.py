"""Autoregressive residuals, classic coefficient estimation, and the
regularized objective.

Conventions: a coefficient vector ``a`` has length p+1 with ``a[0] == 1``
fixed.  The residual of a length-N signal is the full linear convolution of
``a`` with the zero-padded signal and has length N+p.  Signals are plain 1-D
float arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .metrics import consistency_distance

__all__ = [
    "ObjectiveValue",
    "residual",
    "levinson_durbin",
    "objective",
    "reflection_to_ar",
    "random_stable_ar",
    "simulate_ar",
]


def coef_array(a, rows: tuple = ()) -> np.ndarray:
    """The float vector of ``a``, checked to be [1, a_2, ..., a_{p+1}]; with
    ``rows``, the leading shape of a stack of signals, one such vector per
    signal."""
    vec = np.asarray(a, dtype=float)
    if vec.shape[:-1] != tuple(rows) or vec.shape[-1:] in ((), (0,)):
        raise ValueError("coefficients must be a nonempty 1-D vector per signal")
    if np.any(vec[..., 0] != 1.0):
        raise ValueError("first coefficient must be exactly 1")
    if not np.isfinite(vec).all():
        raise ValueError("coefficients contain non-finite values")
    return vec


@dataclass(frozen=True)
class ObjectiveValue:
    """Value of the regularized objective together with its three terms.

    ``total = residual_term + coef_term + signal_term`` whenever all terms
    are finite; an infeasible hard-constrained signal is reported with
    ``signal_term = total = inf``.
    """

    total: float
    residual_term: float
    coef_term: float
    signal_term: float


def residual(a, x) -> np.ndarray:
    """Residual error of the AR fit: full convolution of the coefficients with x.

    With x zero-padded on both sides, e_n = sum_i a_i x_{n+1-i}; the result
    has length N + p and equals both Toeplitz products X a and A x.
    """
    a = coef_array(a)
    x = np.asarray(x, dtype=float)
    return np.convolve(x, a)


def autocorrelation(x, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r_0..r_max_lag computed via the FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    nfft = 1 << max(1, int(np.ceil(np.log2(2 * n - 1)))) if n > 1 else 2
    spec = np.fft.rfft(x, nfft)
    r = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1]
    return r


def levinson_durbin(x, p: int) -> np.ndarray:
    """Classic AR estimation by the autocorrelation method.

    Solves the order-p autocorrelation normal equations by the
    Levinson-Durbin recursion.  The zero-padded (windowed) autocorrelation
    makes the resulting prediction filter minimum phase.

    Raises ValueError for an all-zero signal or when p is not in [0, N).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    n = x.size
    if not 0 <= p < n:
        raise ValueError(f"order must satisfy 0 <= p < {n}")
    if p == 0:
        return np.ones(1)
    r = autocorrelation(x, p)
    if not r[0] > 0:
        raise ValueError("degenerate autocorrelation (all-zero signal?)")
    a = np.zeros(p + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, p + 1):
        acc = r[i] + a[1:i] @ r[1:i][::-1]
        if err <= 0:
            raise ValueError("autocorrelation recursion broke down")
        k = -acc / err
        a[1:i] += k * a[1:i][::-1]
        a[i] = k
        err *= 1.0 - k * k
    return a


def objective(a, x, lambda_c: float, lambda_s: float, spec) -> ObjectiveValue:
    """Regularized AR objective: 1/2 ||e||^2 + lambda_c ||a||_1 + lambda_s/2 d_Gamma(x)^2.

    The l1 norm includes the fixed leading coefficient.  The signal term is
    ``lambda_s * consistency_distance(x, spec)`` (zero without a spec); for
    lambda_s = inf it is the indicator of the consistency set: zero when x
    is within ``1e-9 * sqrt(N)`` of the set, +inf otherwise.
    """
    a = coef_array(a)
    x = np.asarray(x, dtype=float)
    if not (lambda_c >= 0 and lambda_s >= 0):  # rejects NaN too
        raise ValueError("regularization weights must be nonnegative")
    e = residual(a, x)
    residual_term = 0.5 * float(e @ e)
    coef_term = lambda_c * float(np.abs(a).sum())
    half_sq = 0.0 if spec is None else consistency_distance(x, spec)
    if math.isinf(lambda_s):
        # within 1e-9 * sqrt(N) of the set: d^2 / 2 <= 0.5e-18 * N
        signal_term = 0.0 if half_sq <= 0.5e-18 * x.size else math.inf
    else:
        signal_term = lambda_s * half_sq
    return ObjectiveValue(residual_term + coef_term + signal_term,
                          residual_term, coef_term, signal_term)


def reflection_to_ar(reflection) -> np.ndarray:
    """Convert reflection coefficients to AR coefficients (Levinson step-up).

    Every |k| < 1 yields a stable all-pole filter, which makes this the
    convenient way to draw random stable models.
    """
    reflection = np.asarray(reflection, dtype=float)
    if np.any(np.abs(reflection) >= 1):
        raise ValueError("reflection coefficients must satisfy |k| < 1")
    a = np.ones(1)
    for k in reflection:
        a = np.concatenate((a, [0.0]))
        a = a + k * a[::-1]
    return a


def random_stable_ar(order: int, rng, k_max: float = 0.8) -> np.ndarray:
    """Random stable AR model of the given order (reflection coefficients in (-k_max, k_max))."""
    k = rng.uniform(-k_max, k_max, size=order)
    return reflection_to_ar(k)


def simulate_ar(a, n: int, rng, burn_in: int = 500, scale: float = 1.0) -> np.ndarray:
    """Realization of the AR process: white noise through the all-pole filter 1/A(z)."""
    import scipy.signal  # deferred: it dominates the import time of the package

    a = coef_array(a)
    e = rng.standard_normal(n + burn_in) * scale
    x = scipy.signal.lfilter([1.0], a, e)
    return x[burn_in:]
