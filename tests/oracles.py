"""Reference implementations that the tests compare the package against.

The package solves every quadratic prox through the FFT circulant embedding
in ``regar.fastops`` and the Janssen normal equations in band storage; these
materialize the same operators as plain matrices and solve them by dense
Cholesky factorization.  The package describes a consistency set by one
(lower, upper) interval per sample; the mask references below classify the
samples and treat each class separately instead.  The package views its
frames in the channel, builds each frame's consistency box from its view and
streams them through overlap-add; the copy references below cut every frame
as a separate zero-padded copy and build its box on that.  The package's
Douglas-Rachford loop is one kernel for the circulant problem that reuses its
buffers; ``copy_douglas_rachford`` is the generic Douglas-Rachford reference
on any prox pair, allocating every intermediate afresh.
"""

import numpy as np
import scipy.linalg

from regar.armodel import coef_array
from regar.degrade import _as_bool_mask
from regar.pipeline import MASK_TOL_FACTOR
from regar.prox import ConsistencySpec, prox_signal_penalty, soft_threshold
from regar.solver import SolverError


def build_toeplitz(filt, n_cols: int) -> np.ndarray:
    """Dense banded Toeplitz matrix whose product implements ``residual``.

    Column j holds the filter shifted down by j, so the matrix has shape
    (len(filt) + n_cols - 1, n_cols).  build_toeplitz(a, N) @ x and
    build_toeplitz(x, p+1) @ a both equal residual(a, x).
    """
    filt = np.asarray(filt, dtype=float)
    if filt.ndim != 1 or filt.size < 1:
        raise ValueError("filter must be a nonempty 1-D vector")
    if n_cols < 1:
        raise ValueError("need at least one column")
    q = filt.size
    T = np.zeros((q + n_cols - 1, n_cols))
    for j in range(n_cols):
        T[j : j + q, j] = filt
    return T


def circulant_matrix(op) -> np.ndarray:
    """The L x L circulant matrix of a ``CirculantOperator``."""
    return scipy.linalg.circulant(np.fft.irfft(op.spectrum, op.L))


def dense_quadratic_prox(T, gamma: float, offset=None):
    """Prox of ``gamma/2 * ||T u + offset||^2``: solve (I + gamma T'T) u = v - gamma T' offset.

    The system matrix is symmetric positive definite for any gamma > 0, so
    its Cholesky factor is computed once and reused by the returned closure.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    T = np.asarray(T, dtype=float)
    if T.ndim != 2:
        raise ValueError("T must be a matrix")
    n = T.shape[1]
    system = gamma * (T.T @ T)
    system[np.diag_indices(n)] += 1.0
    factor = scipy.linalg.cho_factor(system, lower=False, check_finite=False)
    if offset is None:
        shift = None
    else:
        offset = np.asarray(offset, dtype=float)
        if offset.shape != (T.shape[0],):
            raise ValueError("offset length must match the rows of T")
        shift = gamma * (T.T @ offset)

    def apply(v):
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"expected a vector of length {n}")
        rhs = v if shift is None else v - shift
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

    return apply


def prox_quadratic_dense(v, gamma: float, T, offset=None) -> np.ndarray:
    """One-shot form of ``dense_quadratic_prox``."""
    return dense_quadratic_prox(T, gamma, offset)(np.asarray(v, dtype=float))


def soft_threshold_anchored(a, threshold: float) -> np.ndarray:
    """Soft threshold with the first entry pinned to exactly 1.

    Prox of ``threshold * ||.||_1`` plus the indicator of {a_1 = 1}; the two
    compose exactly because both are coordinate-separable.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("coefficients must be a nonempty 1-D vector")
    out = soft_threshold(a, threshold)
    out[0] = 1.0
    return out


def dense_update_coefficients(x, a_prev, cfg) -> np.ndarray:
    """``update_coefficients`` run on the dense Toeplitz system (no embedding).

    Same step normalization, warm start and iteration count
    (``cfg.inner_schedule[-1]``), so the two differ only by the embedding.
    """
    x = np.asarray(x, dtype=float)
    p = cfg.order
    energy = float(x @ x)
    gamma = cfg.gamma_c / energy if energy > 0 else cfg.gamma_c
    threshold = gamma * cfg.lambda_c
    T = build_toeplitz(np.concatenate(([0.0], x)), p)
    quad = dense_quadratic_prox(T, gamma, np.concatenate((x, np.zeros(p))))
    free, _ = copy_douglas_rachford(lambda v, g: quad(v),
                                    lambda v, g: soft_threshold(v, threshold),
                                    coef_array(a_prev)[1:], gamma,
                                    cfg.inner_schedule[-1])
    return np.concatenate(([1.0], free))


def dense_update_signal(a, x_prev, cfg, spec) -> np.ndarray:
    """``update_signal`` run on the dense Toeplitz system (no embedding)."""
    a = coef_array(a)
    x_prev = np.asarray(x_prev, dtype=float)
    gamma = cfg.gamma_s / float(a @ a)
    weight = gamma * cfg.lambda_s
    quad = dense_quadratic_prox(build_toeplitz(a, x_prev.size), gamma)
    return copy_douglas_rachford(lambda v, g: quad(v),
                                 lambda v, g: prox_signal_penalty(v, weight, spec),
                                 x_prev, gamma, cfg.inner_schedule[-1])[0]


def dense_janssen_signal_update(a, y, reliable) -> np.ndarray:
    """``janssen_signal_update`` with the full m x m Gram matrix and dense Cholesky."""
    a = coef_array(a)
    y = np.asarray(y, dtype=float)
    n = y.size
    rel = _as_bool_mask(reliable, n)
    missing = np.flatnonzero(~rel)
    if missing.size == 0:
        return y.copy()
    p = a.size - 1
    acorr = np.correlate(a, a, mode="full")[p:]
    x_fixed = np.where(rel, y, 0.0)
    kernel = np.concatenate((acorr[::-1], acorr[1:]))
    gram_fixed = np.convolve(x_fixed, kernel)[p : p + n]
    rhs = -gram_fixed[missing]
    lags = np.abs(np.subtract.outer(missing, missing))
    gram = np.where(lags <= p, acorr[np.minimum(lags, p)], 0.0)
    factor = scipy.linalg.cho_factor(gram, lower=False, check_finite=False)
    x = x_fixed.copy()
    x[missing] = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    return x


def clip_masks(y, theta: float, tol: float = 0.0):
    """(reliable, high, low) masks of a clipped observation.

    A sample is reliable iff |y_n| < theta - tol; the others are clipped
    high or low by sign.
    """
    y = np.asarray(y, dtype=float)
    level = theta - tol
    high = y >= level
    low = y <= -level
    return ~(high | low), high, low


def mask_project_consistency(x, variant: str, y, *, theta=None, tol=0.0,
                             delta=None, reliable=None) -> np.ndarray:
    """``project_consistency`` class by class: pin the reliable samples,
    bound the clipped ones from their side, clip into the quantization cell."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if variant == "dequant":
        half = delta / 2.0
        return np.clip(x, y - half, y + half)
    out = x.copy()
    if variant == "declip":
        reliable, high, low = clip_masks(y, theta, tol)
    out[reliable] = y[reliable]
    if variant == "declip":
        out[high] = np.maximum(x[high], theta)
        out[low] = np.minimum(x[low], -theta)
    return out


def mask_glp_rectify(x, y, theta: float, tol: float = 0.0) -> np.ndarray:
    """``glp_rectify`` class by class: restore the reliable samples and flip
    the violating clipped ones around the +-theta level."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    reliable, high, low = clip_masks(y, theta, tol)
    out = x.copy()
    out[reliable] = y[reliable]
    flip_hi = high & (x < theta)
    flip_lo = low & (x > -theta)
    out[flip_hi] = 2.0 * theta - x[flip_hi]
    out[flip_lo] = -2.0 * theta - x[flip_lo]
    return out


def copy_segment(x, layout) -> list[np.ndarray]:
    """``segment`` with every frame cut as its own copy of the padded signal."""
    padded = np.zeros((layout.n_frames - 1) * layout.hop + layout.frame_length)
    padded[: layout.n_samples] = x
    return [padded[k * layout.hop: k * layout.hop + layout.frame_length].copy()
            for k in range(layout.n_frames)]


def copy_overlap_add(frames: list, layout, window) -> np.ndarray:
    """``overlap_add`` over a list of frames, accumulated in frame order."""
    window = np.asarray(window, dtype=float)
    if len(frames) != layout.n_frames:
        raise ValueError("frame count does not match the layout")
    total = (layout.n_frames - 1) * layout.hop + layout.frame_length
    acc = np.zeros(total)
    norm = np.zeros(total)
    for k, frame in enumerate(frames):
        s = k * layout.hop
        acc[s: s + layout.frame_length] += window * np.asarray(frame, dtype=float)
        norm[s: s + layout.frame_length] += window
    return acc[: layout.n_samples] / norm[: layout.n_samples]


def copy_spec(model, y, reliable=None) -> ConsistencySpec:
    """Consistency spec of an observed frame (or channel) built on its own
    arrays; ``reliable`` is the drop model's mask over the same samples."""
    if model.kind == "clip":
        return ConsistencySpec.declip(y, model.theta,
                                      tol=MASK_TOL_FACTOR * model.theta)
    if model.kind == "quant":
        return ConsistencySpec.dequant(y, model.delta)
    return ConsistencySpec.inpaint(y, model.reliable if reliable is None
                                   else reliable)


def copy_frame_specs(model, y, layout) -> list[ConsistencySpec]:
    """Every frame's spec built from copied frames; the zero padding of a
    drop model's mask counts as reliable."""
    frames = copy_segment(y, layout)
    if model.kind != "drop":
        return [copy_spec(model, frame) for frame in frames]
    missing = copy_segment(~model.reliable, layout)
    return [copy_spec(model, frame, gap == 0.0)
            for frame, gap in zip(frames, missing)]


def copy_douglas_rachford(prox_f, prox_g, z0, gamma: float, iters: int):
    """Douglas-Rachford for min f + g given the two prox operators, called
    as ``(v, gamma)``, with a new array for every intermediate:
    z <- z + prox_f(2 u - z) - u after u = prox_g(z).  Returns (u, z)."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if iters < 1:
        raise ValueError("need at least one iteration")
    z = np.array(z0, dtype=float)
    u = None
    for k in range(iters):
        u = prox_g(z, gamma)
        z = z + prox_f(2.0 * u - z, gamma) - u
        if not np.all(np.isfinite(z)):
            raise SolverError(f"non-finite iterate at inner iteration {k + 1}")
    return u, z
