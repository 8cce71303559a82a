"""Dense reference implementations that the tests compare the package against.

The package solves every quadratic prox through the FFT circulant embedding
in ``regar.fastops``; these materialize the same operators as plain
matrices and solve them by Cholesky factorization.
"""

import numpy as np
import scipy.linalg

from regar.armodel import ArCoefficients, coef_array
from regar.prox import prox_signal_penalty, soft_threshold
from regar.solver import douglas_rachford


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


def dense_update_coefficients(x, a_prev, cfg) -> ArCoefficients:
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
    free = douglas_rachford(lambda v, g: quad(v),
                            lambda v, g: soft_threshold(v, threshold),
                            coef_array(a_prev)[1:], gamma, cfg.inner_schedule[-1])
    return ArCoefficients.from_free(free)


def dense_update_signal(a, x_prev, cfg, spec) -> np.ndarray:
    """``update_signal`` run on the dense Toeplitz system (no embedding)."""
    a = coef_array(a)
    x_prev = np.asarray(x_prev, dtype=float)
    gamma = cfg.gamma_s / float(a @ a)
    weight = gamma * cfg.lambda_s
    quad = dense_quadratic_prox(build_toeplitz(a, x_prev.size), gamma)
    return douglas_rachford(lambda v, g: quad(v),
                            lambda v, g: prox_signal_penalty(v, weight, spec),
                            x_prev, gamma, cfg.inner_schedule[-1])
