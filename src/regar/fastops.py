"""FFT-diagonalized circulant embedding of the banded Toeplitz quadratic prox.

A banded Toeplitz convolution matrix embeds into a circulant of size
L >= n_head + q - 1: applied to vectors supported on the first n_head
coordinates, the circular convolution has no wrap-around and reproduces the
Toeplitz product exactly.  The quadratic prox then diagonalizes in the DFT
basis, turning every inner iteration into a pair of real FFTs (all signals
and filters are real, so ``np.fft.rfft``/``irfft`` carry the half spectrum
and the inverse transform is real by construction).  Extending the
regularizer by an indicator of zero on the tail coordinates keeps the
minimizer of the original problem.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CirculantOperator",
    "circulant_embed_filter",
    "circulant_quadratic_prox",
    "prox_regularizer_extended",
    "extend",
    "next_pow2",
]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    n = int(n)
    if n < 1:
        raise ValueError("need a positive size")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class CirculantOperator:
    """Circulant embedding of a convolution filter.

    ``spectrum`` holds the L//2 + 1 real-FFT bins of the zero-padded filter
    (equivalently of the first column of the circulant matrix).  Products
    with vectors supported on the first ``n_head`` coordinates agree with the
    dense Toeplitz matrix of the filter on the first ``n_head + q - 1``
    outputs.
    """

    spectrum: np.ndarray
    L: int
    n_head: int
    filter_length: int

    def __post_init__(self):
        if self.spectrum.shape != (self.L // 2 + 1,):
            raise ValueError("spectrum must hold the L//2 + 1 real-FFT bins")
        if self.L < self.n_head + self.filter_length - 1:
            raise ValueError("embedding too small: circular wrap would corrupt the output")


def circulant_embed_filter(filt, n_head: int) -> CirculantOperator:
    """Embed a convolution filter into the smallest power-of-two circulant.

    The embedding size is the least power of two >= n_head + q - 1, so
    products with zero-tailed vectors never wrap around.
    """
    filt = np.asarray(filt, dtype=float)
    if filt.ndim != 1 or filt.size < 1:
        raise ValueError("filter must be a nonempty 1-D vector")
    if n_head < 1:
        raise ValueError("need at least one head coordinate")
    L = next_pow2(n_head + filt.size - 1)
    spectrum = np.fft.rfft(filt, L)
    return CirculantOperator(spectrum=spectrum, L=L, n_head=n_head,
                             filter_length=filt.size)


def circulant_quadratic_prox(op: CirculantOperator, gamma: float, offset_ext=None):
    """Spectral quadratic prox u = (I + gamma C'C)^(-1) (v - gamma C' offset).

    All factors are diagonal in the DFT basis, so the solve is an
    elementwise division by 1 + gamma |c_hat|^2.  The divisor (and the offset
    shift) are computed once; the returned closure maps an L-vector to its
    prox with one rfft and one irfft.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    denom = 1.0 + gamma * np.abs(op.spectrum) ** 2
    if offset_ext is None:
        shift_hat = None
    else:
        offset_ext = np.asarray(offset_ext, dtype=float)
        if offset_ext.shape != (op.L,):
            raise ValueError(f"offset must have length {op.L}")
        shift_hat = gamma * np.conj(op.spectrum) * np.fft.rfft(offset_ext)

    def apply(v_ext):
        v_ext = np.asarray(v_ext, dtype=float)
        if v_ext.shape != (op.L,):
            raise ValueError(f"expected a vector of length {op.L}")
        rhs_hat = np.fft.rfft(v_ext)
        if shift_hat is not None:
            rhs_hat = rhs_hat - shift_hat
        return np.fft.irfft(rhs_hat / denom, op.L)

    return apply


def extend(v, L: int) -> np.ndarray:
    """Zero-pad a head vector to the embedding size."""
    v = np.asarray(v, dtype=float)
    if v.size > L:
        raise ValueError("vector longer than the embedding")
    out = np.zeros(L)
    out[: v.size] = v
    return out


def prox_regularizer_extended(u_ext, head_prox, n_head: int) -> np.ndarray:
    """Prox of the extended regularizer: head prox on the leading coordinates, zero tail.

    The extended function is the original regularizer on the first n_head
    coordinates plus the indicator of zero on the rest; its prox is exactly
    this composition because the two groups of coordinates are separable.
    """
    u_ext = np.asarray(u_ext, dtype=float)
    out = np.zeros_like(u_ext)
    out[:n_head] = head_prox(u_ext[:n_head])
    return out
