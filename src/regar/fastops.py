"""FFT-diagonalized circulant embedding of the banded Toeplitz quadratic prox.

A banded Toeplitz convolution matrix embeds into a circulant of size
L >= n_head + q - 1: applied to vectors supported on the first n_head
coordinates, the circular convolution has no wrap-around and reproduces the
Toeplitz product exactly.  The quadratic prox then diagonalizes in the DFT
basis, turning every inner iteration into a pair of real FFTs (all signals
and filters are real, so ``np.fft.rfft``/``irfft`` carry the half spectrum
and the inverse transform is real by construction).  Extending the
regularizer by an indicator of zero on the tail coordinates keeps the
minimizer of the original problem; ``solver.douglas_rachford`` holds that
indicator, writing the regularizer's prox into the head of a zero-tailed
buffer.

Every routine takes a stack of frames as well: one filter and one vector per
row, all of one embedding size, with ``axis=-1`` transforms (row by row they
round exactly as one frame alone).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CirculantOperator",
    "circulant_embed_filter",
    "circulant_quadratic_prox",
    "extend",
    "fast_len",
]


def fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: an FFT length of radix-2, -3 and -5
    passes, about as cheap per point as a power of two."""
    n = int(n)
    if n < 1:
        raise ValueError("need a positive size")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class CirculantOperator:
    """Circulant embedding of a convolution filter.

    ``spectrum`` holds the L//2 + 1 real-FFT bins of the zero-padded filter
    (equivalently of the first column of the circulant matrix), one row per
    filter of a stack.  Products
    with vectors supported on the first ``n_head`` coordinates agree with the
    dense Toeplitz matrix of the filter on the first ``n_head + q - 1``
    outputs.
    """

    spectrum: np.ndarray
    L: int
    n_head: int
    filter_length: int

    def __post_init__(self):
        if self.spectrum.shape[-1:] != (self.L // 2 + 1,):
            raise ValueError("spectrum must hold the L//2 + 1 real-FFT bins")
        if self.L < self.n_head + self.filter_length - 1:
            raise ValueError("embedding too small: circular wrap would corrupt the output")


def circulant_embed_filter(filt, n_head: int) -> CirculantOperator:
    """Embed a convolution filter into the shortest fast circulant.

    The embedding size is the least 2-, 3- and 5-smooth length
    >= n_head + q - 1, so products with zero-tailed vectors never wrap around.
    ``filt`` is one filter, or a stack of filters of length q (one per row).
    """
    filt = np.asarray(filt, dtype=float)
    if filt.ndim not in (1, 2) or filt.shape[-1] < 1:
        raise ValueError("filter must be a nonempty 1-D vector or a stack of them")
    if n_head < 1:
        raise ValueError("need at least one head coordinate")
    q = filt.shape[-1]
    L = fast_len(n_head + q - 1)
    spectrum = np.fft.rfft(filt, L, axis=-1)
    return CirculantOperator(spectrum=spectrum, L=L, n_head=n_head,
                             filter_length=q)


def circulant_quadratic_prox(op: CirculantOperator, gamma, offset_ext=None):
    """Spectral quadratic prox u = (I + gamma C'C)^(-1) (v - gamma C' offset).

    All factors are diagonal in the DFT basis, so the solve is an
    elementwise division by 1 + gamma |c_hat|^2.  The divisor (and the offset
    shift) are computed once; the returned closure maps an L-vector (a row
    per filter of a stacked ``op``, whose steps ``gamma`` may form a column)
    to its prox with one rfft and one irfft into buffers of its own, and
    writes the prox into ``out`` when given (which may be its argument).
    """
    if not np.all(np.asarray(gamma) > 0):
        raise ValueError("gamma must be positive")
    # complex already, so the in-place division casts nothing per call
    denom = (1.0 + gamma * np.abs(op.spectrum) ** 2).astype(complex)
    shape = denom.shape[:-1] + (op.L,)
    if offset_ext is None:
        shift_hat = None
    else:
        offset_ext = np.asarray(offset_ext, dtype=float)
        if offset_ext.shape != shape:
            raise ValueError(f"offset must have shape {shape}")
        shift_hat = gamma * np.conj(op.spectrum) * np.fft.rfft(offset_ext, axis=-1)
    rhs_hat = np.empty_like(denom)

    def apply(v_ext, out=None):
        v_ext = np.asarray(v_ext, dtype=float)
        if v_ext.shape != shape:
            raise ValueError(f"expected vectors of shape {shape}")
        rhs = np.fft.rfft(v_ext, axis=-1, out=rhs_hat)
        if shift_hat is not None:
            rhs -= shift_hat
        rhs /= denom
        return np.fft.irfft(rhs, op.L, axis=-1, out=out)

    return apply


def extend(v, L: int) -> np.ndarray:
    """Zero-pad a head vector (every row of a stack) to the embedding size."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    if n > L:
        raise ValueError("vector longer than the embedding")
    out = np.zeros(v.shape[:-1] + (L,))
    out[..., :n] = v
    return out
