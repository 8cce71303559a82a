"""Alternating minimization of the regularized AR objective.

The outer loop alternates between the two convex subproblems (coefficients
with the signal fixed, signal with the coefficients fixed), each solved
approximately by the Douglas-Rachford algorithm on a prox pair.  Both
subproblems share one kernel: the quadratic prox of the circulant-embedded
AR convolution (one real-FFT pair per inner iteration) against the
separable regularizer prox on the head coordinates and zero on the tail.
Janssen's exact missing-sample solve and its rectified GLP variant are the
two classic baselines, selectable as strategies of the same outer loop.
``SolverConfig.signal_step`` names the signal step a configuration takes:
the signal DR, Janssen's solve, or an exact primal-dual active set on
Janssen's banded normal equations.
Optional accelerations: progressive inner-iteration schedules, extrapolation
of either update, and a line search along the extrapolation direction.

``acs_run`` solves a stack of frames of one length in lockstep: the DR
kernels run on (frames, L) arrays, while every per-frame reduction (energies,
AR fit, Janssen's solve, the active-set step, objective, line-search choice)
stays a 1-D call per row, so each row rounds exactly as its frame solved
alone.
"""

import ctypes
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .armodel import coef_array, levinson_durbin, objective
from .fastops import circulant_embed_filter, circulant_quadratic_prox, extend
from .prox import (ConsistencySpec, project_consistency, prox_signal_penalty,
                   soft_threshold)
from .metrics import sdr
from .degrade import _as_bool_mask

__all__ = [
    "SolverConfig",
    "AcsStep",
    "SolverError",
    "douglas_rachford",
    "update_coefficients",
    "update_signal",
    "janssen_signal_update",
    "active_set_signal_update",
    "glp_rectify",
    "progressive_schedule",
    "extrapolate",
    "line_search",
    "acs_run",
]

# each strategy and the consistency-spec variants (boxes) it takes: the
# missing-sample strategies need reliable samples, so no dequant box
STRATEGIES = {"inpaint": ("declip", "inpaint"), "glp": ("declip",),
              "declip": ("declip",), "dequant": ("dequant",)}
# the banded solves of one active-set signal step, at most
ACTIVE_SET_PASSES = 20
ACCELERATIONS = ("extrapolate_signal", "extrapolate_coefs", "line_search")

COEF_GROWTH_LIMIT = 1e6
# extrapolation steps sampled by the line search: 25 log-spaced in [1e-4, 100]
TAU_GRID = np.logspace(-4.0, 2.0, 25)


class SolverError(RuntimeError):
    """A frame's solve stopped: a non-finite DR iterate or exact signal step,
    or runaway coefficients.

    ``reason`` says why, ``row`` is the failing row of the stack (0 for a
    single frame) and ``trace`` that row's list of ``AcsStep`` up to the
    failure, attached by ``acs_run``.  The message is the reason and the row.
    """

    def __init__(self, reason: str, row: int = 0, trace: list | None = None):
        super().__init__(f"{reason} in row {row}")
        self.reason = reason
        self.row = row
        self.trace = trace

    def __reduce__(self):
        # rebuild from the fields, so the error crosses a process boundary
        # unchanged
        return type(self), (self.reason, self.row, self.trace)


@dataclass(frozen=True)
class SolverConfig:
    """Everything the outer loop needs to know.

    ``inner_iters`` is the Douglas-Rachford iteration count of every outer
    iteration, or a sequence of one count per outer iteration (stored as a
    tuple); ``inner_schedule`` gives the count of each.  Where
    ``signal_step`` is not "dr" the signal step is exact, so the counts (and
    ``gamma_s``) concern the coefficient DR alone.  The order and the counts
    must be integers.  The ``acceleration`` set may contain
    "extrapolate_signal", "extrapolate_coefs" and "line_search"; the line
    search replaces the fixed-step extrapolations and cannot be combined
    with them.
    """

    order: int
    strategy: str = "declip"
    lambda_c: float = 0.0
    lambda_s: float = math.inf
    gamma_c: float = 1.0
    gamma_s: float = 1.0
    outer_iters: int = 10
    inner_iters: int | tuple = 1000
    acceleration: frozenset = frozenset()

    def __post_init__(self):
        constant = np.ndim(self.inner_iters) == 0
        counts = (self.inner_iters,) if constant else tuple(self.inner_iters)
        if not all(isinstance(n, numbers.Integral)
                   for n in (self.order, self.outer_iters, *counts)):
            raise ValueError("model order and outer and inner iteration counts "
                             "must be integers")
        if self.order < 0:
            raise ValueError("model order must be nonnegative")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (self.lambda_c >= 0 and self.lambda_s >= 0):  # rejects NaN too
            raise ValueError("regularization weights must be nonnegative")
        if not (0 < self.gamma_c < math.inf and 0 < self.gamma_s < math.inf):
            raise ValueError("step sizes must be positive and finite")
        if self.outer_iters < 1:
            raise ValueError("need at least one outer iteration")
        if not constant and len(counts) != self.outer_iters:
            raise ValueError("inner schedule length must equal outer_iters")
        if any(n < 1 for n in counts):
            raise ValueError("inner iteration counts must be >= 1")
        counts = tuple(map(int, counts))
        object.__setattr__(self, "inner_iters", counts[0] if constant else counts)
        accel = frozenset(self.acceleration)
        unknown = accel - set(ACCELERATIONS)
        if unknown:
            raise ValueError(f"unknown acceleration options {sorted(unknown)}")
        if "line_search" in accel and accel & {"extrapolate_signal", "extrapolate_coefs"}:
            raise ValueError("line_search replaces the fixed extrapolations")
        object.__setattr__(self, "acceleration", accel)

    @property
    def inner_schedule(self) -> tuple:
        """The inner iteration count of each outer iteration."""
        counts = self.inner_iters
        return counts if isinstance(counts, tuple) else (counts,) * self.outer_iters

    @property
    def keeps_pinned(self) -> bool:
        """Whether a frame with every sample pinned is its own solution."""
        return self.signal_step == "janssen" or self.lambda_s == math.inf

    @property
    def signal_step(self) -> str:
        """How each outer iteration solves the signal subproblem: "janssen"
        for inpaint and glp (``janssen_signal_update``), "active_set" for
        declip at lambda_s = inf (``active_set_signal_update``), else "dr"
        (``update_signal``), the one step that reads ``gamma_s`` and the inner
        counts.  Dequant keeps the DR: its box pins no sample, so an active
        set starts cold, and at its orders the DR is the cheaper of the two."""
        if self.strategy in ("inpaint", "glp"):
            return "janssen"
        exact = self.strategy == "declip" and self.lambda_s == math.inf
        return "active_set" if exact else "dr"

    def check_box(self, variant: str) -> None:
        """Reject a consistency-spec variant the strategy does not take."""
        if variant not in STRATEGIES[self.strategy]:
            raise ValueError(f"strategy {self.strategy!r} takes a "
                             f"{' or '.join(STRATEGIES[self.strategy])} spec, "
                             f"got {variant!r}")


@dataclass(frozen=True)
class AcsStep:
    """Diagnostics recorded after one outer iteration.

    ``signal_passes`` counts the banded solves of the signal update: the
    active-set passes (``ACTIVE_SET_PASSES`` for a step that hit the cap),
    1 for Janssen's solve and 0 for the Douglas-Rachford signal update.
    """

    outer_iter: int
    objective: float
    residual_term: float
    coef_term: float
    signal_term: float
    inner_iters: int
    wall_time: float
    coef_change: float
    sdr_db: float | None = None
    signal_passes: int = 0


def douglas_rachford(filt, n_head: int, head_prox, z0, gamma, *, iters: int,
                     offset=None):
    """Douglas-Rachford on min 1/2 ||C u + offset||^2 + r(u_head) + i{u_tail = 0}.

    C is the circulant embedding of the convolution with ``filt``;
    ``head_prox(v, out)`` writes the prox of gamma * r of the first
    ``n_head`` coordinates v into out.  ``z0`` is a head vector (zero-padded
    here) or the DR state carried over from a previous call.  One iteration
    reads u = prox_g(z); z += prox_f(2u - z) - u, with f the quadratic and g
    the rest, whose prox is the head prox on the head and zero on the
    separable tail.  A stack holds one row per frame in every array (gamma
    as a column); a non-finite entry stops the whole stack with a
    ``SolverError`` naming the first row that holds one (row 0 of a 1-D z).
    u is one zero-tailed buffer and the quadratic prox transforms 2u - z in
    place, so the loop allocates nothing.  Returns the head of the final u
    (exactly feasible for an indicator r) and the final z, for warm starts.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    op = circulant_embed_filter(filt, n_head)
    quad = circulant_quadratic_prox(
        op, gamma, None if offset is None else extend(offset, op.L))
    z = extend(z0, op.L)
    spare = np.empty_like(z)
    u = np.zeros_like(z)
    head = u[..., :n_head]
    finite = np.empty(z.shape, dtype=bool)
    for k in range(iters):
        head_prox(z[..., :n_head], head)
        np.multiply(u, 2.0, out=spare)
        spare -= z
        quad(spare, out=spare)
        # with p = prox_f(2u - z), (p + z) - u rounds exactly like (z + p) - u
        spare += z
        spare -= u
        spare, z = z, spare
        if not np.isfinite(z, out=finite).all():
            row_ok = finite.reshape(-1, finite.shape[-1]).all(axis=1)
            raise SolverError(f"non-finite iterate at inner iteration {k + 1}",
                              int(np.argmin(row_ok)))
    return head, z


def _row_energy(v) -> np.ndarray:
    """v @ v of every row, as a column (a 1-D dot per row rounds as alone)."""
    rows = v.reshape(-1, v.shape[-1])
    return np.array([row @ row for row in rows]).reshape(v.shape[:-1] + (1,))


def _prepend(value: float, v) -> np.ndarray:
    """v with ``value`` put before the first entry of every row."""
    return np.concatenate((np.full(v.shape[:-1] + (1,), value), v), axis=-1)


def update_coefficients(x, a_prev, cfg: SolverConfig, *, inner_iters: int, state=None):
    """One coefficient update: approximately minimize the residual plus l1 penalty.

    Runs ``inner_iters`` Douglas-Rachford iterations on the free coefficients
    with the quadratic prox on one side and the soft threshold on the other,
    warm-started at ``a_prev`` or at the DR ``state`` of the previous call.
    The configured step size is normalized by the signal energy, which keeps
    the inner convergence speed independent of the frame length and scale
    (the minimizer does not depend on the step size).  A stack of signals
    (one per row) takes one row of coefficients each.  Returns the
    coefficients and the final DR state (None at order 0).
    """
    x = np.asarray(x, dtype=float)
    a_prev = coef_array(a_prev, x.shape[:-1])
    p = cfg.order
    if a_prev.shape[-1] != p + 1:
        raise ValueError("warm-start coefficients have the wrong order")
    if p == 0:
        return np.ones(a_prev.shape), None
    energy = _row_energy(x)
    # a silent row keeps the bare multiplier
    gamma = cfg.gamma_c / np.where(energy > 0, energy, 1.0)
    threshold = gamma * cfg.lambda_c
    # with a_1 pinned to 1 the residual splits as x + (Toeplitz of [0, x]) @ free,
    # so the quadratic carries the signal as a fixed offset
    free, z = douglas_rachford(_prepend(0.0, x), p,
                               lambda h, out: soft_threshold(h, threshold, out=out),
                               a_prev[..., 1:] if state is None else state, gamma,
                               iters=int(inner_iters), offset=x)
    return _prepend(1.0, free), z


def update_signal(a, x_prev, cfg: SolverConfig, spec: ConsistencySpec, *,
                  inner_iters: int, state=None):
    """One signal update: approximately minimize the residual plus consistency penalty.

    ``inner_iters`` Douglas-Rachford iterations on the signal with the
    quadratic prox and the penalty prox (projection when lambda_s is inf),
    warm-started at ``x_prev`` or at the DR ``state`` of the previous call;
    the step size is normalized by the filter energy.  A stack of signals
    (one per row, with a stacked spec) takes one row of coefficients each.
    Returns the penalty-side iterate, exactly feasible in the
    hard-constrained case, and the final DR state.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    a = coef_array(a, x_prev.shape[:-1])
    if spec.y.shape != x_prev.shape:
        raise ValueError("consistency spec length does not match the signal")
    gamma = cfg.gamma_s / _row_energy(a)
    weight = gamma * cfg.lambda_s
    return douglas_rachford(
        a, x_prev.shape[-1],
        lambda v, out: prox_signal_penalty(v, weight, spec, out=out),
        x_prev if state is None else state, gamma, iters=int(inner_iters))


def _band_lags(missing, p: int) -> np.ndarray:
    """Lag index of Janssen's Gram band in LAPACK upper-band storage.

    For the sorted missing indices m and bandwidth b <= min(p, m - 1), entry
    (k, j) is the lag m_j - m_{j-b+k} of diagonal b - k, or p + 1 where that
    lag exceeds the order or the entry lies left of the matrix, so a gather
    from the autocorrelation with a zero appended fills the band.  The index
    depends on the mask and order only; it is Fortran-ordered, the layout
    LAPACK factors in place, and holds the smallest type that fits p + 1.
    """
    m = missing.size
    b = int(np.max(np.searchsorted(missing, missing + p, side="right")
                   - np.arange(1, m + 1), initial=0))
    lags = np.full((b + 1, m), p + 1, dtype=np.min_scalar_type(p + 1), order="F")
    for d in range(b + 1):  # one diagonal at a time: no (b+1, m) int64 temporary
        np.minimum(missing[d:] - missing[:m - d], p + 1, out=lags[b - d, d:],
                   casting="unsafe")
    return lags


def janssen_signal_update(a, y, reliable, *, lags=None) -> np.ndarray:
    """Exact minimizer of the residual energy with the reliable samples fixed.

    Solves the positive-definite normal equations restricted to the missing
    coordinates.  Entry (i, j) of their Gram matrix is the coefficient
    autocorrelation at lag |m_i - m_j| of the missing indices m, which
    vanishes beyond the order p; in the sorted index the matrix is therefore
    banded, with bandwidth b <= min(p, m - 1).  The upper band is gathered
    straight into LAPACK band storage and factored in place by banded
    Cholesky, so a solve costs O(m b^2) time and O(m b) memory.  ``lags`` is
    the band's lag index for this mask and order (``_band_lags``), built
    here when omitted; a caller solving one mask many times builds it once.
    """
    a = coef_array(a)
    y = np.asarray(y, dtype=float)
    n = y.size
    rel = _as_bool_mask(reliable, n)
    missing = np.flatnonzero(~rel)
    if missing.size == 0:
        return y.copy()
    p = a.size - 1
    if lags is None:
        lags = _band_lags(missing, p)
    acorr = np.correlate(a, a, mode="full")[p:]
    x_fixed = np.where(rel, y, 0.0)
    kernel = np.concatenate((acorr[::-1], acorr[1:]))
    gram_fixed = np.convolve(x_fixed, kernel)[p : p + n]
    rhs = -gram_fixed[missing]
    band = np.append(acorr, 0.0)[lags]
    import scipy.linalg  # deferred: it dominates the import time of the package
    x_fixed[missing] = scipy.linalg.solveh_banded(
        band, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False)
    return x_fixed


def active_set_signal_update(a, x_prev, spec: ConsistencySpec):
    """Exact minimizer of the residual energy over the box of one frame.

    A primal-dual active set (Hintermueller, Ito & Kunisch, SIAM J. Optim.
    13(3), 2002).  Each pass fixes the pinned samples and the samples held
    at a bound, solves the rest with ``janssen_signal_update``, then releases
    every held sample whose gradient has the wrong sign and holds every free
    sample beyond a bound.  The held set starts as the samples of ``x_prev``
    at or beyond a bound; a pass that leaves it unchanged ends the step with
    the exact minimizer, feasible to the bit.  After ``ACTIVE_SET_PASSES``
    passes the step keeps the lowest-residual box projection of an iterate
    or of ``x_prev``, so it is feasible and never raises the residual above
    that of ``x_prev`` projected.  Returns the signal and its banded solves.
    """
    a = coef_array(a)
    x_prev = np.asarray(x_prev, dtype=float)
    lower, upper, pinned = spec.lower, spec.upper, spec.pinned
    low = ~pinned & (x_prev <= lower)
    high = ~pinned & (x_prev >= upper)
    iterates = [x_prev]
    for passes in range(1, ACTIVE_SET_PASSES + 1):
        fixed = pinned | low | high
        x = janssen_signal_update(a, np.where(high, upper, lower), fixed)
        grad = np.correlate(np.convolve(x, a), a, "valid")
        # a sample held at its lower bound needs grad >= 0, at its upper <= 0
        new_low = low & (grad >= 0) | ~fixed & (x < lower)
        new_high = high & (grad <= 0) | ~fixed & (x > upper)
        if np.array_equal(new_low, low) and np.array_equal(new_high, high):
            return x, passes
        low, high = new_low, new_high
        iterates.append(x)
    candidates = [project_consistency(v, spec) for v in iterates]
    energies = [float(e @ e) for e in (np.convolve(v, a) for v in candidates)]
    return candidates[int(np.argmin(energies))], ACTIVE_SET_PASSES


def _scipy_openblas():
    """scipy's bundled OpenBLAS (the BLAS behind ``solveh_banded``), or None
    where scipy bundles none."""
    import scipy

    for path in (Path(scipy.__file__).parent.parent / "scipy.libs").glob(
            "libscipy_openblas*.so"):
        return ctypes.CDLL(str(path))
    return None


def _set_one_blas_thread() -> None:
    """Run scipy's OpenBLAS on one thread from now on in this process; a
    missing library or symbol leaves it as it is."""
    setter = getattr(_scipy_openblas(), "scipy_openblas_set_num_threads", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def glp_rectify(x, spec: ConsistencySpec) -> np.ndarray:
    """Rectification step of generalized linear prediction.

    Mirrors every sample that violates a bound of its consistency interval
    across that bound, then projects onto the set: reliable samples are
    restored, and clipped samples below theta (above -theta) flip around
    the +-theta level.  The result is always clipping-consistent.
    """
    if spec.variant != "declip":
        raise ValueError("rectification is defined for declip specs only")
    x = np.asarray(x, dtype=float)
    if x.shape != spec.y.shape:
        raise ValueError("signal and observation lengths differ")
    lower, upper = spec.lower, spec.upper
    mirrored = np.where(x < lower, 2.0 * lower - x,
                        np.where(x > upper, 2.0 * upper - x, x))
    return project_consistency(mirrored, spec)


def progressive_schedule(n1: float, n_last: float, outer_iters: int) -> np.ndarray:
    """Logarithmically spaced inner-iteration counts from 10**n1 to 10**n_last;
    both exponents must be finite and every count must fit an int64."""
    if outer_iters < 1:
        raise ValueError("need at least one outer iteration")
    if math.isfinite(n1) and math.isfinite(n_last):
        if outer_iters == 1:
            exponents = np.array([n_last], dtype=float)
        else:
            exponents = n1 + np.arange(outer_iters) / (outer_iters - 1) * (n_last - n1)
        with np.errstate(over="ignore"):  # an overflowing count fails below
            counts = np.rint(10.0 ** exponents)
        if np.all(counts < 2.0 ** 63):
            return counts.astype(int)
    raise ValueError(f"schedule exponents {n1}, {n_last}: both must be finite "
                     "and give counts below 2**63")


def extrapolate(u_half, u_prev, tau: float, anchor_first: bool = False) -> np.ndarray:
    """Extrapolated update (1 + tau) u_half - tau u_prev.

    ``anchor_first`` re-pins the leading entry to 1 for coefficient vectors.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u_half = np.asarray(u_half, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    if u_half.shape != u_prev.shape:
        raise ValueError("shapes differ")
    out = (1.0 + tau) * u_half - tau * u_prev
    if anchor_first:
        out[..., 0] = 1.0
    return out


def line_search(a_half, a_prev, x_half, x_prev, objective_fn, tau_grid):
    """Joint extrapolation step chosen by sampling the objective over a tau grid.

    tau = 0 (no extrapolation) is always a candidate, so the returned pair is
    never worse than the plain update; ties resolve to the smallest tau.
    """
    a_half = np.asarray(a_half, dtype=float)
    a_prev = np.asarray(a_prev, dtype=float)
    x_half = np.asarray(x_half, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    taus = np.concatenate(([0.0], np.sort(np.asarray(tau_grid, dtype=float))))
    best = None
    for tau in taus:
        a_t = extrapolate(a_half, a_prev, tau, anchor_first=True)
        x_t = extrapolate(x_half, x_prev, tau)
        q = float(objective_fn(a_t, x_t))
        if best is None or q < best[0]:
            best = (q, a_t, x_t)
    return best[1], best[2]


def acs_run(spec: ConsistencySpec, cfg: SolverConfig, ground_truth=None):
    """Run the full alternating solver on one frame, or on a stack of frames.

    The box ``spec`` is the frame.  Starts from its observation ``spec.y``
    (missing samples zero) and its classic AR fit, then alternates
    coefficient and signal updates for ``cfg.outer_iters`` iterations,
    applying the configured strategy and accelerations.  Returns the final
    coefficients, the reconstructed signal and the trace, a list of one
    ``AcsStep`` per outer iteration.  A stacked spec (one frame per row, with
    a stacked ground truth) is solved in lockstep and gives one row of
    coefficients and signal and one trace per frame, each with the bits of
    its frame solved alone.  A step's ``wall_time`` is its row's share of
    the time since the previous step, or since the call began for step 1
    (which so includes the AR fits and Janssen's band layouts).  Janssen's
    solve and the active-set step run row by row.  A row that diverges,
    whose exact signal step is not finite, or that grows stops the stack
    with a ``SolverError`` that names the first such row and carries its
    trace: the steps finished before the failing one, or up to and
    including the step that grew.
    """
    t_last = time.perf_counter()
    cfg.check_box(spec.variant)
    single = spec.y.ndim == 1
    if single:  # a frame is a stack of one
        spec = ConsistencySpec.stack([spec])
        if ground_truth is not None:
            ground_truth = np.asarray(ground_truth, dtype=float)[None]
    rows = spec.rows()
    step = cfg.signal_step
    if step == "janssen":
        reliable = spec.pinned
        # the band layout depends on the mask and order only: one per row
        lags = [_band_lags(np.flatnonzero(~rel), cfg.order) for rel in reliable]

    x = spec.y.copy()
    # an all-zero start has no autocorrelation to fit; the unit filter is
    # consistent with it (the exact missing-sample solution is then zero)
    unit = np.r_[1.0, np.zeros(cfg.order)]
    coeffs = np.stack([levinson_durbin(row, cfg.order) if np.any(row) else unit
                       for row in x])
    z_coef = None
    z_sig = None
    traces = [[] for _ in rows]

    def signal_step(a, x_cur, z_cur, inner):
        """The signal update, its DR state and each row's banded solves."""
        if step == "janssen":
            x_new = [janssen_signal_update(a_k, y_k, rel, lags=lags_k)
                     for a_k, y_k, rel, lags_k in zip(a, spec.y, reliable, lags)]
            passes = [1] * len(rows)
        elif step == "active_set":
            x_new, passes = zip(*map(active_set_signal_update, a, x_cur, rows))
        else:
            return (*update_signal(a, x_cur, cfg, spec, inner_iters=inner,
                                   state=z_cur), [0] * len(rows))
        for k, row in enumerate(x_new):
            if not np.isfinite(row).all():
                raise SolverError("non-finite signal step", k)
        x_new = np.stack(x_new)
        if cfg.strategy == "glp":
            x_new = glp_rectify(x_new, spec)
        return x_new, z_cur, passes

    for i in range(1, cfg.outer_iters + 1):
        inner = cfg.inner_schedule[i - 1]
        a_prev = coeffs
        x_prev = x
        try:
            a_half, z_coef = update_coefficients(x_prev, coeffs, cfg,
                                                 inner_iters=inner, state=z_coef)
            if "line_search" in cfg.acceleration:
                x_half, z_sig, passes = signal_step(a_half, x_prev, z_sig, inner)
                picks = [line_search(*pair, lambda a_t, x_t, r=row_spec: objective(
                             a_t, x_t, cfg.lambda_c, cfg.lambda_s, r).total, TAU_GRID)
                         for *pair, row_spec in zip(a_half, a_prev, x_half,
                                                    x_prev, rows)]
                coeffs, x = (np.stack(v) for v in zip(*picks))
            else:
                if "extrapolate_coefs" in cfg.acceleration and cfg.outer_iters > 1:
                    tau_c = 2.0 * (cfg.outer_iters - i) / (cfg.outer_iters - 1)
                    coeffs = extrapolate(a_half, a_prev, tau_c, anchor_first=True)
                else:
                    coeffs = a_half
                x_half, z_sig, passes = signal_step(coeffs, x_prev, z_sig, inner)
                if "extrapolate_signal" in cfg.acceleration and cfg.outer_iters > 1:
                    tau_s = (cfg.outer_iters - i) / (cfg.outer_iters - 1)
                    x = extrapolate(x_half, x_prev, tau_s)
                else:
                    x = x_half
        except SolverError as err:
            err.trace = traces[err.row]
            raise
        now = time.perf_counter()
        wall = (now - t_last) / len(rows)
        t_last = now
        for k, (trace, row_spec) in enumerate(zip(traces, rows)):
            value = objective(coeffs[k], x[k], cfg.lambda_c, cfg.lambda_s, row_spec)
            change = float(np.linalg.norm(coeffs[k] - a_prev[k])
                           / np.linalg.norm(coeffs[k]))
            trace.append(AcsStep(
                i, value.total, value.residual_term, value.coef_term,
                value.signal_term, inner, wall, change,
                None if ground_truth is None else sdr(ground_truth[k], x[k]),
                passes[k]))
            magnitude = float(np.max(np.abs(coeffs[k])))
            if magnitude > COEF_GROWTH_LIMIT:
                raise SolverError(
                    "the model is growing disproportionately (consider "
                    f"lambda_c > 0): coefficient magnitude {magnitude:.3g} "
                    f"exceeds {COEF_GROWTH_LIMIT:g}", k, trace)
    if single:
        return coeffs[0], x[0], traces[0]
    return coeffs, x, traces
