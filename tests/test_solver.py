import dataclasses
import math
import pickle
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regar.solver as solver_mod
from oracles import (build_toeplitz, copy_douglas_rachford,
                     dense_janssen_signal_update, dense_update_coefficients,
                     dense_update_signal)
from regar.armodel import (objective, random_stable_ar, reflection_to_ar,
                           residual, simulate_ar)
from regar.degrade import hard_clip
from regar.fastops import circulant_embed_filter, circulant_quadratic_prox, extend
from regar.metrics import consistency_distance
from regar.pipeline import DegradationModel, reconstruct_channel
from regar.prox import (ConsistencySpec, project_consistency,
                        prox_signal_penalty, soft_threshold)
from regar.solver import (AcsStep, SolverConfig, SolverError, acs_run,
                          douglas_rachford, extrapolate, glp_rectify,
                          janssen_signal_update, line_search,
                          progressive_schedule, update_coefficients,
                          update_signal)


def make_config(**kwargs):
    base = dict(order=4, strategy="declip", outer_iters=1, inner_iters=200)
    base.update(kwargs)
    return SolverConfig(**base)


def one_shot(update):
    """An update in the dense oracles' call shape: ``cfg.inner_schedule[-1]``
    iterations from the given start, result only (cfg is argument 3 of both)."""
    return lambda *args: update(*args, inner_iters=args[2].inner_schedule[-1])[0]


# ---------------------------------------------------------------- DRA core

def test_dra_projection_onto_point():
    c = np.array([1.0, -2.0, 0.5])
    out, _ = douglas_rachford([1.0], 3, lambda h, out: np.copyto(out, c),
                              np.zeros(3), 1.0, iters=1)
    np.testing.assert_array_equal(out, c)


def test_dra_quadratic_plus_zero():
    # 1/2 ||u - b||^2 with no regularizer: the identity filter, offset -b
    b = np.array([0.3, -0.8, 2.0, 0.0])
    out, _ = douglas_rachford([1.0], 4, lambda h, out: np.copyto(out, h),
                              np.zeros(4), 1.0, iters=300, offset=-b)
    np.testing.assert_allclose(out, b, atol=1e-10)


def ista_lasso(T, b, t, tol=1e-14, max_iters=2_000_000):
    """Independent proximal-gradient oracle for 1/2||Tu-b||^2 + t||u||_1."""
    step = 1.0 / np.linalg.norm(T, 2) ** 2
    u = np.zeros(T.shape[1])
    for _ in range(max_iters):
        grad = T.T @ (T @ u - b)
        u_new = soft_threshold(u - step * grad, step * t)
        if np.linalg.norm(u_new - u) <= tol:
            return u_new
        u = u_new
    return u


def test_dra_matches_ista_on_lasso():
    rng = np.random.default_rng(0)
    filt = rng.standard_normal(5)
    b = rng.standard_normal(12)
    t = 0.3
    u_dra, _ = douglas_rachford(filt, 8,
                                lambda h, out: soft_threshold(h, t, out=out),
                                np.zeros(8), 1.0, iters=2000, offset=-b)
    u_ref = ista_lasso(build_toeplitz(filt, 8), b, t)
    assert np.linalg.norm(u_dra - u_ref) / np.linalg.norm(u_ref) <= 1e-6


def test_dra_divergence_raises_with_iteration():
    with pytest.raises(SolverError,
                       match="^non-finite iterate at inner iteration 1 in row 0$") as err:
        douglas_rachford([1.0], 2, lambda h, out: np.copyto(out, h),
                         np.array([np.nan, 1.0]), 1.0, iters=10)
    assert (err.value.reason, err.value.row, err.value.trace) == (
        "non-finite iterate at inner iteration 1", 0, None)


def test_dra_validation():
    ident = lambda h, out: np.copyto(out, h)
    with pytest.raises(ValueError):
        douglas_rachford([1.0], 2, ident, np.zeros(2), 0.0, iters=5)
    with pytest.raises(ValueError):
        douglas_rachford([1.0], 2, ident, np.zeros(2), 1.0, iters=0)
    with pytest.raises(TypeError):  # iters is keyword-only
        douglas_rachford([1.0], 2, ident, np.zeros(2), 1.0, 5)


def test_dra_iterates_become_cauchy():
    # the DR operator is firmly nonexpansive, so the fixed-point residual
    # ||z_{k+1} - z_k|| never grows (the u-side differences need not shrink)
    rng = np.random.default_rng(4)
    filt = rng.standard_normal(5)
    b = rng.standard_normal(10)
    clip = lambda h, out: np.clip(h, -0.5, 0.5, out=out)
    zs = [np.zeros(6)]
    for _ in range(60):
        zs.append(douglas_rachford(filt, 6, clip, zs[-1], 1.0, iters=1,
                                   offset=-b)[1])
    diffs = [np.linalg.norm(zs[k + 1] - zs[k]) for k in range(1, len(zs) - 1)]
    for k in range(len(diffs) - 1):
        assert diffs[k + 1] <= diffs[k] * (1.0 + 1e-12) + 1e-16


def zero_tail(head_prox, n_head: int):
    """The allocating copy's prox_g: head_prox on the head, zero tail."""
    def prox_g(v, g):
        out = np.zeros_like(v)
        head_prox(v[..., :n_head], out[..., :n_head])
        return out
    return prox_g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.integers(1, 8), n_head=st.integers(1, 40),
       g_kind=st.sampled_from(["soft", "box", "identity", "poison"]),
       with_offset=st.booleans(), head_start=st.booleans(),
       gamma=st.floats(0.05, 5.0), k=st.integers(1, 30), m=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1))
@example(q=3, n_head=20, g_kind="identity", with_offset=True, head_start=False,
         gamma=1.0, k=5, m=7, seed=1)
@example(q=3, n_head=20, g_kind="poison", with_offset=False, head_start=True,
         gamma=1.0, k=12, m=1, seed=2)
def test_dr_loop_matches_the_allocating_copy(q, n_head, g_kind, with_offset,
                                             head_start, gamma, k, m, seed):
    # the kernel writes into its buffers; every iterate, the returned state
    # and the divergence iteration must equal the generic allocating DR run
    # on the same prox pair byte for byte
    rng = np.random.default_rng(seed)
    filt = rng.standard_normal(q)
    op = circulant_embed_filter(filt, n_head)
    offset = rng.standard_normal(op.L) if with_offset else None
    quad = circulant_quadratic_prox(op, gamma, offset)
    poison_at = int(rng.integers(1, k + m + 1))
    calls = []

    def poison(h, out):  # writes a NaN from the poison_at-th call of a run on
        calls.append(None)
        np.copyto(out, h)
        if len(calls) >= poison_at:
            out[..., -1] = np.nan

    head_prox = {
        "soft": lambda h, out: soft_threshold(h, 0.1 * gamma, out=out),
        "box": lambda h, out: np.clip(h, -0.5, 0.5, out=out),
        "identity": lambda h, out: np.copyto(out, h),
        "poison": poison}[g_kind]
    z0 = rng.standard_normal(n_head if head_start else op.L)

    def kernel(z, iters):
        return douglas_rachford(filt, n_head, head_prox, z, gamma, iters=iters,
                                offset=offset)

    def copy(z, iters):
        u, z = copy_douglas_rachford(lambda v, g: quad(v),
                                     zero_tail(head_prox, n_head),
                                     extend(z, op.L), gamma, iters)
        return u[:n_head], z

    def run(loop):
        calls.clear()
        try:
            u1, z1 = loop(z0, k)
            u2, z2 = loop(z1, m)
            u3, z3 = loop(z0, k + m)
        except SolverError as err:
            return str(err)
        # read after every call, so a write into a returned or passed-in
        # array shows as well
        return [a.tobytes() for a in (u1, z1, u2, z2, u3, z3, z0)]

    product = run(kernel)
    assert product == run(copy)
    if g_kind != "poison":
        assert isinstance(product, list)
    else:  # in the first call, or else in the second
        at = poison_at if poison_at <= k else poison_at - k
        assert product == f"non-finite iterate at inner iteration {at} in row 0"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 5), q=st.integers(1, 8), n_head=st.integers(1, 40),
       g_kind=st.sampled_from(["soft", "penalty"]), with_offset=st.booleans(),
       k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_stacked_dr_loop_matches_the_allocating_copy_per_row(
        rows, q, n_head, g_kind, with_offset, k, seed):
    # one filter and step per row: every row must have the bytes of the
    # allocating 1-D copy on its own prox pair
    rng = np.random.default_rng(seed)
    filt = rng.standard_normal((rows, q))
    op = circulant_embed_filter(filt, n_head)
    gamma = rng.uniform(0.05, 5.0, size=(rows, 1))
    offset = rng.standard_normal((rows, op.L)) if with_offset else None
    y = rng.standard_normal((rows, n_head))
    spec = ConsistencySpec.stack([ConsistencySpec.dequant(r, 0.5) for r in y])
    z0 = rng.standard_normal((rows, op.L))

    def head_prox(h, g, row_spec, out):
        if g_kind == "soft":
            return soft_threshold(h, 0.1 * g, out=out)
        return prox_signal_penalty(h, 10.0 * g, row_spec, out=out)

    got_u, got_z = douglas_rachford(
        filt, n_head, lambda h, out: head_prox(h, gamma, spec, out),
        z0, gamma, iters=k, offset=offset)
    for r, row_spec in enumerate(spec.rows()):
        g_r = float(gamma[r, 0])
        quad_r = circulant_quadratic_prox(
            circulant_embed_filter(filt[r], n_head), g_r,
            None if offset is None else offset[r])
        want_u, want_z = copy_douglas_rachford(
            lambda v, g: quad_r(v),
            zero_tail(lambda h, out: head_prox(h, g_r, row_spec, out), n_head),
            z0[r], g_r, k)
        assert (got_u[r].tobytes(), got_z[r].tobytes()) == \
            (want_u[:n_head].tobytes(), want_z.tobytes())


def test_dr_divergence_in_one_row_stops_the_stack():
    z0 = np.ones((3, 4))
    z0[1, 2] = np.nan
    with pytest.raises(SolverError,
                       match="inner iteration 1 in row 1$") as err:
        douglas_rachford(np.ones((3, 1)), 4, lambda h, out: np.copyto(out, h),
                         z0, np.ones((3, 1)), iters=10)
    assert (err.value.reason, err.value.row) == (
        "non-finite iterate at inner iteration 1", 1)


# ------------------------------------------------------- coefficient update

def constrained_least_squares(x, p):
    """Oracle: minimize ||X a||, a_1 = 1, on the zero-padded system."""
    X = build_toeplitz(np.asarray(x, dtype=float), p + 1)
    free, *_ = np.linalg.lstsq(X[:, 1:], -X[:, 0], rcond=None)
    return np.concatenate(([1.0], free))


# accel0 is the dense Toeplitz oracle, accel1 the circulant kernel
@pytest.mark.parametrize("update", [dense_update_coefficients,
                                    one_shot(update_coefficients)],
                         ids=["accel0", "accel1"])
def test_update_coefficients_matches_least_squares(update):
    x = np.array([1.0, 1.0, 1.0, 1.0])
    cfg = make_config(order=1, lambda_c=0.0, inner_iters=3000)
    got = update(x, np.array([1.0, 0.0]), cfg)
    np.testing.assert_allclose(got, constrained_least_squares(x, 1), atol=1e-9)
    np.testing.assert_allclose(got, [1.0, -0.75], atol=1e-9)


def test_update_coefficients_recovers_ar2():
    rng = np.random.default_rng(11)
    a_true = reflection_to_ar([0.6, -0.4])
    x = simulate_ar(a_true, 4096, rng)
    cfg = make_config(order=2, lambda_c=0.0, inner_iters=1000,
                      acceleration=frozenset())
    got = one_shot(update_coefficients)(x, np.array([1.0, 0.0, 0.0]), cfg)
    assert np.max(np.abs(got - a_true)) <= 0.05


def test_update_coefficients_large_penalty_zeroes_free_part():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(64)
    cfg = make_config(order=3, lambda_c=1e9, inner_iters=200)
    got = one_shot(update_coefficients)(x, np.r_[1.0, np.zeros(3)], cfg)
    np.testing.assert_array_equal(got, [1.0, 0.0, 0.0, 0.0])


def test_update_coefficients_order_zero_and_validation():
    cfg = make_config(order=0)
    got, state = update_coefficients(np.ones(8), np.ones(1), cfg, inner_iters=200)
    np.testing.assert_array_equal(got, [1.0])
    assert state is None
    with pytest.raises(ValueError):
        one_shot(update_coefficients)(np.ones(8), np.ones(1), make_config(order=2))


# ------------------------------------------------------------ signal update

def test_update_signal_point_constraint():
    y = np.array([0.4, -0.2, 0.9])
    spec = ConsistencySpec.inpaint(y, np.ones(3, dtype=bool))
    cfg = make_config(order=0, strategy="inpaint", lambda_s=math.inf,
                      inner_iters=50)
    x = one_shot(update_signal)([1.0], np.zeros(3), cfg, spec)
    np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("update", [dense_update_signal, one_shot(update_signal)],
                         ids=["accel0", "accel1"])
def test_update_signal_minimum_norm_feasible(update):
    y = np.array([0.1, 0.5, -0.5, 0.2])
    spec = ConsistencySpec.declip(y, 0.5)
    cfg = make_config(order=0, lambda_s=math.inf, inner_iters=500)
    x = update([1.0], y.copy(), cfg, spec)
    np.testing.assert_allclose(x, [0.1, 0.5, -0.5, 0.2], atol=1e-12)


def test_update_signal_matches_dense_oracle_dra():
    rng = np.random.default_rng(3)
    a = reflection_to_ar([0.5, -0.3])
    n = 24
    y = np.clip(rng.uniform(-1, 1, size=n), -0.4, 0.4)
    spec = ConsistencySpec.declip(y, 0.4)
    cfg = make_config(order=2, lambda_s=10.0, inner_iters=6000,
                      acceleration=frozenset())
    got = one_shot(update_signal)(a, y.copy(), cfg, spec)

    # independent oracle: DRA on the materialized Toeplitz system, same
    # effective step as the implementation (the minimizer is step-independent)
    T = build_toeplitz(a, n)
    gamma = 1.0 / float(a @ a)
    sys = np.eye(n) + gamma * (T.T @ T)
    prox_f = lambda v, g: np.linalg.solve(sys, v)
    prox_g = lambda v, g: prox_signal_penalty(v, g * 10.0, spec)
    oracle, _ = copy_douglas_rachford(prox_f, prox_g, y.copy(), gamma, 6000)
    assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) <= 1e-8


def test_update_signal_validation():
    spec = ConsistencySpec.dequant(np.zeros(4), 0.5)
    with pytest.raises(ValueError):
        one_shot(update_signal)([2.0], np.zeros(4), make_config(order=0), spec)
    with pytest.raises(ValueError):
        one_shot(update_signal)([1.0], np.zeros(3), make_config(order=0), spec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.integers(1, 6), extra=st.integers(2, 40), k=st.integers(1, 15),
       m=st.integers(1, 15), lambda_c=st.sampled_from([0.0, 0.05]),
       lambda_s=st.sampled_from([10.0, math.inf]),
       variant=st.sampled_from(["declip", "dequant", "inpaint"]),
       seed=st.integers(0, 2**32 - 1))
def test_warm_start_continues_exactly_property(p, extra, k, m, lambda_c, lambda_s,
                                               variant, seed):
    # k iterations, then m more from the returned DR state, are the same
    # iterations as k + m in one call, so every byte agrees
    rng = np.random.default_rng(seed)
    n = p + extra
    a = random_stable_ar(p, rng)
    x = rng.uniform(-1.0, 1.0, size=n)
    if variant == "declip":
        spec = ConsistencySpec.declip(np.clip(x, -0.5, 0.5), 0.5)
    elif variant == "dequant":
        spec = ConsistencySpec.dequant(np.round(4.0 * x) / 4.0, 0.25)
    else:
        reliable = rng.random(n) < 0.7
        spec = ConsistencySpec.inpaint(np.where(reliable, x, 0.0), reliable)
    cfg = make_config(order=p, lambda_c=lambda_c, lambda_s=lambda_s)
    a0 = np.r_[1.0, np.zeros(p)]

    head, z = update_coefficients(x, a0, cfg, inner_iters=k)
    split = update_coefficients(x, head, cfg, inner_iters=m, state=z)
    whole = update_coefficients(x, a0, cfg, inner_iters=k + m)
    np.testing.assert_array_equal(split[0], whole[0])
    np.testing.assert_array_equal(split[1], whole[1])

    head, z = update_signal(a, spec.y, cfg, spec, inner_iters=k)
    split = update_signal(a, head, cfg, spec, inner_iters=m, state=z)
    whole = update_signal(a, spec.y, cfg, spec, inner_iters=k + m)
    np.testing.assert_array_equal(split[0], whole[0])
    np.testing.assert_array_equal(split[1], whole[1])


def test_stacked_updates_match_the_dense_oracles_per_row():
    # criterion 03 run on stacks: each row of a stacked update against the
    # dense Toeplitz DR of that row, at the criterion's bound
    rng = np.random.default_rng(21)
    p, n, rows = 4, 48, 3
    a_true = random_stable_ar(p, rng)
    x = np.stack([simulate_ar(a_true, n, rng) * scale for scale in (1.0, 0.01, 30.0)])
    y = np.stack([hard_clip(row, 0.4 * np.max(np.abs(row))).y for row in x])
    specs = [ConsistencySpec.declip(row, np.max(np.abs(row))) for row in y]
    stack = ConsistencySpec.stack(specs)
    a_rows = np.stack([a_true] * rows)
    worst = 0.0
    for lam_s in (10.0, math.inf):
        cfg = make_config(order=p, lambda_s=lam_s, inner_iters=4000)
        fast, _ = update_signal(a_rows, y, cfg, stack, inner_iters=4000)
        for r in range(rows):
            dense = dense_update_signal(a_true, y[r].copy(), cfg, specs[r])
            worst = max(worst, np.linalg.norm(dense - fast[r]) / np.linalg.norm(dense))
    a0 = np.stack([np.r_[1.0, np.zeros(p)]] * rows)
    for lam_c in (0.01,):
        cfg = make_config(order=p, lambda_c=lam_c, inner_iters=4000)
        fast, _ = update_coefficients(x, a0, cfg, inner_iters=4000)
        for r in range(rows):
            dense = dense_update_coefficients(x[r], a0[r], cfg)
            worst = max(worst, np.linalg.norm(dense - fast[r]) / np.linalg.norm(dense))
    assert worst <= 1e-6


# ----------------------------------------------------------------- Janssen

def noiseless_ar4():
    a = reflection_to_ar([0.9, -0.7, 0.5, -0.3])
    rng = np.random.default_rng(4)
    x = np.zeros(512)
    x[:4] = rng.standard_normal(4)
    for i in range(4, 512):
        x[i] = -(a[1:] @ x[i - 4: i][::-1])
    return a, x


def test_janssen_trivial_cases():
    y = np.array([0.3, -0.1, 0.7])
    np.testing.assert_array_equal(
        janssen_signal_update([1.0], y, np.ones(3, dtype=bool)), y)
    out = janssen_signal_update([1.0], np.zeros(3), np.zeros(3, dtype=bool))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_janssen_recovers_noiseless_gap():
    a, x = noiseless_ar4()
    reliable = np.ones(512, dtype=bool)
    reliable[246:266] = False
    y = np.where(reliable, x, 0.0)
    rec = janssen_signal_update(a, y, reliable)
    gap_err = np.linalg.norm(rec[246:266] - x[246:266])
    assert gap_err <= 1e-6 * np.linalg.norm(x[246:266])


def test_janssen_perturbation_increases_residual():
    a, x = noiseless_ar4()
    reliable = np.ones(512, dtype=bool)
    reliable[100:140] = False
    rec = janssen_signal_update(a, np.where(reliable, x, 0.0), reliable)
    e = residual(a, rec)
    base = e @ e
    for idx in (100, 120, 139):
        for delta in (1e-3, -1e-3):
            perturbed = rec.copy()
            perturbed[idx] += delta
            ep = residual(a, perturbed)
            assert ep @ ep > base


def _janssen_mask(family, n, rng):
    reliable = np.ones(n, dtype=bool)
    if family == "scattered":
        reliable = rng.random(n) >= rng.uniform(0.05, 0.95)
    elif family == "gaps":
        for _ in range(rng.integers(1, 4)):
            start = rng.integers(0, n)
            reliable[start: start + rng.integers(1, n // 2 + 2)] = False
    elif family == "one":
        reliable[rng.integers(0, n)] = False
    elif family == "all":
        reliable[:] = False
    return reliable


@settings(max_examples=80, deadline=None, derandomize=True)
@given(p=st.integers(0, 40), extra=st.integers(1, 300),
       tail_l1=st.floats(0.0, 0.9),
       family=st.sampled_from(["scattered", "gaps", "one", "all", "none"]),
       seed=st.integers(0, 2**32 - 1))
def test_janssen_banded_matches_dense_property(p, extra, tail_l1, family, seed):
    # ||a_tail||_1 <= 0.9 keeps |A(e^iw)| in [0.1, 1.9], so the Gram matrix
    # has condition number <= 361 and the two factorizations agree to rounding
    rng = np.random.default_rng(seed)
    tail = rng.standard_normal(p)
    if p:
        tail *= tail_l1 / np.abs(tail).sum()
    a = np.concatenate(([1.0], tail))
    n = p + extra
    reliable = _janssen_mask(family, n, rng)
    y = np.where(reliable, rng.standard_normal(n), 0.0)
    fast = janssen_signal_update(a, y, reliable)
    dense = dense_janssen_signal_update(a, y, reliable)
    np.testing.assert_array_equal(fast[reliable], y[reliable])
    assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)
    # the band index built once per run gives the one-shot call's bits
    lags = solver_mod._band_lags(np.flatnonzero(~reliable), p)
    assert janssen_signal_update(a, y, reliable, lags=lags).tobytes() == \
        fast.tobytes()


# --------------------------------------------------------------------- GLP

def test_glp_rectify_flip_formula():
    y = np.array([0.2, 0.5, -0.5])
    spec = ConsistencySpec.declip(y, 0.5)
    out = glp_rectify(np.array([0.9, 0.4, -0.8]), spec)
    np.testing.assert_allclose(out, [0.2, 0.6, -0.8])


def test_glp_rectify_feasible_input_only_restores_reliable():
    y = np.array([0.2, 0.5, -0.5])
    spec = ConsistencySpec.declip(y, 0.5)
    x = np.array([0.3, 0.7, -0.6])  # feasible except the reliable entry
    out = glp_rectify(x, spec)
    np.testing.assert_array_equal(out, [0.2, 0.7, -0.6])


def test_glp_rectify_always_feasible():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 64))
        theta = float(rng.uniform(0.2, 0.9))
        y = hard_clip(rng.uniform(-2, 2, size=n), theta).y
        spec = ConsistencySpec.declip(y, theta)
        out = glp_rectify(rng.uniform(-3, 3, size=n), spec)
        np.testing.assert_array_equal(project_consistency(out, spec), out)


def test_glp_rectify_needs_declip_spec():
    with pytest.raises(ValueError):
        glp_rectify(np.zeros(4), ConsistencySpec.dequant(np.zeros(4), 0.5))


# ------------------------------------------------------------ accelerations

def test_progressive_schedule_anchors():
    sched = progressive_schedule(2, 3, 10)
    assert sched[0] == 100 and sched[-1] == 1000
    assert len(sched) == 10
    assert np.all(np.diff(sched) > 0)


def test_progressive_schedule_edges():
    np.testing.assert_array_equal(progressive_schedule(2, 2, 5), [100] * 5)
    np.testing.assert_array_equal(progressive_schedule(1, 3, 2), [10, 1000])
    np.testing.assert_array_equal(progressive_schedule(1, 3, 1), [1000])
    with pytest.raises(ValueError):
        progressive_schedule(1, 2, 0)


@pytest.mark.parametrize("n1, n_last, outer", [(1, 20, 3), (math.nan, 2, 3),
                                               (1, 400, 3), (1, 400, 1)])
def test_progressive_schedule_rejects_counts_an_int64_cannot_hold(n1, n_last,
                                                                  outer):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"exponents {n1}, {n_last}"):
            progressive_schedule(n1, n_last, outer)


def test_extrapolate():
    u_half = np.array([1.0, 2.0])
    u_prev = np.array([0.0, 1.0])
    np.testing.assert_array_equal(extrapolate(u_half, u_prev, 0.0), u_half)
    np.testing.assert_array_equal(extrapolate(u_half, u_prev, 1.0), [2.0, 3.0])
    anchored = extrapolate(np.array([1.0, 2.0]), np.array([1.0, 0.5]), 0.37,
                           anchor_first=True)
    assert anchored[0] == 1.0
    with pytest.raises(ValueError):
        extrapolate(u_half, u_prev, -0.1)


def test_line_search_trivial_grid():
    a_half = np.array([1.0, 0.5])
    x_half = np.array([0.2, 0.3])
    a_prev = np.array([1.0, 0.0])
    x_prev = np.array([0.0, 0.0])
    q = lambda a, x: float(x @ x)
    a_out, x_out = line_search(a_half, a_prev, x_half, x_prev, q, [])
    np.testing.assert_array_equal(a_out, a_half)
    np.testing.assert_array_equal(x_out, x_half)


def test_line_search_finds_grid_minimum():
    # quadratic in tau minimized at tau = 1; candidates sampled on the grid
    a_prev = np.array([1.0, 0.0])
    a_half = np.array([1.0, 0.5])
    x_prev = np.array([0.0])
    x_half = np.array([1.0])
    target = 2.0  # x(tau) = (1 + tau); distance to 2 minimized at tau = 1
    q = lambda a, x: float((x[0] - target) ** 2)
    grid = np.logspace(-4, 2, 25)
    a_out, x_out = line_search(a_half, a_prev, x_half, x_prev, q, grid)
    taus = np.concatenate(([0.0], grid))
    best = taus[np.argmin((1.0 + taus - target) ** 2)]
    assert x_out[0] == pytest.approx(1.0 + best)


def test_line_search_never_worse():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = 3
        a_prev = np.concatenate(([1.0], rng.standard_normal(p)))
        a_half = np.concatenate(([1.0], rng.standard_normal(p)))
        x_prev = rng.standard_normal(16)
        x_half = rng.standard_normal(16)
        q = lambda a, x: float(a @ a + x @ x + np.sin(x[0]))
        a_out, x_out = line_search(a_half, a_prev, x_half, x_prev, q,
                                   np.logspace(-4, 2, 25))
        assert q(a_out, x_out) <= q(a_half, x_half)


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        make_config(strategy="magic")
    with pytest.raises(ValueError):
        make_config(outer_iters=0)
    with pytest.raises(ValueError):
        make_config(acceleration=frozenset({"warp"}))
    with pytest.raises(ValueError):
        make_config(acceleration=frozenset({"fft"}))
    with pytest.raises(ValueError):
        make_config(acceleration=frozenset({"line_search", "extrapolate_signal"}))
    with pytest.raises(ValueError):
        make_config(outer_iters=2, inner_iters=(10,))
    with pytest.raises(ValueError):
        make_config(outer_iters=1, inner_iters=(0,))
    with pytest.raises(ValueError):
        make_config(gamma_c=0.0)
    with pytest.raises(ValueError):
        make_config(lambda_c=-1.0)
    with pytest.raises(ValueError, match="integers"):
        make_config(inner_iters=2.9)
    with pytest.raises(ValueError, match="integers"):
        make_config(outer_iters=2, inner_iters=(1.5, 3.7))
    with pytest.raises(ValueError, match="integers"):
        make_config(outer_iters=2.0)
    cfg = make_config(outer_iters=3, inner_iters=7)
    assert cfg.inner_schedule == (7, 7, 7)


def test_inner_iters_is_the_only_inner_setting():
    # a constant count follows outer_iters; a schedule is stored as ints
    cfg = make_config(outer_iters=2, inner_iters=7)
    assert dataclasses.replace(cfg, outer_iters=3).inner_schedule == (7, 7, 7)
    scheduled = make_config(outer_iters=3, inner_iters=progressive_schedule(1, 2, 3))
    assert scheduled.inner_iters == scheduled.inner_schedule == (10, 32, 100)
    assert all(type(n) is int for n in scheduled.inner_iters)
    with pytest.raises(ValueError, match="length"):
        dataclasses.replace(scheduled, outer_iters=2)
    with pytest.raises(TypeError):
        make_config(inner_schedule=(7,))


@pytest.mark.parametrize("weight", ["lambda_c", "lambda_s"])
def test_config_rejects_nan_weight(weight):
    with pytest.raises(ValueError, match="nonnegative"):
        make_config(**{weight: math.nan})


@pytest.mark.parametrize("step", ["gamma_c", "gamma_s"])
def test_config_rejects_infinite_step(step):
    with pytest.raises(ValueError, match="positive and finite"):
        make_config(**{step: math.inf})


# ----------------------------------------------------------------- acs_run

def clipped_instance(seed, n=128, p=4, theta=0.3):
    rng = np.random.default_rng(seed)
    x = simulate_ar(random_stable_ar(p, rng), n, rng)
    x = x / np.max(np.abs(x))
    obs = hard_clip(x, theta)
    spec = ConsistencySpec.declip(obs.y, obs.theta)
    return x, obs, spec


def test_acs_inpaint_without_missing_returns_observation():
    y = np.array([0.5, -0.2, 0.1, 0.4, -0.3, 0.2, 0.05, -0.15])
    spec = ConsistencySpec.inpaint(y, np.ones(8, dtype=bool))
    cfg = SolverConfig(order=2, strategy="inpaint", outer_iters=1, inner_iters=50)
    _, x, trace = acs_run(spec, cfg)
    np.testing.assert_array_equal(x, y)
    assert len(trace) == 1


def test_acs_consistent_declipping_stays_feasible():
    x_true, obs, spec = clipped_instance(7)
    cfg = SolverConfig(order=4, strategy="declip", lambda_c=1e-3,
                       lambda_s=math.inf, outer_iters=4, inner_iters=300,
                       acceleration=frozenset())
    _, x, trace = acs_run(spec, cfg, ground_truth=x_true)
    assert consistency_distance(x, spec) == 0.0
    assert all(e.signal_term == 0.0 for e in trace)
    assert all(e.sdr_db is not None for e in trace)


def test_acs_objective_nonincreasing_small():
    x_true, obs, spec = clipped_instance(8, n=128, p=4)
    cfg = SolverConfig(order=4, strategy="declip", lambda_c=1e-3,
                       lambda_s=math.inf, outer_iters=6, inner_iters=500,
                       acceleration=frozenset())
    _, _, trace = acs_run(spec, cfg)
    q = np.array([e.objective for e in trace])
    assert np.all(np.diff(q) <= 1e-6 * q[0])


def test_acs_strategies_improve_clipped_signal():
    # moderate clipping: at heavy clipping only the constrained strategies
    # are reliable, which matches the reference comparisons
    x_true, obs, spec = clipped_instance(9, n=512, p=8, theta=0.5)
    for strategy in ("inpaint", "glp", "declip"):
        cfg = SolverConfig(order=8, strategy=strategy, lambda_c=1e-3,
                           lambda_s=math.inf, outer_iters=4, inner_iters=300,
                           acceleration=frozenset())
        _, x, _ = acs_run(spec, cfg, ground_truth=x_true)
        err_in = np.linalg.norm(x_true - obs.y)
        err_out = np.linalg.norm(x_true - x)
        assert err_out < err_in


def test_acs_glp_output_is_feasible():
    _, obs, spec = clipped_instance(10, n=256, p=4)
    cfg = SolverConfig(order=4, strategy="glp", outer_iters=3, inner_iters=200,
                       acceleration=frozenset())
    _, x, _ = acs_run(spec, cfg)
    np.testing.assert_array_equal(project_consistency(x, spec), x)


@pytest.mark.parametrize("strategy", ["glp", "inpaint"])
def test_acs_builds_the_band_index_once_per_row(monkeypatch, strategy):
    # three outer iterations solve each of the two rows three times, from
    # one band index per row
    builds, solves = [], []
    real_build, real_solve = solver_mod._band_lags, solver_mod.janssen_signal_update
    monkeypatch.setattr(solver_mod, "_band_lags",
                        lambda *args: builds.append(1) or real_build(*args))
    monkeypatch.setattr(solver_mod, "janssen_signal_update",
                        lambda *args, **kw: solves.append(1) or real_solve(*args, **kw))
    specs = [clipped_instance(seed, n=64, p=4)[2] for seed in (14, 15)]
    if strategy == "inpaint":
        specs = [ConsistencySpec.inpaint(s.y, s.pinned) for s in specs]
    stack = ConsistencySpec.stack(specs)
    cfg = SolverConfig(order=4, strategy=strategy, outer_iters=3, inner_iters=20)
    acs_run(stack, cfg)
    assert (len(builds), len(solves)) == (2, 6)


def test_glp_rectifies_the_stack_once_per_outer_iteration(monkeypatch):
    shapes = []
    real = solver_mod.glp_rectify
    monkeypatch.setattr(solver_mod, "glp_rectify",
                        lambda x, spec: shapes.append(x.shape) or real(x, spec))
    stack = ConsistencySpec.stack([clipped_instance(seed, n=64, p=4)[2]
                                   for seed in (14, 15)])
    acs_run(stack, SolverConfig(order=4, strategy="glp", outer_iters=3,
                                inner_iters=20))
    assert shapes == [(2, 64)] * 3


def test_acs_extrapolation_and_line_search_run():
    x_true, obs, spec = clipped_instance(11, n=128, p=4)
    for accel in ({"extrapolate_signal"}, {"extrapolate_coefs"}, {"line_search"}):
        cfg = SolverConfig(order=4, strategy="declip", lambda_c=1e-3,
                           lambda_s=10.0, outer_iters=3, inner_iters=200,
                           acceleration=frozenset(accel))
        _, x, trace = acs_run(spec, cfg)
        assert np.all(np.isfinite(x))
        assert len(trace) == 3


def test_acs_progressive_schedule_recorded_in_trace():
    _, obs, spec = clipped_instance(12, n=64, p=2)
    schedule = tuple(progressive_schedule(1, 2, 3))
    cfg = SolverConfig(order=2, strategy="declip", lambda_s=math.inf,
                       outer_iters=3, inner_iters=schedule,
                       acceleration=frozenset())
    _, _, trace = acs_run(spec, cfg)
    assert tuple(e.inner_iters for e in trace) == schedule


def test_acs_step_wall_times_split_the_call_from_its_start(monkeypatch):
    # a clock that only the AR fits (1 s each) and the coefficient updates
    # (0.25 s each) advance: step 1 holds the fits, and each step's time is
    # shared by the rows of the stack
    now = [0.0]

    def advancing(fn, seconds):
        def timed(*args, **kwargs):
            now[0] += seconds
            return fn(*args, **kwargs)
        return timed

    monkeypatch.setattr(solver_mod, "time",
                        types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(solver_mod, "levinson_durbin",
                        advancing(solver_mod.levinson_durbin, 1.0))
    monkeypatch.setattr(solver_mod, "update_coefficients",
                        advancing(solver_mod.update_coefficients, 0.25))
    stack = ConsistencySpec.stack([clipped_instance(seed, n=64, p=2)[2]
                                   for seed in (1, 2)])
    _, _, traces = acs_run(stack, SolverConfig(order=2, outer_iters=3,
                                               inner_iters=5))
    assert [[step.wall_time for step in trace] for trace in traces] == \
        [[1.125, 0.125, 0.125]] * 2


def test_acs_spec_strategy_mismatch():
    spec = ConsistencySpec.dequant(np.full(8, 0.25), 0.5)
    cfg = SolverConfig(order=1, strategy="glp", outer_iters=1, inner_iters=10)
    with pytest.raises(ValueError):
        acs_run(spec, cfg)
    cfg = SolverConfig(order=1, strategy="declip", outer_iters=1, inner_iters=10)
    with pytest.raises(ValueError):
        acs_run(spec, cfg)


@pytest.mark.parametrize("strategy", ["inpaint", "glp", "declip", "dequant"])
@pytest.mark.parametrize("variant", ["declip", "dequant", "inpaint"])
def test_strategy_accepts_only_its_spec_variants(strategy, variant):
    accepted = {"inpaint": {"declip", "inpaint"}, "glp": {"declip"},
                "declip": {"declip"}, "dequant": {"dequant"}}
    y = np.array([0.25, -0.75, 0.25, 0.75, -0.25, 0.25, -0.25, 0.75])
    spec = {"declip": lambda: ConsistencySpec.declip(y, 0.75),
            "dequant": lambda: ConsistencySpec.dequant(y, 0.5),
            "inpaint": lambda: ConsistencySpec.inpaint(y, y > 0)}[variant]()
    cfg = SolverConfig(order=1, strategy=strategy, outer_iters=1,
                       inner_iters=5)
    if variant in accepted[strategy]:
        assert acs_run(spec, cfg)[1].shape == y.shape
    else:
        with pytest.raises(ValueError):
            acs_run(spec, cfg)


_STACK_ACCEL = {"none": {}, "extrapolate": {"acceleration": frozenset(
    {"extrapolate_signal", "extrapolate_coefs"})},
    "line_search": {"acceleration": frozenset({"line_search"})}}


def _stack_frames(strategy, rows, n, zero_row, rng):
    """Clean frames of very different energy and the specs (one variant) of
    their observations; row ``zero_row`` (if any) observes only zeros."""
    a = random_stable_ar(3, rng)
    clean = np.stack([simulate_ar(a, n, rng) * 10.0 ** rng.uniform(-3, 3)
                      for _ in range(rows)])
    observed = clean.copy()
    if zero_row is not None:
        observed[zero_row % rows] = 0.0
    specs = []
    for row in observed:
        peak = float(np.max(np.abs(row))) or 1.0
        if strategy == "dequant":
            delta = peak / 4.0
            specs.append(ConsistencySpec.dequant(np.round(row / delta) * delta, delta))
        elif strategy == "inpaint":
            reliable = rng.random(n) > 0.25
            specs.append(ConsistencySpec.inpaint(np.where(reliable, row, 0.0), reliable))
        else:
            specs.append(ConsistencySpec.declip(hard_clip(row, 0.5 * peak).y,
                                                0.5 * peak))
    return clean, specs


def _solve(spec, cfg, truth):
    try:
        return acs_run(spec, cfg, ground_truth=truth)
    except SolverError as err:
        return err


def _untimed(trace):
    return [repr(dataclasses.replace(e, wall_time=0.0)) for e in trace]


@pytest.mark.parametrize("accel", list(_STACK_ACCEL))
@pytest.mark.parametrize("strategy", ["declip", "dequant", "inpaint", "glp"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(rows=st.integers(1, 9), n=st.integers(12, 40),
       zero_row=st.none() | st.integers(0, 8), lambda_s=st.sampled_from([10.0, math.inf]),
       progressive=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(rows=9, n=24, zero_row=4, lambda_s=math.inf, progressive=True, seed=1)
@example(rows=1, n=16, zero_row=None, lambda_s=10.0, progressive=False, seed=2)
def test_stack_solves_every_frame_as_alone(strategy, accel, rows, n, zero_row,
                                           lambda_s, progressive, seed):
    rng = np.random.default_rng(seed)
    clean, specs = _stack_frames(strategy, rows, n, zero_row, rng)
    cfg = SolverConfig(order=3, strategy=strategy, lambda_c=1e-3, lambda_s=lambda_s,
                       outer_iters=3, inner_iters=(4, 9, 20) if progressive else 12,
                       **_STACK_ACCEL[accel])
    stack = ConsistencySpec.stack(specs)
    got = _solve(stack, cfg, clean)
    alone = [_solve(spec, cfg, clean[k]) for k, spec in enumerate(specs)]
    if isinstance(got, SolverError):  # the row that fails first stops the stack
        lone = alone[got.row]
        assert isinstance(lone, SolverError) and lone.reason == got.reason
        assert _untimed(got.trace) == _untimed(lone.trace)
        return
    coeffs, x, traces = got
    assert coeffs.shape == (rows, 4) and x.shape == (rows, n) and len(traces) == rows
    for k, (a_k, x_k, trace_k) in enumerate(alone):
        assert coeffs[k].tobytes() == a_k.tobytes()
        assert x[k].tobytes() == x_k.tobytes()
        assert _untimed(traces[k]) == _untimed(trace_k)


def test_acs_growth_guard_attaches_trace(monkeypatch):
    x_true, obs, spec = clipped_instance(13, n=64, p=2)
    monkeypatch.setattr(solver_mod, "COEF_GROWTH_LIMIT", 1e-12)
    cfg = SolverConfig(order=2, strategy="declip", lambda_s=math.inf,
                       outer_iters=3, inner_iters=50,
                       acceleration=frozenset())
    with pytest.raises(SolverError, match="consider lambda_c > 0.* in row 0$") as err:
        acs_run(spec, cfg)
    assert err.value.row == 0
    assert len(err.value.trace) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_growth_guard_diagnostic_reaches_caller_for_any_worker_count(monkeypatch,
                                                                    workers):
    # pool workers fork after the patch, so they trip the guard as well
    _, obs, _ = clipped_instance(13, n=64, p=2)
    monkeypatch.setattr(solver_mod, "COEF_GROWTH_LIMIT", 1e-12)
    cfg = SolverConfig(order=2, strategy="declip", lambda_s=math.inf,
                       outer_iters=3, inner_iters=50)
    model = DegradationModel(kind="clip", theta=obs.theta)
    with pytest.raises(SolverError, match="coefficient magnitude") as err:
        reconstruct_channel(obs.y, model, cfg, 32, 8, workers=workers)
    assert err.value.row == 0
    assert len(err.value.trace) == 1


def _pickle_round_trip(reason):
    # the error keeps its reason, row and trace across a process boundary,
    # with a trace given at construction or attached after the raise; a
    # trace is a plain list of steps, and it comes back as one
    step = AcsStep(1, 2.5, 2.0, 0.5, 0.0, 10, 0.01, 0.1, sdr_db=12.5)
    for row, trace in ((0, None), (3, []), (2, [step])):
        err = SolverError(reason, row, trace)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SolverError
        assert str(back) == str(err) == f"{reason} in row {row}"
        assert (back.reason, back.row, back.trace) == (reason, row, trace)
        assert type(back.trace) is type(trace)
    err = SolverError(reason, 1)
    err.trace = [step, dataclasses.replace(step, outer_iter=2, objective=2.25)]
    back = pickle.loads(pickle.dumps(err))
    assert (back.row, back.trace) == (1, err.trace) and type(back.trace) is list
    assert [e.objective for e in back.trace] == [2.5, 2.25]


def test_divergence_error_survives_pickling():
    _pickle_round_trip("non-finite iterate at inner iteration 7")


def test_growth_error_survives_pickling():
    _pickle_round_trip("the model is growing disproportionately (consider "
                       "lambda_c > 0): coefficient magnitude 3.5e+07 exceeds 1e+06")
