import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_toeplitz, circulant_matrix, prox_quadratic_dense
from regar.fastops import (CirculantOperator, circulant_embed_filter,
                           circulant_quadratic_prox, extend, next_pow2,
                           prox_regularizer_extended)
from regar.prox import soft_threshold
from regar.solver import douglas_rachford


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1025) == 2048
    with pytest.raises(ValueError):
        next_pow2(0)


def test_identity_filter_embedding():
    op = circulant_embed_filter([1.0], 4)
    np.testing.assert_allclose(op.spectrum, np.ones(3), atol=1e-15)
    v = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_allclose(circulant_matrix(op) @ v, v, atol=1e-14)


def test_embedding_size_and_agreement_example():
    op = circulant_embed_filter([1.0, -1.0], 3)
    assert op.L == 4
    T = build_toeplitz([1.0, -1.0], 3)
    v = np.array([0.3, -0.7, 1.1])
    full = circulant_matrix(op) @ extend(v, op.L)
    np.testing.assert_allclose(full, T @ v, atol=1e-13)


def test_embedding_agrees_with_toeplitz_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = int(rng.integers(1, 9))
        n_head = int(rng.integers(1, 40))
        filt = rng.standard_normal(q)
        v = rng.standard_normal(n_head)
        op = circulant_embed_filter(filt, n_head)
        assert op.L >= n_head + q - 1 and op.L & (op.L - 1) == 0
        full = circulant_matrix(op) @ extend(v, op.L)
        T = build_toeplitz(filt, n_head)
        scale = max(np.linalg.norm(T @ v), 1.0)
        assert np.linalg.norm(full[: n_head + q - 1] - T @ v) <= 1e-12 * scale
        tail = full[n_head + q - 1:]
        if tail.size:
            assert np.max(np.abs(tail)) <= 1e-12 * scale


def test_operator_validation():
    with pytest.raises(ValueError):
        CirculantOperator(spectrum=np.ones(4, dtype=complex), L=4, n_head=4,
                          filter_length=2)


def test_prox_circulant_trivial_cases():
    op = circulant_embed_filter([1.0], 8)
    v = np.arange(8, dtype=float)
    np.testing.assert_allclose(circulant_quadratic_prox(op, 3.0)(v), v / 4.0,
                               atol=1e-14)
    np.testing.assert_allclose(circulant_quadratic_prox(op, 1.0)(np.zeros(8)),
                               np.zeros(8), atol=1e-15)


def test_prox_circulant_matches_dense_circulant():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 9))
        n_head = int(rng.integers(1, 65))
        op = circulant_embed_filter(rng.standard_normal(q), n_head)
        C = circulant_matrix(op)
        v = rng.standard_normal(op.L)
        offset = rng.standard_normal(op.L) if rng.uniform() < 0.5 else None
        gamma = float(rng.uniform(0.05, 5.0))
        fast = circulant_quadratic_prox(op, gamma, offset)(v)
        dense = prox_quadratic_dense(v, gamma, C, offset)
        worst = max(worst, np.linalg.norm(fast - dense) / np.linalg.norm(dense))
    assert worst <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.integers(1, 9), n_head=st.integers(1, 64),
       gamma=st.floats(0.05, 5.0), with_offset=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_prox_circulant_real_and_matches_dense_property(q, n_head, gamma,
                                                        with_offset, seed):
    # the real-FFT closure has no runtime check on its output; this is it
    rng = np.random.default_rng(seed)
    op = circulant_embed_filter(rng.standard_normal(q), n_head)
    v = rng.standard_normal(op.L)
    offset = rng.standard_normal(op.L) if with_offset else None
    fast = circulant_quadratic_prox(op, gamma, offset)(v)
    assert fast.dtype == np.float64 and fast.shape == (op.L,)
    dense = prox_quadratic_dense(v, gamma, circulant_matrix(op), offset)
    assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)


def test_prox_circulant_self_adjoint_positive():
    rng = np.random.default_rng(2)
    op = circulant_embed_filter(rng.standard_normal(5), 20)
    prox = circulant_quadratic_prox(op, 1.7)
    for _ in range(20):
        v = rng.standard_normal(op.L)
        w = rng.standard_normal(op.L)
        pv = prox(v)
        pw = prox(w)
        assert pv @ v >= 0.0
        assert pv @ w == pytest.approx(pw @ v, rel=1e-10, abs=1e-12)


def test_prox_circulant_output_is_real():
    rng = np.random.default_rng(3)
    op = circulant_embed_filter(rng.standard_normal(4), 13)
    out = circulant_quadratic_prox(op, 0.9)(rng.standard_normal(op.L))
    assert out.dtype == np.float64


def test_prox_regularizer_extended():
    u = np.arange(8, dtype=float)
    out = prox_regularizer_extended(u, lambda h: h, 3)
    np.testing.assert_array_equal(out[:3], u[:3])
    np.testing.assert_array_equal(out[3:], np.zeros(5))

    clip = prox_regularizer_extended(u, lambda h: np.clip(h, 0, 1), 4)
    np.testing.assert_array_equal(clip, [0, 1, 1, 1, 0, 0, 0, 0])


def test_extended_dra_shares_minimum_with_dense_toeplitz_dra():
    # lasso-like instance: 1/2 ||T u + c||^2 + t ||u||_1 solved by both routes
    rng = np.random.default_rng(4)
    for _ in range(3):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(8, 33))
        filt = rng.standard_normal(q)
        T = build_toeplitz(filt, n)
        c = rng.standard_normal(n + q - 1)
        t = 0.05
        gamma = 1.0
        v0 = rng.standard_normal(n)

        dense_quad = lambda v, g: prox_quadratic_dense(v, g, T, c)
        thresh = lambda v, g: soft_threshold(v, g * t)
        u_dense = douglas_rachford(dense_quad, thresh, v0, gamma, 4000)

        op = circulant_embed_filter(filt, n)
        c_ext = extend(c, op.L)
        fast_quad = lambda v, g: circulant_quadratic_prox(op, g, c_ext)(v)
        ext_thresh = lambda v, g: prox_regularizer_extended(
            v, lambda h: soft_threshold(h, g * t), n)
        u_ext = douglas_rachford(fast_quad, ext_thresh, extend(v0, op.L),
                                 gamma, 4000)
        rel = np.linalg.norm(u_ext[:n] - u_dense) / np.linalg.norm(u_dense)
        assert rel <= 1e-6
