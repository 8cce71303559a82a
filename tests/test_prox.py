import math

import numpy as np
import pytest

from oracles import (dense_quadratic_prox, prox_quadratic_dense,
                     soft_threshold_anchored)
from regar.prox import (ConsistencySpec, project_consistency,
                        prox_signal_penalty, soft_threshold)


def declip_spec(y, theta):
    return ConsistencySpec.declip(np.asarray(y, dtype=float), theta)


def test_spec_validation():
    with pytest.raises(ValueError):
        ConsistencySpec(variant="declip", y=np.zeros(4))
    with pytest.raises(ValueError):
        ConsistencySpec(variant="dequant", y=np.zeros(4))
    with pytest.raises(ValueError):
        ConsistencySpec(variant="nope", y=np.zeros(4))
    with pytest.raises(ValueError):
        ConsistencySpec(variant="inpaint", y=np.zeros(4))


def test_project_fixes_feasible_points():
    spec = declip_spec([0.1, 0.5, -0.5], 0.5)
    x = np.array([0.1, 0.9, -0.7])  # already feasible
    np.testing.assert_array_equal(project_consistency(x, spec), x)


def test_project_declip():
    spec = declip_spec([0.1, 0.5, -0.5], 0.5)
    out = project_consistency(np.array([0.4, 0.3, 0.2]), spec)
    np.testing.assert_array_equal(out, [0.1, 0.5, -0.5])


def test_project_dequant():
    spec = ConsistencySpec.dequant([0.375], 0.25)
    assert project_consistency(np.array([0.9]), spec)[0] == 0.5
    assert project_consistency(np.array([0.0]), spec)[0] == 0.25
    assert project_consistency(np.array([0.4]), spec)[0] == 0.4


def test_project_inpaint():
    spec = ConsistencySpec.inpaint([1.0, 0.0, 3.0], np.array([True, False, True]))
    out = project_consistency(np.array([9.0, 5.0, 9.0]), spec)
    np.testing.assert_array_equal(out, [1.0, 5.0, 3.0])


def _random_spec(rng, n):
    kind = rng.integers(3)
    y = rng.uniform(-1, 1, size=n)
    if kind == 0:
        theta = float(rng.uniform(0.2, 0.8))
        return declip_spec(np.clip(y, -theta, theta), theta)
    if kind == 1:
        return ConsistencySpec.dequant(y, float(rng.uniform(0.05, 0.5)))
    return ConsistencySpec.inpaint(y, rng.uniform(size=n) < 0.6)


def _random_feasible(rng, spec):
    z = rng.uniform(-2, 2, size=spec.n)
    return project_consistency(z, spec)


def test_projection_idempotent_and_distance_minimizing():
    rng = np.random.default_rng(0)
    for _ in range(10):
        spec = _random_spec(rng, 24)
        x = rng.uniform(-3, 3, size=24)
        proj = project_consistency(x, spec)
        np.testing.assert_array_equal(project_consistency(proj, spec), proj)
        d = np.linalg.norm(x - proj)
        for _ in range(100):
            z = _random_feasible(rng, spec)
            assert d <= np.linalg.norm(x - z) + 1e-12


def test_prox_signal_penalty_limits():
    spec = ConsistencySpec.dequant([0.0, 0.0], 2.0)  # box [-1, 1]
    x = np.array([2.0, -3.0])
    np.testing.assert_array_equal(prox_signal_penalty(x, 0.0, spec), x)
    np.testing.assert_array_equal(prox_signal_penalty(x, math.inf, spec),
                                  [1.0, -1.0])
    # lambda_s = 1: midpoint of the point and its projection
    np.testing.assert_allclose(prox_signal_penalty(np.array([2.0, 0.0]), 1.0, spec),
                               [1.5, 0.0])
    with pytest.raises(ValueError):
        prox_signal_penalty(x, -0.5, spec)


def _golden_section(f, lo, hi, iters=200):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return 0.5 * (a + b)


def test_prox_signal_penalty_matches_scalar_search():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = float(rng.uniform(-1, 1))
        delta = float(rng.uniform(0.1, 1.0))
        spec = ConsistencySpec.dequant([y], delta)
        lam = float(rng.uniform(0.0, 20.0))
        x = float(rng.uniform(-4, 4))

        def penalized(v):
            d = max(abs(v - y) - delta / 2.0, 0.0)
            return 0.5 * (v - x) ** 2 + lam * 0.5 * d * d

        # comparison search resolves the argmin position to about sqrt(eps)
        expect = _golden_section(penalized, -6.0, 6.0)
        got = prox_signal_penalty(np.array([x]), lam, spec)[0]
        assert got == pytest.approx(expect, abs=5e-8)
        # the prox point is at least as good as the search result
        assert penalized(got) <= penalized(expect) + 1e-12


def test_soft_threshold_anchored_examples():
    a = np.array([0.3, 2.0, -0.5, 0.1])
    np.testing.assert_array_equal(soft_threshold_anchored(a, 1.0), [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(soft_threshold_anchored([1.0, -3.0], 1.0),
                                  [1.0, -2.0])
    out = soft_threshold_anchored(a, 0.0)
    np.testing.assert_array_equal(out, [1.0, 2.0, -0.5, 0.1])
    with pytest.raises(ValueError):
        soft_threshold_anchored(a, -0.1)


def test_soft_threshold_anchored_is_constrained_argmin():
    rng = np.random.default_rng(2)
    grid = np.linspace(-4, 4, 8001)
    for _ in range(5):
        a = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.0, 1.5))
        # minimize 0.5 (u - a)^2 + t |u| coordinate-wise with u_1 = 1 fixed
        values = 0.5 * (grid - a[1]) ** 2 + t * np.abs(grid)
        u2 = grid[np.argmin(values)]
        got = soft_threshold_anchored(a, t)
        assert got[0] == 1.0
        assert got[1] == pytest.approx(u2, abs=2e-3)


def test_prox_quadratic_dense_examples():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)
    np.testing.assert_allclose(prox_quadratic_dense(v, 0.7, np.eye(5)),
                               v / 1.7, atol=1e-14)
    T = rng.standard_normal((8, 5))
    off = rng.standard_normal(8)
    got = prox_quadratic_dense(v, 2.0, T, off)
    expect = np.linalg.solve(np.eye(5) + 2.0 * T.T @ T, v - 2.0 * T.T @ off)
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_prox_quadratic_dense_validation():
    with pytest.raises(ValueError):
        prox_quadratic_dense(np.zeros(3), 1.0, np.eye(4))
    with pytest.raises(ValueError):
        prox_quadratic_dense(np.zeros(3), 0.0, np.eye(3))
    with pytest.raises(ValueError):
        prox_quadratic_dense(np.zeros(3), 1.0, np.eye(3), np.zeros(4))


def test_dense_factory_matches_one_shot():
    rng = np.random.default_rng(4)
    T = rng.standard_normal((6, 4))
    off = rng.standard_normal(6)
    apply = dense_quadratic_prox(T, 1.3, off)
    for _ in range(3):
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(apply(v), prox_quadratic_dense(v, 1.3, T, off))


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(5)
    T = rng.standard_normal((10, 6))
    quad = dense_quadratic_prox(T, 0.8)
    spec = _random_spec(rng, 6)
    operators = [
        quad,
        lambda v: soft_threshold(v, 0.4),
        lambda v: soft_threshold_anchored(v, 0.4),
        lambda v: project_consistency(v, spec),
        lambda v: prox_signal_penalty(v, 3.0, spec),
    ]
    for op in operators:
        for _ in range(50):
            u = rng.uniform(-3, 3, size=6)
            v = rng.uniform(-3, 3, size=6)
            du = op(u) - op(v)
            assert du @ du <= du @ (u - v) + 1e-10
