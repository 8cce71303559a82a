import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_quadratic_prox, mask_glp_rectify,
                     mask_project_consistency, prox_quadratic_dense,
                     soft_threshold_anchored)
from regar.prox import (ConsistencySpec, project_consistency,
                        prox_signal_penalty, soft_threshold)
from regar.solver import glp_rectify


def declip_spec(y, theta):
    return ConsistencySpec.declip(np.asarray(y, dtype=float), theta)


def test_spec_validation():
    y = np.zeros(4)
    with pytest.raises(ValueError, match="unknown variant"):
        ConsistencySpec(variant="nope", y=y, lower=y, upper=y)
    # a 2-D spec is a stack of frames, one per row; more axes are rejected
    with pytest.raises(ValueError, match="1-D"):
        ConsistencySpec(variant="inpaint", y=np.zeros((2, 2, 2)),
                        lower=np.zeros((2, 2, 2)), upper=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="bounds must match"):
        ConsistencySpec(variant="inpaint", y=y, lower=y, upper=np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        ConsistencySpec(variant="dequant", y=y, lower=y + 1.0, upper=y)
    with pytest.raises(ValueError, match="positive delta"):
        ConsistencySpec.dequant(y, 0.0)
    with pytest.raises(ValueError, match="length 4"):
        ConsistencySpec.inpaint(y, np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="boolean"):
        ConsistencySpec.inpaint(y, np.array([0, 2]))


def test_spec_bounds_of_each_variant():
    spec = ConsistencySpec.dequant([0.375, -0.125], 0.25)
    np.testing.assert_array_equal(spec.lower, [0.25, -0.25])
    np.testing.assert_array_equal(spec.upper, [0.5, 0.0])
    assert not spec.pinned.any()
    spec = ConsistencySpec.inpaint([1.0, 0.0, 3.0], np.array([True, False, True]))
    np.testing.assert_array_equal(spec.lower, [1.0, -np.inf, 3.0])
    np.testing.assert_array_equal(spec.upper, [1.0, np.inf, 3.0])
    np.testing.assert_array_equal(spec.pinned, [True, False, True])
    # a sample classified both high and low (tol >= theta) has an empty box
    with pytest.raises(ValueError, match="empty"):
        ConsistencySpec.declip([0.0], 0.5, tol=0.5)


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


_FINITE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _consistency_case(draw):
    """(spec, mask-oracle keyword arguments, x, z) for a random observation.

    Declip observations mix interior samples, samples exactly at +-theta and
    samples within tol of it (above it too); x and z mix arbitrary values
    with signed zeros, the observation and the clipping levels, so ties and
    zero signs are exercised.
    """
    variant = draw(st.sampled_from(("declip", "dequant", "inpaint")))
    n = draw(st.integers(1, 24))
    if variant == "declip":
        theta = draw(st.floats(0.05, 2.0))
        tol = draw(st.sampled_from((0.0, 1e-6 * theta))
                   | st.floats(0.0, 0.9 * theta))
        levels = (theta, -theta, theta - tol / 2, tol / 2 - theta,
                  theta + tol / 2, -theta - tol / 2, 0.0, -0.0)
        y = draw(st.lists(st.floats(-1.0, 1.0).map(lambda u: u * theta)
                          | st.sampled_from(levels), min_size=n, max_size=n))
        spec = ConsistencySpec.declip(y, theta, tol=tol)
        oracle = dict(theta=theta, tol=tol)
        special = (0.0, -0.0, theta, -theta)
    else:
        y = draw(st.lists(_FINITE | st.sampled_from((0.0, -0.0)),
                          min_size=n, max_size=n))
        if variant == "dequant":
            delta = draw(st.floats(1e-3, 2.0))
            spec = ConsistencySpec.dequant(y, delta)
            oracle = dict(delta=delta)
        else:
            reliable = np.array(draw(st.lists(st.booleans(), min_size=n,
                                              max_size=n)))
            spec = ConsistencySpec.inpaint(y, reliable)
            oracle = dict(reliable=reliable)
        special = (0.0, -0.0)
    points = st.lists(_FINITE | st.sampled_from(special + tuple(y)),
                      min_size=n, max_size=n)
    return spec, oracle, np.array(draw(points)), np.array(draw(points))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_consistency_case())
def test_projection_matches_mask_oracle(case):
    spec, oracle, x, _ = case
    got = project_consistency(x, spec)
    want = mask_project_consistency(x, spec.variant, spec.y, **oracle)
    assert got.tobytes() == want.tobytes()
    if spec.variant == "declip":
        got = glp_rectify(x, spec)
        want = mask_glp_rectify(x, spec.y, **oracle)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_consistency_case())
def test_projection_idempotent_and_nonexpansive(case):
    spec, _, x, z = case
    px, pz = project_consistency(x, spec), project_consistency(z, spec)
    assert project_consistency(px, spec).tobytes() == px.tobytes()
    assert np.all(np.abs(px - pz) <= np.abs(x - z))
    assert (px - pz) @ (px - pz) <= (x - z) @ (x - z)


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 5), n=st.integers(1, 20),
       lam=st.sampled_from([0.0, 0.5, 10.0, math.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_proxes_write_each_row_as_alone(rows, n, lam, seed):
    # one step per row, results written into a given buffer, signed zeros
    # included: every row has the bytes of the 1-D call on that row
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((rows, n))
    v[rng.random((rows, n)) < 0.2] = -0.0
    y = np.round(rng.standard_normal((rows, n)) * 4.0) / 4.0
    stack = ConsistencySpec.stack([ConsistencySpec.dequant(row, 0.25) for row in y])
    step = rng.uniform(0.1, 2.0, size=(rows, 1))
    soft = np.empty_like(v)
    assert soft_threshold(v, step * lam if math.isfinite(lam) else step,
                          out=soft) is soft
    penalty = prox_signal_penalty(v, step * lam, stack, out=np.empty_like(v))
    for k, row_spec in enumerate(stack.rows()):
        t = float(step[k, 0])
        assert soft[k].tobytes() == soft_threshold(
            v[k], t * lam if math.isfinite(lam) else t).tobytes()
        assert penalty[k].tobytes() == prox_signal_penalty(
            v[k], t * lam, row_spec).tobytes()


def test_spec_stack_and_rows_round_trip():
    specs = [ConsistencySpec.declip(np.array([0.1, 0.5, -0.5]), 0.5),
             ConsistencySpec.declip(np.array([0.2, -0.2, 0.4]), 0.4)]
    stack = ConsistencySpec.stack(specs)
    assert stack.y.shape == (2, 3) and stack.n == 3
    assert [(r.y.tobytes(), r.lower.tobytes(), r.upper.tobytes())
            for r in stack.rows()] == \
        [(s.y.tobytes(), s.lower.tobytes(), s.upper.tobytes()) for s in specs]
