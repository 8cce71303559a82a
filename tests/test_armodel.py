import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import regar
from oracles import build_toeplitz
from regar.armodel import (autocorrelation, levinson_durbin, objective,
                           random_stable_ar, reflection_to_ar, residual,
                           simulate_ar)
from regar.fastops import fast_len
from regar.metrics import consistency_distance
from regar.prox import ConsistencySpec
from regar.solver import (SolverConfig, janssen_signal_update,
                          update_coefficients, update_signal)


def test_residual_examples():
    x = np.array([0.3, -1.2, 0.7])
    np.testing.assert_array_equal(residual([1.0], x), x)
    np.testing.assert_array_equal(residual([1.0, -1.0], [1.0, 1.0, 1.0]),
                                  [1.0, 0.0, 0.0, -1.0])
    np.testing.assert_array_equal(residual([1.0, 0.5], np.zeros(4)), np.zeros(5))


def test_residual_length_and_bilinearity():
    rng = np.random.default_rng(0)
    a = np.concatenate(([1.0], rng.standard_normal(3)))
    x = rng.standard_normal(17)
    z = rng.standard_normal(17)
    assert residual(a, x).size == 17 + 3
    lhs = residual(a, 2.0 * x - 0.5 * z)
    rhs = 2.0 * residual(a, x) - 0.5 * residual(a, z)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_build_toeplitz_examples():
    np.testing.assert_array_equal(build_toeplitz([1.0], 3), np.eye(3))
    np.testing.assert_array_equal(build_toeplitz([1.0, -1.0], 2),
                                  [[1, 0], [-1, 1], [0, -1]])


def test_toeplitz_products_match_residual():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = int(rng.integers(0, 6))
        n = int(rng.integers(1, 30))
        a = np.concatenate(([1.0], rng.standard_normal(p)))
        x = rng.standard_normal(n)
        e = residual(a, x)
        scale = max(np.linalg.norm(e), 1.0)
        assert np.linalg.norm(build_toeplitz(a, n) @ x - e) <= 1e-12 * scale
        assert np.linalg.norm(build_toeplitz(x, p + 1) @ a - e) <= 1e-12 * scale


_X = np.linspace(-1.0, 1.0, 8)
# every public function that takes a coefficient vector, called with it
_COEF_ENTRIES = {
    "residual": lambda a: residual(a, _X),
    "objective": lambda a: objective(a, _X, 0.0, 0.0, None),
    "simulate_ar": lambda a: simulate_ar(a, 8, np.random.default_rng(0)),
    "update_coefficients": lambda a: update_coefficients(
        _X, a, SolverConfig(order=max(np.size(a) - 1, 0)), inner_iters=1),
    "update_signal": lambda a: update_signal(
        a, _X, SolverConfig(order=0), ConsistencySpec("dequant", _X, 0.5),
        inner_iters=1),
    "janssen_signal_update": lambda a: janssen_signal_update(
        a, _X, np.zeros(8, dtype=bool)),
}


@pytest.mark.parametrize("a", [[0.5, 1.0], [1.0, math.inf], [[1.0]], []],
                         ids=["leading-not-one", "non-finite", "2-D", "empty"])
@pytest.mark.parametrize("entry", _COEF_ENTRIES)
def test_coefficients_validation(entry, a):
    with pytest.raises(ValueError, match="coefficient"):
        _COEF_ENTRIES[entry](a)


def test_levinson_order_zero():
    np.testing.assert_array_equal(levinson_durbin([1.0, 2.0], 0), [1.0])


def test_levinson_hand_example():
    c = levinson_durbin([1.0, 1.0, 1.0, 1.0], 1)
    np.testing.assert_allclose(c, [1.0, -0.75], atol=1e-15)


def test_levinson_matches_dense_normal_equations():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal(200)
        c = levinson_durbin(x, 4)
        r = autocorrelation(x, 4)
        free = np.linalg.solve(scipy.linalg.toeplitz(r[:4]), -r[1:5])
        np.testing.assert_allclose(c[1:], free, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 97, 1000])
def test_autocorrelation_matches_the_direct_sum(n):
    # every lag of the signal, with none wrapped around by the FFT length
    x = np.random.default_rng(n).standard_normal(n)
    want = np.correlate(x, x, mode="full")[n - 1:]
    np.testing.assert_allclose(autocorrelation(x, n - 1), want,
                               rtol=1e-12, atol=1e-12 * float(x @ x))


def test_autocorrelation_fft_length_is_a_power_of_two_at_power_of_two_frames():
    # the FFT length fast_len(2n - 1) equals the next power of two at the
    # frame lengths in use, so their autocorrelations keep their bits
    for n in [1, 4] + [2**k for k in range(4, 14)]:
        size = fast_len(max(2 * n - 1, 2))
        assert size == 1 << max(1, (2 * n - 2).bit_length())


def test_levinson_minimum_phase():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(128)
        c = levinson_durbin(x, 8)
        assert np.max(np.abs(np.roots(c))) < 1.0 + 1e-10


def test_levinson_errors():
    with pytest.raises(ValueError):
        levinson_durbin(np.zeros(16), 2)
    with pytest.raises(ValueError):
        levinson_durbin(np.ones(4), 4)
    with pytest.raises(ValueError):
        levinson_durbin(np.ones(4), -1)


def test_levinson_error_decreases_with_length():
    a_true = reflection_to_ar([0.7, -0.5, 0.3, -0.2])
    means = []
    for n in (2 ** 10, 2 ** 12, 2 ** 14):
        errs = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = simulate_ar(a_true, n, rng)
            errs.append(np.linalg.norm(levinson_durbin(x, 4) - a_true))
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]


def test_objective_examples():
    val = objective([1.0, -0.5], [1.0, 2.0], 0.0, 0.0, None)
    e = residual([1.0, -0.5], [1.0, 2.0])
    assert val.total == pytest.approx(0.5 * e @ e)
    assert val.coef_term == 0.0 and val.signal_term == 0.0

    # l1 includes the anchored leading coefficient
    val = objective([1.0], [1.0, 0.0], 1.0, 0.0, None)
    assert val.total == pytest.approx(1.5)


def test_objective_infinite_lambda_s():
    y = np.array([0.2, 0.5, -0.1])
    spec = ConsistencySpec("dequant", y, 0.25)
    feasible = objective([1.0], y, 0.0, math.inf, spec)
    assert feasible.signal_term == 0.0
    assert math.isfinite(feasible.total)

    out = objective([1.0], y + 1.0, 0.0, math.inf, spec)
    assert math.isinf(out.total)
    assert math.isinf(out.signal_term)


def test_objective_infinite_lambda_s_bound_is_1e_9_sqrt_n():
    # the box of an all-reliable zero frame is the point 0, so a constant
    # signal c lies sqrt(N) |c| from it: the bound falls at c = 1e-9
    n = 400
    spec = ConsistencySpec("inpaint", np.zeros(n), np.ones(n, dtype=bool))
    inside = objective([1.0], np.full(n, 0.999e-9), 0.0, math.inf, spec)
    outside = objective([1.0], np.full(n, 1.001e-9), 0.0, math.inf, spec)
    assert inside.signal_term == 0.0
    assert outside.signal_term == math.inf


def test_objective_signal_term_is_the_consistency_distance():
    # bit for bit: at this seed lambda_s/2 * ||d||^2 rounds differently
    rng = np.random.default_rng(7)
    spec = ConsistencySpec("dequant", rng.standard_normal(32), 0.5)
    x = rng.standard_normal(32)
    val = objective([1.0, -0.3], x, 0.1, 2.5, spec)
    assert val.signal_term == 2.5 * consistency_distance(x, spec) > 0


def test_objective_terms_sum():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(16)
    spec = ConsistencySpec("dequant", y, 0.5)
    val = objective(np.concatenate(([1.0], rng.standard_normal(3))),
                    rng.standard_normal(16), 0.7, 2.5, spec)
    assert val.total == pytest.approx(
        val.residual_term + val.coef_term + val.signal_term)


def test_objective_rejects_negative_weights():
    with pytest.raises(ValueError):
        objective([1.0], [1.0], -1.0, 0.0, None)


@pytest.mark.parametrize("weights", [(math.nan, 0.0), (0.0, math.nan)])
def test_objective_rejects_nan_weights(weights):
    with pytest.raises(ValueError, match="nonnegative"):
        objective([1.0], [1.0], *weights, None)


def test_random_stable_ar_is_stable():
    rng = np.random.default_rng(5)
    for order in (1, 8, 32):
        c = random_stable_ar(order, rng)
        assert np.max(np.abs(np.roots(c))) < 1.0


def test_simulate_ar_matches_recursion():
    rng = np.random.default_rng(6)
    a = reflection_to_ar([0.5, -0.3])
    x = simulate_ar(a, 64, rng, burn_in=0, scale=0.0)
    np.testing.assert_array_equal(x, np.zeros(64))


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.fft", "scipy.linalg"])
def test_import_does_not_load_slow_scipy_module(module):
    # scipy.signal dominates the import time and serves only simulate_ar, as
    # scipy.linalg serves only Janssen's solve; scipy.fft would add a tenth
    # of a second for what numpy.fft already does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(regar.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, regar.cli; from regar import simulate_ar, random_stable_ar; "
            f"print({module!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
