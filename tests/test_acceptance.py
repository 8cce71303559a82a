"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import hashlib
import math

import numpy as np
import pytest

from oracles import (build_toeplitz, circulant_matrix, dense_update_coefficients,
                     dense_update_signal, prox_quadratic_dense)
from regar.armodel import (objective, random_stable_ar, reflection_to_ar,
                           simulate_ar)
from regar.cli import run_cli
from regar.degrade import hard_clip, uniform_quantize
from regar.fastops import circulant_embed_filter, circulant_quadratic_prox
from regar.framing import frame_layout, overlap_add, segment, sine_window
from regar.metrics import consistency_distance, sdr
from regar.prox import ConsistencySpec, project_consistency, soft_threshold
from regar.solver import (SolverConfig, acs_run, douglas_rachford, glp_rectify,
                          janssen_signal_update, line_search,
                          progressive_schedule, update_coefficients,
                          update_signal)


def verdict(num: int, ok: bool, description: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_quantizer_anchor_and_golden_vectors():
    ok = uniform_quantize([0.0], 5).delta == 0.0625
    # golden vectors, bit-exact
    y = uniform_quantize([0.3, -0.3, 0.26, 0.0, 1.0], 3).y
    ok = ok and list(y) == [0.375, -0.375, 0.375, 0.125, 1.125]
    y1 = uniform_quantize([0.3, -0.3], 1).y
    ok = ok and list(y1) == [0.5, -0.5]
    clip = hard_clip([0.1, -0.5, 0.9], 0.5).y
    ok = ok and list(clip) == [0.1, -0.5, 0.5]
    ok = ok and list(hard_clip([2.0, -3.0], 1.0).y) == [1.0, -1.0]
    verdict(1, ok, "5-bit step is exactly 0.0625; clip/quantize golden vectors "
                   "bit-exact")


def test_criterion_02_circulant_prox_matches_dense_oracle():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(0, 9))
        n = int(rng.integers(1, 65))
        op = circulant_embed_filter(rng.standard_normal(p + 1), n)
        dense_circulant = circulant_matrix(op)
        v = rng.standard_normal(op.L)
        offset = rng.standard_normal(op.L) if rng.uniform() < 0.5 else None
        gamma = float(rng.uniform(0.05, 5.0))
        fast = circulant_quadratic_prox(op, gamma, offset)(v)
        ref = prox_quadratic_dense(v, gamma, dense_circulant, offset)
        worst = max(worst, np.linalg.norm(fast - ref) / np.linalg.norm(ref))
    verdict(2, worst <= 1e-8,
            f"spectral prox vs materialized circulant on 50 instances, "
            f"worst rel err {worst:.2e} <= 1e-8")


def test_criterion_03_extended_problem_shares_minimum():
    rng = np.random.default_rng(21)
    worst = 0.0
    for seed in (0, 1):
        p = 4 + 2 * seed
        n = 48 + 16 * seed
        a_true = random_stable_ar(p, rng)
        x = simulate_ar(a_true, n, rng)
        x = x / np.max(np.abs(x))
        obs = hard_clip(x, 0.4)
        spec = ConsistencySpec.declip(obs.y, obs.theta)
        for lam_s in (10.0, math.inf):
            base = dict(order=p, strategy="declip", lambda_s=lam_s,
                        outer_iters=1, inner_iters=4000)
            cfg = SolverConfig(**base)
            dense = dense_update_signal(a_true, obs.y.copy(), cfg, spec)
            fast, _ = update_signal(a_true, obs.y.copy(), cfg, spec,
                                    inner_iters=cfg.inner_iters)
            worst = max(worst, np.linalg.norm(dense - fast) / np.linalg.norm(dense))
        for lam_c in (0.0, 0.01):
            base = dict(order=p, strategy="declip", lambda_c=lam_c,
                        outer_iters=1, inner_iters=4000)
            a0 = np.r_[1.0, np.zeros(p)]
            cfg = SolverConfig(**base)
            dense = dense_update_coefficients(x, a0, cfg)
            fast, _ = update_coefficients(x, a0, cfg, inner_iters=cfg.inner_iters)
            worst = max(worst,
                        np.linalg.norm(dense - fast) / np.linalg.norm(dense))
    verdict(3, worst <= 1e-6,
            f"truncated circulant-embedded DRA vs dense Toeplitz DRA, "
            f"worst rel err {worst:.2e} <= 1e-6")


def test_criterion_04_dra_matches_proximal_gradient_oracle():
    # a 12x8 banded Toeplitz lasso, solved by the product's circulant DR
    rng = np.random.default_rng(22)
    filt = rng.standard_normal(5)
    T = build_toeplitz(filt, 8)
    b = rng.standard_normal(12)
    t = 0.3
    u_dra, _ = douglas_rachford(filt, 8,
                                lambda h, out: soft_threshold(h, t, out=out),
                                np.zeros(8), 1.0, iters=2000, offset=-b)

    step = 1.0 / np.linalg.norm(T, 2) ** 2
    u = np.zeros(8)
    for _ in range(2_000_000):
        u_new = soft_threshold(u - step * (T.T @ (T @ u - b)), step * t)
        if np.linalg.norm(u_new - u) <= 1e-14:
            u = u_new
            break
        u = u_new
    rel = np.linalg.norm(u_dra - u) / np.linalg.norm(u)
    verdict(4, rel <= 1e-6,
            f"8-dim lasso: DRA vs converged ISTA, rel err {rel:.2e} <= 1e-6")


def test_criterion_05_janssen_exact_gap_recovery():
    a = reflection_to_ar([0.9, -0.7, 0.5, -0.3])
    rng = np.random.default_rng(23)
    n = 512
    x = np.zeros(n)
    x[:4] = rng.standard_normal(4)
    for i in range(4, n):
        x[i] = -(a[1:] @ x[i - 4: i][::-1])
    reliable = np.ones(n, dtype=bool)
    reliable[246:266] = False
    rec = janssen_signal_update(a, np.where(reliable, x, 0.0), reliable)
    rel = np.linalg.norm(rec[246:266] - x[246:266]) / np.linalg.norm(x[246:266])
    verdict(5, rel <= 1e-6,
            f"noiseless AR(4) 20-sample interior gap, rel err {rel:.2e} <= 1e-6")


@pytest.fixture(scope="module")
def consistent_declip_run():
    rng = np.random.default_rng(42)
    a_true = random_stable_ar(8, rng)
    x = simulate_ar(a_true, 256, rng)
    x = x / np.max(np.abs(x))
    obs = hard_clip(x, 0.3)
    spec = ConsistencySpec.declip(obs.y, obs.theta)
    cfg = SolverConfig(order=8, strategy="declip", lambda_c=1e-3,
                       lambda_s=math.inf, outer_iters=10, inner_iters=1000,
                       acceleration=frozenset())
    coeffs, x_hat, trace = acs_run(spec, cfg, ground_truth=x)
    return spec, x_hat, trace


def test_criterion_06_objective_monotone(consistent_declip_run):
    _, _, trace = consistent_declip_run
    q = np.array([e.objective for e in trace.entries])
    slack = 1e-6 * q[0]
    ok = bool(np.all(np.diff(q) <= slack))
    verdict(6, ok,
            f"N=256 p=8 consistent declipping, 10x1000: Q non-increasing "
            f"within {slack:.2e} (max rise {np.max(np.diff(q)):.2e})")


def test_criterion_07_consistent_output_feasible(consistent_declip_run):
    spec, x_hat, trace = consistent_declip_run
    dist = consistency_distance(x_hat, spec)
    ok = dist == 0.0 and all(e.signal_term == 0.0 for e in trace.entries)
    verdict(7, ok, f"lambda_s=inf output consistency distance {dist} == 0 "
                   "at every iteration")


def test_criterion_08_single_frame_declipping_quality():
    rng = np.random.default_rng(0)
    a_true = random_stable_ar(32, rng)
    x = simulate_ar(a_true, 2048, rng)
    x = x / np.max(np.abs(x))
    obs = hard_clip(x, 0.2)
    input_sdr = sdr(x, obs.y)
    spec = ConsistencySpec.declip(obs.y, obs.theta)
    cfg = SolverConfig(order=32, strategy="declip", lambda_c=0.1,
                       lambda_s=math.inf, outer_iters=20, inner_iters=1000,
                       acceleration=frozenset())
    _, x_hat, _ = acs_run(spec, cfg)
    output_sdr = sdr(x, x_hat)
    ok = 4.0 <= input_sdr <= 6.0 and output_sdr - input_sdr >= 3.0
    verdict(8, ok,
            f"AR(32) clipped at 0.2x peak: input {input_sdr:.2f} dB in [4, 6], "
            f"improvement {output_sdr - input_sdr:.2f} dB >= 3")


def test_criterion_09_glp_rectification_feasible():
    rng = np.random.default_rng(24)
    ok = True
    for _ in range(100):
        n = int(rng.integers(8, 96))
        theta = float(rng.uniform(0.1, 0.9))
        y = hard_clip(rng.uniform(-2, 2, size=n), theta).y
        spec = ConsistencySpec.declip(y, theta)
        out = glp_rectify(rng.uniform(-3, 3, size=n), spec)
        ok = ok and np.array_equal(project_consistency(out, spec), out)
    verdict(9, ok, "rectified output lies in the declip set exactly on "
                   "100 random instances")


def test_criterion_10_progressive_schedule_anchor():
    sched = progressive_schedule(2, 3, 10)
    ok = sched[0] == 100 and sched[-1] == 1000 and len(sched) == 10
    verdict(10, ok, f"logarithmic schedule n1=2, nI=3, I=10 runs {sched[0]} "
                    f"to {sched[-1]} inner iterations")


def test_criterion_11_line_search_never_worse():
    rng = np.random.default_rng(25)
    grid = np.logspace(-4, 2, 25)
    checked = 0
    ok = True
    for instance in range(5):
        p = int(rng.integers(2, 6))
        n = int(rng.integers(96, 160))
        x_true = simulate_ar(random_stable_ar(p, rng), n, rng)
        x_true = x_true / np.max(np.abs(x_true))
        obs = hard_clip(x_true, float(rng.uniform(0.2, 0.5)))
        spec = ConsistencySpec.declip(obs.y, obs.theta)
        cfg = SolverConfig(order=p, strategy="declip", lambda_c=1e-3,
                           lambda_s=10.0, outer_iters=1, inner_iters=200,
                           acceleration=frozenset())
        q_fn = lambda a, v: objective(a, v, cfg.lambda_c, cfg.lambda_s, spec).total
        from regar.armodel import levinson_durbin

        x_cur = obs.y.copy()
        coeffs = levinson_durbin(x_cur, p)
        for _ in range(4):
            a_half, _ = update_coefficients(x_cur, coeffs, cfg, inner_iters=200)
            x_half, _ = update_signal(a_half, x_cur, cfg, spec, inner_iters=200)
            q_pre = q_fn(a_half, x_half)
            coeffs, x_new = line_search(a_half, coeffs, x_half, x_cur,
                                        q_fn, grid)
            q_post = q_fn(coeffs, x_new)
            ok = ok and q_post <= q_pre
            x_cur = x_new
            checked += 1
    verdict(11, ok and checked == 20,
            f"post-line-search objective <= pre-extrapolation objective on "
            f"{checked} ACS steps")


def test_criterion_12_overlap_add_round_trip():
    rng = np.random.default_rng(26)
    worst = 0.0
    for w, h in ((2048, 512), (8192, 2048)):
        x = rng.standard_normal(44100)
        layout = frame_layout(x.size, w, h)
        out = overlap_add(segment(x, layout), layout, sine_window(w))
        worst = max(worst, np.max(np.abs(out - x)) / np.max(np.abs(x)))
    verdict(12, worst <= 1e-12,
            f"analysis/synthesis identity on 1 s signals, worst err "
            f"{worst:.2e} <= 1e-12")


def test_criterion_13_demo_determinism_across_workers(tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    outputs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"demo_w{workers}"
        code = run_cli(["demo", "--out-dir", str(out_dir), "--seed", "7",
                        "--workers", str(workers)])
        assert code == 0
        outputs[workers] = {
            name: digest(out_dir / name)
            for name in ("clean.wav", "degraded.wav", "restored.wav",
                         "report.csv", "report.json")
        }
    ok = outputs[1] == outputs[8]
    verdict(13, ok, "demo artifacts (WAV + CSV + JSON) bitwise identical for "
                    "1 and 8 workers")
