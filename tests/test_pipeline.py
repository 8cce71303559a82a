import math

import numpy as np
import pytest

from regar.armodel import random_stable_ar, simulate_ar
from regar.degrade import hard_clip, uniform_quantize
from regar.metrics import sdr
from regar.pipeline import (DegradationModel, reconstruct_channel,
                            resolve_workers)
from regar.solver import SolverConfig


def clipped_channel(seed=0, n=2000, theta=0.3):
    rng = np.random.default_rng(seed)
    x = simulate_ar(random_stable_ar(8, rng), n, rng)
    x = x / np.max(np.abs(x))
    return x, hard_clip(x, theta).y, theta


def test_passthrough_reproduces_input():
    x, y, theta = clipped_channel()
    model = DegradationModel(kind="clip", theta=theta)
    out, report = reconstruct_channel(y, model, None, 256, 64, reference=x)
    assert np.max(np.abs(out - y)) <= 1e-12
    assert all(r.outer_iter == 0 for r in report.per_frame)


def test_reconstruction_improves_and_reports():
    x, y, theta = clipped_channel()
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=8, strategy="declip", lambda_c=1e-3,
                       lambda_s=math.inf, outer_iters=3, inner_iters=200,
                       acceleration=frozenset())
    out, report = reconstruct_channel(y, model, cfg, 512, 128, reference=x)
    assert report.sdr_db > sdr(x, y)
    assert report.delta_sdr_db > 0
    assert len(report.per_frame) == len({r.frame_index for r in report.per_frame})
    # solver frames are feasible pre-OLA (prox-side iterate)
    degraded_frames = [r for r in report.per_frame if r.outer_iter > 0]
    assert degraded_frames
    assert all(r.consistency_sq == 0.0 for r in degraded_frames)


def test_clean_frames_skip_the_solver():
    rng = np.random.default_rng(1)
    x = simulate_ar(random_stable_ar(4, rng), 1024, rng)
    x = x / np.max(np.abs(x))
    # quiet first half (never reaches theta), clipped second half
    x[:512] *= 0.04
    theta = 0.05
    y = np.where(np.abs(x) >= theta, theta * np.sign(x), x)
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=4, strategy="inpaint", outer_iters=2,
                       inner_iters=100, acceleration=frozenset())
    out, report = reconstruct_channel(y, model, cfg, 128, 128)
    skipped = [r for r in report.per_frame if r.outer_iter == 0]
    solved = [r for r in report.per_frame if r.outer_iter > 0]
    assert skipped and solved
    # untouched frames pass through exactly
    np.testing.assert_allclose(out[:384], y[:384], atol=1e-12)


def test_worker_count_does_not_change_result():
    x, y, theta = clipped_channel(seed=2, n=1500)
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=4, strategy="declip", lambda_s=math.inf,
                       outer_iters=2, inner_iters=100,
                       acceleration=frozenset())
    out1, _ = reconstruct_channel(y, model, cfg, 256, 64, workers=1)
    out4, _ = reconstruct_channel(y, model, cfg, 256, 64, workers=4)
    np.testing.assert_array_equal(out1, out4)


def test_dequant_channel_improves_structured_signal():
    # dequantization pays off when the AR prediction gain exceeds the
    # quantization SNR, so use a strongly resonant process and 3 bits
    rng = np.random.default_rng(3)
    poles = 0.995 * np.exp(1j * np.array([0.3, -0.3, 1.2, -1.2]))
    x = simulate_ar(np.real(np.poly(poles)), 1200, rng, burn_in=4000)
    x = x / np.max(np.abs(x))
    obs = uniform_quantize(x, 3)
    model = DegradationModel(kind="quant", delta=obs.delta)
    cfg = SolverConfig(order=4, strategy="dequant", lambda_s=math.inf,
                       outer_iters=6, inner_iters=400,
                       acceleration=frozenset())
    out, report = reconstruct_channel(obs.y, model, cfg, 1024, 256, reference=x)
    assert report.sdr_db > sdr(x, obs.y) + 1.0


def test_drop_model_needs_matching_mask():
    with pytest.raises(ValueError):
        DegradationModel(kind="drop")
    model = DegradationModel(kind="drop", reliable=np.ones(10, dtype=bool))
    with pytest.raises(ValueError):
        model.spec_for(np.zeros(4))


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)
    monkeypatch.setenv("REGAR_THREADS", "5")
    assert resolve_workers() == 5
    monkeypatch.setenv("REGAR_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.delenv("REGAR_THREADS")
    assert resolve_workers() >= 1
