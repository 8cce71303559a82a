import dataclasses
import math
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import copy_frame_specs, copy_segment, copy_spec
from regar import pipeline
from regar.armodel import random_stable_ar, simulate_ar
from regar.degrade import hard_clip, uniform_quantize
from regar.framing import frame_layout
from regar.metrics import consistency_distance, sdr
from regar.pipeline import DegradationModel, frame_record, reconstruct_channel
import regar.solver as solver_mod
from regar.solver import (AcsStep, SolverConfig, SolverError, acs_run,
                          progressive_schedule)


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


@pytest.mark.parametrize("n,frame,hop", [(1000, 128, 48), (1000, 128, 128),
                                          (80, 128, 32), (992, 128, 96)])
def test_reference_frames_view_the_callers_array(monkeypatch, n, frame, hop):
    # only frames that reach past the channel end are cut from a padded copy
    x, y, theta = clipped_channel(n=n)
    seen = []

    def spy(*args):
        seen.append(args[4])  # the reference frame
        return frame_record(*args)

    monkeypatch.setattr(pipeline, "frame_record", spy)
    reconstruct_channel(y, DegradationModel(kind="clip", theta=theta), None,
                        frame, hop, reference=x)
    layout = frame_layout(n, frame, hop)
    assert [r.tobytes() for r in seen] == \
        [r.tobytes() for r in copy_segment(x, layout)]
    inside = [k * hop + frame <= n for k in range(layout.n_frames)]
    assert [np.shares_memory(r, x) for r in seen] == inside
    assert sum(not v for v in inside) <= -(-frame // hop)


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


class InlinePool:
    """Process-pool stand-in: runs each task on submit and counts the tasks,
    the frames submitted and the frames whose result is not taken yet (a
    task's first argument is its stacked box, one frame per row), and keeps
    the worker initializer it was given."""

    tasks = submitted = in_flight = peak = 0
    initializer = None

    def __init__(self, max_workers, initializer=None):
        InlinePool.initializer = initializer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        frames = len(args[0].y)
        InlinePool.tasks += 1
        InlinePool.submitted += frames
        InlinePool.in_flight += frames
        InlinePool.peak = max(InlinePool.peak, InlinePool.in_flight)
        value = fn(*args)

        class Task:
            def result(self):
                InlinePool.in_flight -= frames
                return value

        return Task()


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
    for counter in ("tasks", "submitted", "in_flight", "peak"):
        monkeypatch.setattr(InlinePool, counter, 0)
    monkeypatch.setattr(InlinePool, "initializer", None)
    return InlinePool


def test_pool_keeps_few_tasks_in_flight(inline_pool):
    x, y, theta = clipped_channel(seed=3, n=4000)
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=4, strategy="declip", outer_iters=1,
                       inner_iters=10)
    serial = reconstruct_channel(y, model, cfg, 128, 32, reference=x)
    pooled = reconstruct_channel(y, model, cfg, 128, 32, workers=2,
                                 reference=x)
    assert len(pooled[1].per_frame) == 125
    assert inline_pool.peak == pipeline.FRAMES_PER_WORKER * 2
    assert inline_pool.in_flight == 0
    assert pooled[0].tobytes() == serial[0].tobytes()
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in pooled[1].per_frame]
            == [dataclasses.replace(r, wall_ms=0.0) for r in serial[1].per_frame])


def test_in_process_solving_opens_no_pool(monkeypatch, inline_pool):
    # one worker, or no config, solves in process: no pool and no thread,
    # and the records of the two-worker (inline) pool
    x, y, theta = clipped_channel(seed=3, n=4000)
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=4, strategy="declip", outer_iters=1,
                       inner_iters=10)
    pooled = reconstruct_channel(y, model, cfg, 128, 32, workers=2,
                                 reference=x)

    def refuse(max_workers, initializer=None):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", refuse)
    threads = threading.active_count()
    serial = reconstruct_channel(y, model, cfg, 128, 32, reference=x)
    unsolved = reconstruct_channel(y, model, None, 128, 32, workers=2,
                                   reference=x)
    assert threading.active_count() == threads
    assert serial[0].tobytes() == pooled[0].tobytes()
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in serial[1].per_frame]
            == [dataclasses.replace(r, wall_ms=0.0) for r in pooled[1].per_frame])
    assert all(r.outer_iter == 0 for r in unsolved[1].per_frame)


def test_only_solved_frames_reach_the_pool(inline_pool):
    rng = np.random.default_rng(4)
    x = simulate_ar(random_stable_ar(4, rng), 4000, rng)
    reliable = np.ones(4000, dtype=bool)
    reliable[[700, 701, 2500, 3990]] = False
    y = np.where(reliable, x, 0.0)
    model = DegradationModel(kind="drop", reliable=reliable)
    cfg = SolverConfig(order=4, strategy="inpaint", outer_iters=2,
                       inner_iters=10)
    serial = reconstruct_channel(y, model, cfg, 128, 32)
    pooled = reconstruct_channel(y, model, cfg, 128, 32, workers=2)
    solved = sum(r.outer_iter > 0 for r in pooled[1].per_frame)
    assert 0 < solved < len(pooled[1].per_frame) // 4
    assert inline_pool.submitted == solved
    # each gap's four solved frames form one stack, a single pool task
    assert inline_pool.tasks == 3 * -(-4 // pipeline.FRAMES_PER_STACK)
    assert inline_pool.in_flight == 0
    assert pooled[0].tobytes() == serial[0].tobytes()
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in pooled[1].per_frame]
            == [dataclasses.replace(r, wall_ms=0.0) for r in serial[1].per_frame])


@settings(max_examples=6, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["clip", "quant", "drop"]),
       frame=st.sampled_from([64, 96, 128]), hop_div=st.sampled_from([1, 2, 4]),
       n=st.integers(100, 400), seed=st.integers(0, 2**16))
# a frame whose estimate and observation both equal the reference: its
# undefined gain once compared unequal to itself as NaN
@example(kind="clip", frame=64, hop_div=2, n=100, seed=0)
def test_worker_count_never_changes_the_bits(kind, frame, hop_div, n, seed):
    rng = np.random.default_rng(seed)
    x = simulate_ar(random_stable_ar(4, rng), n, rng)
    x = x / np.max(np.abs(x))
    if kind == "clip":
        y = hard_clip(x, 0.5).y
        model = DegradationModel(kind="clip", theta=0.5)
        strategy = "declip"
    elif kind == "quant":
        obs = uniform_quantize(x, 4)
        y = obs.y
        model = DegradationModel(kind="quant", delta=obs.delta)
        strategy = "dequant"
    else:
        reliable = rng.random(n) > 0.2
        y = np.where(reliable, x, 0.0)
        model = DegradationModel(kind="drop", reliable=reliable)
        strategy = "inpaint"
    cfg = SolverConfig(order=4, strategy=strategy, lambda_c=1e-3,
                       outer_iters=2, inner_iters=30)
    runs = [reconstruct_channel(y, model, cfg, frame, frame // hop_div,
                                workers=workers, reference=x)
            for workers in (1, 2)]
    (out1, rep1), (out2, rep2) = runs
    assert out1.tobytes() == out2.tobytes()

    def untimed(report):
        return [dataclasses.replace(r, wall_ms=0.0) for r in report.per_frame]

    assert untimed(rep1) == untimed(rep2)
    assert (rep1.sdr_db, rep1.delta_sdr_db, rep1.consistency_sq) == \
        (rep2.sdr_db, rep2.delta_sdr_db, rep2.consistency_sq)


def test_worker_count_never_changes_the_bits_at_blas_size():
    # glp at the paper's sizes, 60% of the samples clipped: each frame's
    # Janssen solve is a banded Cholesky of about 1200 missing samples
    rng = np.random.default_rng(7)
    x = simulate_ar(random_stable_ar(16, rng), 3072, rng)
    theta = float(np.quantile(np.abs(x), 0.4))
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=512, strategy="glp", lambda_c=1e-3,
                       outer_iters=1, inner_iters=10)
    (out1, rep1), (out2, rep2) = [
        reconstruct_channel(hard_clip(x, theta).y, model, cfg, 2048, 512,
                            workers=workers, reference=x)
        for workers in (1, 2)]
    assert out1.tobytes() == out2.tobytes()
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in rep1.per_frame]
            == [dataclasses.replace(r, wall_ms=0.0) for r in rep2.per_frame])


def test_worker_count_never_changes_the_bits_of_declip_at_blas_size():
    # declip at the paper's sizes, a quarter of the samples clipped: each
    # exact signal step is a few banded solves on the free clipped samples
    rng = np.random.default_rng(8)
    x = simulate_ar(random_stable_ar(16, rng), 3072, rng)
    theta = float(np.quantile(np.abs(x), 0.75))
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=512, strategy="declip", lambda_c=1e-3,
                       outer_iters=2, inner_iters=10)
    (out1, rep1), (out2, rep2) = [
        reconstruct_channel(hard_clip(x, theta).y, model, cfg, 2048, 512,
                            workers=workers, reference=x)
        for workers in (1, 2)]
    assert out1.tobytes() == out2.tobytes()
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in rep1.per_frame]
            == [dataclasses.replace(r, wall_ms=0.0) for r in rep2.per_frame])


def _blas_threads_after_a_banded_solve():
    solver_mod.janssen_signal_update([1.0, -0.5], np.ones(8), np.arange(8) % 2 == 0)
    return solver_mod._scipy_openblas().scipy_openblas_get_num_threads()


def test_pool_workers_run_blas_on_one_thread_and_the_caller_keeps_its_own(
        inline_pool):
    blas = solver_mod._scipy_openblas()
    if not hasattr(blas, "scipy_openblas_get_num_threads"):
        pytest.skip("scipy bundles no OpenBLAS with a thread-count symbol")
    x, y, theta = clipped_channel(seed=3, n=600)
    cfg = SolverConfig(order=4, strategy="declip", outer_iters=1, inner_iters=10)
    reconstruct_channel(y, DegradationModel(kind="clip", theta=theta), cfg,
                        128, 32, workers=2)
    assert inline_pool.initializer is solver_mod._set_one_blas_thread
    before = blas.scipy_openblas_get_num_threads()
    with ProcessPoolExecutor(
            max_workers=1, initializer=inline_pool.initializer) as pool:
        assert pool.submit(_blas_threads_after_a_banded_solve).result() == 1
    assert blas.scipy_openblas_get_num_threads() == before


@pytest.mark.parametrize("strategy, lambda_s, initializer", [
    ("declip", math.inf, solver_mod._set_one_blas_thread),
    ("inpaint", math.inf, solver_mod._set_one_blas_thread),
    ("glp", math.inf, solver_mod._set_one_blas_thread),
    ("declip", 10.0, None), ("dequant", math.inf, None)])
def test_only_a_banded_signal_step_caps_the_workers_blas(inline_pool, strategy,
                                                         lambda_s, initializer):
    x, y, theta = clipped_channel(seed=3, n=600)
    model = DegradationModel(kind="clip", theta=theta)
    if strategy == "dequant":
        obs = uniform_quantize(x, 4)
        y, model = obs.y, DegradationModel(kind="quant", delta=obs.delta)
    cfg = SolverConfig(order=4, strategy=strategy, lambda_s=lambda_s,
                       outer_iters=1, inner_iters=10)
    reconstruct_channel(y, model, cfg, 128, 32, workers=2)
    assert inline_pool.initializer is initializer
    assert (initializer is None) == (cfg.signal_step == "dr")


@pytest.mark.parametrize("workers", [1, 2])
def test_solved_frames_report_their_share_of_the_solve(workers):
    # a quiet first half passes through; the clipped second half is solved
    # in several stacks
    x, _, theta = clipped_channel(seed=6, n=1024)
    x[:512] *= 0.1 * theta
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=4, strategy="declip", outer_iters=2,
                       inner_iters=20)
    _, report = reconstruct_channel(hard_clip(x, theta).y, model, cfg, 128, 32,
                                    workers=workers)
    solved = [r.wall_ms for r in report.per_frame if r.outer_iter > 0]
    passthrough = [r.wall_ms for r in report.per_frame if r.outer_iter == 0]
    assert len(solved) > 2 * pipeline.FRAMES_PER_STACK and passthrough
    assert min(solved) > 0.0 and set(passthrough) == {0.0}
    if workers == 1:
        assert sum(solved) <= 1000.0 * report.timing_s


def test_frame_specs_treat_padding_as_reliable():
    reliable = np.ones(10, dtype=bool)
    reliable[[1, 8]] = False
    y = np.where(reliable, 1.0, 0.0)
    layout = frame_layout(10, 4, 2)
    model = DegradationModel(kind="drop", reliable=reliable)
    specs = model.frame_specs(y, layout)
    pinned = [spec.pinned.tolist() for spec in specs]
    assert pinned == [[True, False, True, True], [True, True, True, True],
                     [True, True, True, True], [True, True, False, True],
                     [False, True, True, True]]  # samples 10, 11 are padding


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["clip", "quant", "drop"]), n=st.integers(1, 300),
       frame=st.integers(1, 64), hop_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_frame_specs_equal_per_frame_copies(kind, n, frame, hop_share, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    reliable = rng.random(n) > 0.3
    model, y = {
        "clip": (DegradationModel(kind="clip", theta=0.5), hard_clip(x, 0.5).y),
        "quant": (DegradationModel(kind="quant", delta=0.25),
                  uniform_quantize(x, 3).y),
        "drop": (DegradationModel(kind="drop", reliable=reliable),
                 np.where(reliable, x, 0.0)),
    }[kind]
    layout = frame_layout(n, frame, max(1, round(hop_share * frame)))

    def arrays(spec):
        return spec.variant, spec.y.tobytes(), spec.lower.tobytes(), \
            spec.upper.tobytes()

    assert arrays(model.spec_for(y)) == arrays(copy_spec(model, y))
    specs = list(model.frame_specs(y, layout))
    assert [arrays(spec) for spec in specs] == \
        [arrays(spec) for spec in copy_frame_specs(model, y, layout)]
    # every frame inside the channel views it
    assert [np.shares_memory(spec.y, y) for spec in specs] == \
        [k * layout.hop + frame <= n for k in range(layout.n_frames)]


@pytest.mark.parametrize("kind", ["drop", "clip"])
def test_channel_memory_grows_with_the_frame_not_the_file(kind):
    # a long channel with three degraded samples: nearly every frame passes
    # through, so a per-frame copy of the channel would dominate the peak
    n = 2**19
    rng = np.random.default_rng(5)
    x = simulate_ar(random_stable_ar(8, rng), n, rng)
    x = 0.4 * x / np.max(np.abs(x))
    degraded = [1000, 200_000, 400_000]
    x[degraded] = 0.6  # the only samples beyond theta
    reliable = np.ones(n, dtype=bool)
    reliable[degraded] = False
    model, y = {
        "drop": (DegradationModel(kind="drop", reliable=reliable),
                 np.where(reliable, x, 0.0)),
        "clip": (DegradationModel(kind="clip", theta=0.5), hard_clip(x, 0.5).y),
    }[kind]
    cfg = SolverConfig(order=8, strategy="inpaint", outer_iters=2,
                       inner_iters=10)
    tracemalloc.start()
    try:
        reconstruct_channel(y, model, cfg, 256, 64, reference=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * y.nbytes


def test_frame_records_score_what_they_are_given():
    x = np.array([1.0, -1.0, 0.5, 0.0])
    model = DegradationModel(kind="clip", theta=0.5)
    y = np.clip(x, -0.5, 0.5)
    spec = model.spec_for(y)
    estimate = np.zeros(4)
    distance = consistency_distance(estimate, spec)
    steps = [AcsStep(i, q, q, 0.0, 0.0, n, t, 0.1) for i, (q, n, t)
             in enumerate([(4.0, 5, 0.25), (2.0, 10, 0.5), (1.5, 15, 1.25)], 1)]
    full = frame_record(0, estimate, y, spec, x, steps)
    assert full.sdr_db == sdr(x, estimate)
    assert full.delta_sdr_db == sdr(x, estimate) - sdr(x, y)
    assert full.consistency_sq == distance > 0
    assert (full.outer_iter, full.objective, full.inner_iters,
            full.wall_ms) == (3, 1.5, 30, 2000.0)
    bare = [frame_record(0, estimate, reference=np.zeros(4)),
            frame_record(1, x, reference=x)]
    assert [(r.frame_index, r.sdr_db, r.delta_sdr_db, r.consistency_sq,
             r.outer_iter, r.objective, r.inner_iters, r.wall_ms)
            for r in bare] == [(0, None, None, None, 0, None, 0, 0.0),
                               (1, math.inf, None, None, 0, None, 0, 0.0)]


def test_silent_reference_scores_none():
    x, y, theta = clipped_channel(n=600)
    model = DegradationModel(kind="clip", theta=theta)
    cfg = SolverConfig(order=4, strategy="declip", outer_iters=1,
                       inner_iters=20)
    out, report = reconstruct_channel(y, model, cfg, 256, 64,
                                      reference=np.zeros_like(x))
    assert np.all(np.isfinite(out))
    assert report.sdr_db is None and report.delta_sdr_db is None
    assert all(r.sdr_db is None for r in report.per_frame)


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


@pytest.mark.parametrize("gap", [slice(300, 700), slice(924, 1024)],
                         ids=["interior", "padded-last-frame"])
def test_all_zero_frame_does_not_abort_channel(gap):
    # frames inside the gap (or the zero-padded last frame, when the dropout
    # reaches the end) observe nothing but zeros and have no AR fit
    rng = np.random.default_rng(0)
    x = simulate_ar(random_stable_ar(8, rng), 1024, rng)
    reliable = np.ones(1024, dtype=bool)
    reliable[gap] = False
    y = np.where(reliable, x, 0.0)
    cfg = SolverConfig(order=16, strategy="inpaint", outer_iters=3,
                       inner_iters=50)
    model = DegradationModel(kind="drop", reliable=reliable)
    out, report = reconstruct_channel(y, model, cfg, 256, 64, reference=x)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[reliable], y[reliable], atol=1e-12)
    assert report.consistency_sq <= 1e-20
    assert any(r.outer_iter == 3 and r.objective == 0.0
               for r in report.per_frame)


def test_drop_model_needs_matching_mask():
    with pytest.raises(ValueError):
        DegradationModel(kind="drop")
    model = DegradationModel(kind="drop", reliable=np.ones(10, dtype=bool))
    with pytest.raises(ValueError):
        model.spec_for(np.zeros(4))
    # an index array is not a mask: it is rejected, not cast to bool
    with pytest.raises(ValueError, match="mask must be a boolean array, "
                                         "got dtype int64"):
        DegradationModel(kind="drop", reliable=np.array([0, 2, 3], dtype=np.int64))


@pytest.mark.parametrize("solve", [False, True])
def test_worker_count_must_be_positive(solve):
    _, y, theta = clipped_channel(n=300)
    cfg = SolverConfig(order=4, strategy="declip", lambda_c=1e-3,
                       lambda_s=math.inf, outer_iters=1, inner_iters=10,
                       acceleration=frozenset()) if solve else None
    with pytest.raises(ValueError, match="worker count must be positive"):
        reconstruct_channel(y, DegradationModel(kind="clip", theta=theta), cfg,
                            64, 16, workers=0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("degraded", [False, True])
@pytest.mark.parametrize("kind, strategy", [("clip", "dequant"), ("drop", "glp")])
def test_a_box_the_strategy_does_not_take_fails_before_any_solve(
        monkeypatch, kind, strategy, degraded, workers):
    _, y, theta = clipped_channel(n=300)
    reliable = np.ones(y.size, dtype=bool)
    if degraded:
        reliable[100] = False
    else:  # no sample reaches theta
        y = 0.5 * theta * y / np.max(np.abs(y))
    model = (DegradationModel(kind="clip", theta=theta) if kind == "clip" else
             DegradationModel(kind="drop", reliable=reliable))
    cfg = SolverConfig(order=4, strategy=strategy, outer_iters=1, inner_iters=10)
    calls = []
    estimates = pipeline._frame_estimates
    monkeypatch.setattr(pipeline, "_frame_estimates",
                        lambda *args: calls.append(args) or estimates(*args))
    with pytest.raises(ValueError, match=f"strategy '{strategy}' takes"):
        reconstruct_channel(y, model, cfg, 64, 16, workers=workers)
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["beyond theta", "quant nan", "drop nan",
                                  "short mask"])
def test_an_invalid_channel_fails_before_any_solve(monkeypatch, case, workers):
    # every frame before the bad sample is degraded: a check made frame by
    # frame would solve them first
    n = 4096
    rng = np.random.default_rng(3)
    x = simulate_ar(random_stable_ar(4, rng), n, rng)
    x = 0.9 * x / np.max(np.abs(x))
    reliable = np.arange(n) % 50 != 0
    model, y, strategy, match = {
        "beyond theta": (DegradationModel(kind="clip", theta=0.5),
                         hard_clip(x, 0.5).y, "inpaint", "exceeds"),
        "quant nan": (DegradationModel(kind="quant", delta=0.125),
                      uniform_quantize(x, 4).y, "dequant", "non-finite"),
        "drop nan": (DegradationModel(kind="drop", reliable=reliable),
                     np.where(reliable, x, 0.0), "inpaint", "non-finite"),
        "short mask": (DegradationModel(kind="drop", reliable=reliable[:-96]),
                       np.where(reliable, x, 0.0), "inpaint", "length 4096"),
    }[case]
    if case != "short mask":  # the bad sample lies in the last frame
        y[-1] = 0.6 if case == "beyond theta" else math.nan
    cfg = SolverConfig(order=4, strategy=strategy, outer_iters=1, inner_iters=10)
    calls = []
    estimates = pipeline._frame_estimates
    monkeypatch.setattr(pipeline, "_frame_estimates",
                        lambda *args: calls.append(args) or estimates(*args))
    with pytest.raises(ValueError, match=match):
        reconstruct_channel(y, model, cfg, 256, 64, workers=workers)
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["degraded", "clean", "silent"])
def test_an_order_not_below_the_frame_fails_before_any_solve(monkeypatch, case,
                                                             workers):
    # a clean channel has no frame to solve, and a silent frame starts from
    # the unit filter without an AR fit: neither reaches the fit's own check
    _, y, theta = clipped_channel(n=300)
    model = DegradationModel(kind="clip", theta=theta)
    strategy = "declip"
    if case == "clean":  # no sample reaches theta
        y = 0.5 * theta * y / np.max(np.abs(y))
    elif case == "silent":  # every sample missing, so every frame is zero
        y = np.zeros(300)
        model = DegradationModel(kind="drop", reliable=np.zeros(300, dtype=bool))
        strategy = "inpaint"
    cfg = SolverConfig(order=64, strategy=strategy, outer_iters=1, inner_iters=10)
    calls = []
    estimates = pipeline._frame_estimates
    monkeypatch.setattr(pipeline, "_frame_estimates",
                        lambda *args: calls.append(args) or estimates(*args))
    with pytest.raises(ValueError, match="model order 64 must be below the "
                                         "frame length 64"):
        reconstruct_channel(y, model, cfg, 64, 16, workers=workers)
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
def test_report_rows_are_read_off_each_frames_own_trace(workers):
    # a 100-sample gap gives a run of solved frames longer than a stack, and
    # the frames away from it pass through; a solved row's solver columns
    # are those of its frame's lone acs_run trace
    rng = np.random.default_rng(5)
    n, frame, hop = 1024, 64, 16
    x = simulate_ar(random_stable_ar(4, rng), n, rng)
    reliable = np.ones(n, dtype=bool)
    reliable[400:500] = False
    y = np.where(reliable, x, 0.0)
    model = DegradationModel(kind="drop", reliable=reliable)
    cfg = SolverConfig(order=4, strategy="inpaint", lambda_c=1e-3, outer_iters=3,
                       inner_iters=tuple(progressive_schedule(1, 2, 3)))
    _, report = reconstruct_channel(y, model, cfg, frame, hop, workers=workers)
    specs = list(model.frame_specs(y, frame_layout(n, frame, hop)))
    assert len(specs) == len(report.per_frame)
    solved = 0
    for spec, row in zip(specs, report.per_frame):
        got = (row.outer_iter, row.objective, row.inner_iters)
        if spec.pinned.all():
            assert got == (0, None, 0)
            continue
        _, _, trace = acs_run(spec, cfg)
        assert got == (len(trace), trace[-1].objective,
                       sum(step.inner_iters for step in trace)) == (
                           3, trace[-1].objective, 10 + 32 + 100)
        solved += 1
    assert pipeline.FRAMES_PER_STACK < solved < len(specs)


# one all-pinned frame for every box: y lies inside (-1, 1) and away from zero,
# so a quantization step far below its ulp pins every sample too
_PINNED_MODELS = {
    "declip": DegradationModel(kind="clip", theta=1.0),
    "inpaint": DegradationModel(kind="drop", reliable=np.ones(64, dtype=bool)),
    "dequant": DegradationModel(kind="quant", delta=1e-20),
}


@pytest.mark.parametrize("lambda_s", [1.0, math.inf])
@pytest.mark.parametrize("strategy, variant", [
    (strategy, variant) for strategy, boxes in solver_mod.STRATEGIES.items()
    for variant in boxes])
def test_skip_rule_agrees_with_the_solver(strategy, variant, lambda_s):
    y = 0.5 + 0.4 * np.sin(np.arange(64) / 3.0)
    model = _PINNED_MODELS[variant]
    spec = model.spec_for(y)
    assert spec.variant == variant and spec.pinned.all()
    cfg = SolverConfig(order=4, strategy=strategy, lambda_c=1e-3,
                       lambda_s=lambda_s, outer_iters=2, inner_iters=20)
    # the solver returns the observation bit for bit exactly when the rule
    # lets the pipeline skip the frame
    _, x, _ = solver_mod.acs_run(spec, cfg)
    assert (x.tobytes() == y.tobytes()) == cfg.keeps_pinned
    _, report = reconstruct_channel(y, model, cfg, 64, 64)
    assert [r.outer_iter > 0 for r in report.per_frame] == [not cfg.keeps_pinned]


def _dequant_channel(n, seed=6):
    rng = np.random.default_rng(seed)
    x = simulate_ar(random_stable_ar(4, rng), n, rng)
    obs = uniform_quantize(x / np.max(np.abs(x)), 3)
    return x, obs.y, DegradationModel(kind="quant", delta=obs.delta)


def test_stacks_give_the_bits_of_single_frames_at_every_worker_count(monkeypatch):
    # nine solved frames: two full stacks and a stack of one, so stacks
    # cross the pool's tasks; worker counts and frame-by-frame solves agree
    x, y, model = _dequant_channel(288)
    cfg = SolverConfig(order=4, strategy="dequant", lambda_c=1e-3,
                       outer_iters=2, inner_iters=30)

    def run(workers):
        out, report = reconstruct_channel(y, model, cfg, 64, 32, workers=workers,
                                          reference=x)
        assert sum(r.outer_iter > 0 for r in report.per_frame) == 9
        rows = [dataclasses.replace(r, wall_ms=0.0) for r in report.per_frame]
        return out.tobytes(), repr(rows)

    runs = [run(workers) for workers in (1, 2, 3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    monkeypatch.setattr(pipeline, "FRAMES_PER_STACK", 1)
    assert run(1) == runs[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_diverging_row_stops_its_stack_and_reaches_the_caller(monkeypatch,
                                                              workers):
    # from the second outer iteration on, the coefficient DR state of the
    # second row of every stack turns non-finite; pool workers fork after
    # the patch, so they see it too
    _, y, model = _dequant_channel(288)
    cfg = SolverConfig(order=4, strategy="dequant", outer_iters=2,
                       inner_iters=10)
    _, first = reconstruct_channel(y, model, SolverConfig(
        order=4, strategy="dequant", outer_iters=1, inner_iters=10), 64, 32)
    real = solver_mod.update_coefficients

    def poisoned(*args, state=None, **kwargs):
        if state is not None and len(state) > 1:
            state = state.copy()
            state[1] = np.nan
        return real(*args, state=state, **kwargs)

    monkeypatch.setattr(solver_mod, "update_coefficients", poisoned)
    with pytest.raises(SolverError, match="in row 1$") as err:
        reconstruct_channel(y, model, cfg, 64, 32, workers=workers)
    assert (err.value.reason, err.value.row) == (
        "non-finite iterate at inner iteration 1", 1)
    assert len(err.value.trace) == 1  # it diverged in outer iteration 2
    # the first stack's row 1 is frame 1: its one finished step, not frame 0's
    objectives = [r.objective for r in first.per_frame[:2]]
    assert objectives[0] != objectives[1]
    assert [e.objective for e in err.value.trace] == objectives[1:]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failure", ["growth", "divergence"])
def test_a_failing_row_names_itself_and_carries_its_own_trace(monkeypatch,
                                                              failure, workers):
    # stacks of three frames; from the second outer iteration on, row 2 of
    # every stack grows past the guard or gets a non-finite coefficient DR
    # state, and the first stack's error reaches the caller from any worker
    # count (pool workers fork after the patches)
    _, y, model = _dequant_channel(288)
    monkeypatch.setattr(pipeline, "FRAMES_PER_STACK", 3)
    _, first = reconstruct_channel(y, model, SolverConfig(
        order=4, strategy="dequant", outer_iters=1, inner_iters=10), 64, 32)
    real = solver_mod.update_coefficients

    def failing(x, a_prev, cfg, *, inner_iters, state=None):
        if state is not None and failure == "divergence":
            state = state.copy()
            state[2] = np.nan
        a, z = real(x, a_prev, cfg, inner_iters=inner_iters, state=state)
        if state is not None and failure == "growth":
            a = a.copy()
            a[2, 1] = 1e7
        return a, z

    monkeypatch.setattr(solver_mod, "update_coefficients", failing)
    cfg = SolverConfig(order=4, strategy="dequant", outer_iters=3, inner_iters=10)
    with pytest.raises(SolverError, match="in row 2$") as err:
        reconstruct_channel(y, model, cfg, 64, 32, workers=workers)
    assert err.value.row == 2
    if failure == "growth":
        assert err.value.reason.startswith("the model is growing disproportionately")
        assert "consider lambda_c > 0" in err.value.reason
        assert len(err.value.trace) == 2  # the step that grew is the last entry
    else:
        assert err.value.reason == "non-finite iterate at inner iteration 1"
        assert len(err.value.trace) == 1  # outer iteration 2 never finished
    # row 2 of the first stack is frame 2: its own first step
    objectives = [r.objective for r in first.per_frame[:3]]
    assert len(set(objectives)) == 3
    assert err.value.trace[0].objective == objectives[2]


_SIGN_ACCEL = {"none": frozenset(),
               "extrapolate": frozenset({"extrapolate_signal", "extrapolate_coefs"}),
               "line_search": frozenset({"line_search"})}


def _sign_examples(test):
    """The 15 configurations, each at seed 0: every strategy with every
    acceleration, and declip at finite lambda_s too."""
    for strategy in ("declip", "dequant", "inpaint", "glp"):
        for accel in _SIGN_ACCEL:
            for finite in (False, True) if strategy == "declip" else (False,):
                test = example(strategy=strategy, accel=accel,
                               finite_lambda_s=finite, seed=0)(test)
    return test


@settings(max_examples=10, deadline=None, derandomize=True)
@given(strategy=st.sampled_from(["declip", "dequant", "inpaint", "glp"]),
       accel=st.sampled_from(sorted(_SIGN_ACCEL)),
       finite_lambda_s=st.booleans(), seed=st.integers(0, 3))
@_sign_examples
def test_a_negated_observation_restores_to_the_negated_signal(
        strategy, accel, finite_lambda_s, seed):
    # every box, step and acceleration is odd in the signal: negating the
    # observation negates the reconstruction bit for bit, so neither the
    # declip slack nor any rounding favours +theta over -theta.  The one
    # exception is the sign of a zero: a dequant bound y +- delta/2 that is
    # zero is +0.0 on either side, so a sample projected onto it stays +0.0
    rng = np.random.default_rng(seed)
    x = simulate_ar(random_stable_ar(12, rng), 2048, rng)
    x = x / np.max(np.abs(x))
    if strategy == "dequant":
        obs = uniform_quantize(x, 4)
        model, y = DegradationModel(kind="quant", delta=obs.delta), obs.y
    elif strategy == "inpaint":
        reliable = rng.random(x.size) > 0.1
        model = DegradationModel(kind="drop", reliable=reliable)
        y = np.where(reliable, x, 0.0)
    else:
        model, y = DegradationModel(kind="clip", theta=0.5), hard_clip(x, 0.5).y
    cfg = SolverConfig(order=16, strategy=strategy, lambda_c=1e-3,
                       lambda_s=10.0 if finite_lambda_s and strategy == "declip"
                       else math.inf, outer_iters=4, inner_iters=30,
                       acceleration=_SIGN_ACCEL[accel])
    out, report = reconstruct_channel(y, model, cfg, 512, 128)
    flipped, flipped_report = reconstruct_channel(-y, model, cfg, 512, 128)
    differ = flipped.view(np.uint64) != (-out).view(np.uint64)
    assert not np.any(out[differ]), "only zeros may differ, in sign"
    assert flipped_report.consistency_sq == report.consistency_sq
