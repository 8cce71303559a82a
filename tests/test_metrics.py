import math

import numpy as np
import pytest

from regar.degrade import hard_clip
from regar.metrics import (FrameRecord, ReconstructionReport,
                           consistency_distance, sdr, sdr_scores)
from regar.prox import ConsistencySpec, project_consistency
from regar.solver import glp_rectify


def test_sdr_examples():
    y = np.array([1.0, -2.0, 0.5])
    assert sdr(y, y) == math.inf
    assert sdr(y, np.zeros(3)) == pytest.approx(0.0)
    assert sdr(y, 0.9 * y) == pytest.approx(20.0)


def test_sdr_scale_invariance():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(64)
    x = rng.standard_normal(64)
    base = sdr(y, x)
    for alpha in (2.0, -3.5, 0.01):
        assert sdr(alpha * y, alpha * x) == pytest.approx(base, rel=1e-12)


def test_sdr_errors():
    with pytest.raises(ValueError):
        sdr(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        sdr(np.ones(4), np.ones(5))


def test_sdr_scores_gain_undefined_when_both_are_exact():
    y = np.array([1.0, -2.0, 0.5])
    assert sdr_scores(y, y, y) == (math.inf, None)
    assert sdr_scores(y, y, 0.9 * y) == (math.inf, math.inf)
    assert sdr_scores(y, 0.9 * y, y) == (pytest.approx(20.0), -math.inf)
    assert sdr_scores(y, y) == (math.inf, None)


def test_consistency_distance():
    spec = ConsistencySpec.dequant(np.zeros(1), 2.0)  # box [-1, 1]
    assert consistency_distance(np.array([0.3]), spec) == 0.0
    assert consistency_distance(np.array([2.0]), spec) == pytest.approx(0.5)


def test_consistency_distance_zero_iff_projection_fixes():
    rng = np.random.default_rng(1)
    y = hard_clip(rng.uniform(-2, 2, size=32), 0.5).y
    spec = ConsistencySpec.declip(y, 0.5)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=32)
        fixed = np.array_equal(project_consistency(x, spec), x)
        assert (consistency_distance(x, spec) == 0.0) == fixed


def test_glp_output_has_zero_distance():
    rng = np.random.default_rng(2)
    y = hard_clip(rng.uniform(-2, 2, size=48), 0.4).y
    spec = ConsistencySpec.declip(y, 0.4)
    rectified = glp_rectify(rng.uniform(-2, 2, size=48), spec)
    assert consistency_distance(rectified, spec) == 0.0


def test_report_mean_frame_sdr():
    def record(i, value):
        return FrameRecord(frame_index=i, sdr_db=value, delta_sdr_db=None,
                           consistency_sq=0.0, outer_iter=0, objective=None,
                           inner_iters=0, wall_ms=0.0)

    report = ReconstructionReport(sdr_db=None, delta_sdr_db=None,
                                  consistency_sq=None,
                                  per_frame=[record(0, 10.0), record(1, 20.0)])
    assert report.mean_frame_sdr_db == pytest.approx(15.0)
    empty = ReconstructionReport(sdr_db=None, delta_sdr_db=None,
                                 consistency_sq=None)
    assert empty.mean_frame_sdr_db is None
