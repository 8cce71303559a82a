import numpy as np
import pytest

from regar.degrade import (drop_samples, hard_clip, quantizer_step,
                           uniform_quantize)
from regar.prox import ConsistencySpec


def test_hard_clip_examples():
    obs = hard_clip([0.1, -0.5, 0.9], 0.5)
    np.testing.assert_array_equal(obs.y, [0.1, -0.5, 0.5])

    x = np.array([0.2, -0.3, 0.1])
    np.testing.assert_array_equal(hard_clip(x, 0.5).y, x)

    np.testing.assert_array_equal(hard_clip([2.0, -3.0], 1.0).y, [1.0, -1.0])


def test_hard_clip_errors():
    with pytest.raises(ValueError):
        hard_clip([0.1], 0.0)
    with pytest.raises(ValueError):
        hard_clip([0.1], -1.0)
    with pytest.raises(ValueError):
        hard_clip([np.nan], 0.5)


def test_hard_clip_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=64)
        theta = float(rng.uniform(0.1, 1.5))
        once = hard_clip(x, theta).y
        twice = hard_clip(once, theta).y
        np.testing.assert_array_equal(once, twice)


def test_derive_clip_masks_examples():
    spec = ConsistencySpec.declip([0.2, 0.5, -0.5], 0.5)
    np.testing.assert_array_equal(spec.lower, [0.2, 0.5, -np.inf])
    np.testing.assert_array_equal(spec.upper, [0.2, np.inf, -0.5])
    np.testing.assert_array_equal(spec.pinned, [True, False, False])

    inside = ConsistencySpec.declip([0.1, -0.2, 0.0], 0.5)
    assert inside.pinned.all()
    np.testing.assert_array_equal(inside.lower, inside.y)

    at_level = ConsistencySpec.declip([0.5, 0.5, 0.5], 0.5)
    assert not at_level.pinned.any()
    np.testing.assert_array_equal(at_level.lower, [0.5, 0.5, 0.5])
    assert np.all(at_level.upper == np.inf)


def test_derive_clip_masks_rejects_overshoot():
    with pytest.raises(ValueError, match="exceeds the clipping threshold"):
        ConsistencySpec.declip([0.6], 0.5)
    # within the explicit tolerance it classifies instead of raising
    spec = ConsistencySpec.declip([0.5 + 1e-8], 0.5, tol=1e-6)
    assert (spec.lower[0], spec.upper[0]) == (0.5, np.inf)
    # a sample within tol of the level is clipped, so its box is not pinned
    spec = ConsistencySpec.declip([0.5 - 1e-8, -0.5 + 1e-8], 0.5, tol=1e-6)
    np.testing.assert_array_equal(spec.lower, [0.5, -np.inf])
    np.testing.assert_array_equal(spec.upper, [np.inf, -0.5])


def test_declip_rejects_bad_threshold_and_tolerance():
    with pytest.raises(ValueError, match="threshold must be positive"):
        ConsistencySpec.declip([0.1], 0.0)
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        ConsistencySpec.declip([0.1], 0.5, tol=-1e-3)
    with pytest.raises(ValueError, match="non-finite"):
        ConsistencySpec.declip([np.nan], 0.5)


def test_masks_from_clip_match_original_signal():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=256)
    theta = 0.8
    obs = hard_clip(x, theta)
    spec = ConsistencySpec.declip(obs.y, obs.theta)
    np.testing.assert_array_equal(spec.pinned, np.abs(x) < theta)


def test_quantize_step_anchor():
    # 5 bits <-> 32 levels with step 0.0625
    assert uniform_quantize([0.0], 5).delta == 0.0625


def test_quantize_examples():
    assert uniform_quantize([0.3], 1).y[0] == 0.5
    assert uniform_quantize([-0.3], 1).y[0] == -0.5
    assert uniform_quantize([0.26], 3).y[0] == 0.375


def test_quantize_zero_and_full_scale():
    # sgn+(0) = +1, so zero maps to the positive half step
    obs = uniform_quantize([0.0], 3)
    assert obs.y[0] == 0.125
    # the formula applies literally at full scale (level above 1)
    assert uniform_quantize([1.0], 5).y[0] == 1.03125


def test_quantize_idempotent_and_bounded():
    rng = np.random.default_rng(2)
    for w in (1, 3, 5, 8):
        x = rng.uniform(-1, 1, size=128)
        obs = uniform_quantize(x, w)
        again = uniform_quantize(obs.y, w)
        np.testing.assert_array_equal(obs.y, again.y)
        assert np.max(np.abs(x - obs.y)) <= obs.delta / 2


def test_quantize_errors():
    with pytest.raises(ValueError):
        uniform_quantize([0.1], 0)


def test_word_length_runs_from_1_to_53_bits():
    assert [quantizer_step(w) for w in (1, 5, 53)] == [1.0, 0.0625, 2.0 ** -52]
    # at 53 bits every sample is still an odd multiple of half a step; one
    # bit more and float64 cannot hold the midpoints
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 10_000)
    halves = uniform_quantize(x, 53).y / 2.0 ** -53
    assert np.all(np.mod(halves, 2.0) == 1.0)
    for w, message in ((0, "at least 1 bit"), (54, "at most 53 bits")):
        with pytest.raises(ValueError, match=message):
            uniform_quantize(x, w)


def test_drop_samples():
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(drop_samples(x, np.ones(3, dtype=bool)), x)
    np.testing.assert_array_equal(drop_samples(x, np.zeros(3, dtype=bool)),
                                  np.zeros(3))
    np.testing.assert_array_equal(drop_samples(x, np.array([True, False, True])),
                                  [1.0, 0.0, 3.0])


def test_drop_samples_rejects_bad_masks():
    with pytest.raises(ValueError, match="length 2"):
        drop_samples([1.0, 2.0], np.ones(3, dtype=bool))
    # an index array is refused, not cast to a mask
    with pytest.raises(ValueError, match="boolean"):
        drop_samples([1.0, 2.0], np.array([0, 1]))
