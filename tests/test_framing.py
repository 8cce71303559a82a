import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.array_utils import byte_bounds

from oracles import copy_overlap_add, copy_segment
from regar.framing import frame_layout, overlap_add, segment, sine_window

layouts = st.integers(1, 300).flatmap(lambda n: st.integers(1, 64).flatmap(
    lambda w: st.integers(1, w).map(lambda h: frame_layout(n, w, h))))


def test_single_frame_layout():
    x = np.arange(6, dtype=float)
    layout = frame_layout(6, 6, 6)
    frames = segment(x, layout)
    assert layout.n_frames == 1
    np.testing.assert_array_equal(frames[0], x)


def test_segment_examples():
    frames = segment([1.0, 2.0, 3.0, 4.0], frame_layout(4, 2, 2))
    np.testing.assert_array_equal(frames[0], [1.0, 2.0])
    np.testing.assert_array_equal(frames[1], [3.0, 4.0])

    layout = frame_layout(6, 4, 2)
    frames = segment(np.arange(1.0, 7.0), layout)
    assert layout.n_frames == 3
    np.testing.assert_array_equal(frames[2], [5.0, 6.0, 0.0, 0.0])


def test_layout_validation():
    with pytest.raises(ValueError):
        frame_layout(0, 4, 2)
    with pytest.raises(ValueError):
        frame_layout(8, 4, 0)
    with pytest.raises(ValueError):
        frame_layout(8, 4, 5)
    with pytest.raises(ValueError):
        segment([], frame_layout(1, 1, 1))


def test_sine_window_values():
    w2 = sine_window(2)
    np.testing.assert_allclose(w2, [np.sqrt(2) / 2] * 2, atol=1e-15)
    w4 = sine_window(4)
    np.testing.assert_allclose(w4, [0.3827, 0.9239, 0.9239, 0.3827], atol=5e-5)


def test_sine_window_symmetric_with_peak_below_one():
    for w in (2, 4, 16, 2048):
        g = sine_window(w)
        np.testing.assert_allclose(g, g[::-1], atol=1e-15)
        assert 0.0 < g.max() < 1.0


def test_overlap_add_single_frame_rectangular():
    x = np.array([0.4, -0.2, 0.9])
    layout = frame_layout(3, 3, 3)
    out = overlap_add([x], layout, np.ones(3))
    np.testing.assert_allclose(out, x, atol=1e-15)


@pytest.mark.parametrize("w,h", [(2048, 512), (8192, 2048), (64, 17), (32, 32)])
def test_round_trip_identity(w, h):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(44100)
    layout = frame_layout(x.size, w, h)
    out = overlap_add(segment(x, layout), layout, sine_window(w))
    assert np.max(np.abs(out - x)) <= 1e-12 * np.max(np.abs(x))


def test_constant_input_stays_constant():
    layout = frame_layout(10, 4, 2)
    x = np.full(10, 0.7)
    frames = segment(x, layout)
    out = overlap_add(frames, layout, sine_window(4))
    np.testing.assert_allclose(out, x, atol=1e-14)


def test_analysis_synthesis_linearity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(300)
    z = rng.standard_normal(300)
    layout = frame_layout(300, 64, 16)
    win = sine_window(64)

    def chain(v):
        return overlap_add(segment(v, layout), layout, win)

    lhs = chain(2.0 * x - 3.0 * z)
    rhs = 2.0 * chain(x) - 3.0 * chain(z)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_zero_window_sum_is_an_error():
    layout = frame_layout(8, 4, 4)
    frames = segment(np.ones(8), layout)
    window = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="window sum vanishes"):
        overlap_add(frames, layout, window)


def test_overlap_add_validation():
    layout = frame_layout(8, 4, 2)
    frames = segment(np.ones(8), layout)
    with pytest.raises(ValueError):
        overlap_add(frames[:-1], layout, sine_window(4))
    with pytest.raises(ValueError):
        overlap_add(iter([*frames, frames[0]]), layout, sine_window(4))
    with pytest.raises(ValueError):
        overlap_add(frames, layout, sine_window(3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layout=layouts)
def test_segment_views_the_signal_and_one_padded_tail(layout):
    x = np.arange(1.0, layout.n_samples + 1)
    rows = segment(x, layout)
    assert [row.tobytes() for row in rows] == \
        [frame.tobytes() for frame in copy_segment(x, layout)]
    w, h, size = layout.frame_length, layout.hop, x.itemsize
    inside = sum(k * h + w <= x.size for k in range(layout.n_frames))
    assert [np.shares_memory(row, x) for row in rows] == \
        [k < inside for k in range(layout.n_frames)]
    assert layout.n_frames - inside <= -(-w // h)
    # the inside rows start every hop into x; the tail rows every hop into
    # one buffer that ends with the last frame
    starts = [byte_bounds(row)[0] for row in rows]
    assert [s - byte_bounds(x)[0] for s in starts[:inside]] == \
        [k * h * size for k in range(inside)]
    tail = starts[inside:]
    assert [s - tail[0] for s in tail] == [k * h * size for k in range(len(tail))]
    if tail:
        assert byte_bounds(rows[-1])[1] - tail[0] == \
            ((len(tail) - 1) * h + w) * size
    for row in (rows[0], rows[-1]):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    strided = np.stack((x, x), axis=1)[:, 0]  # a stereo file's channel
    assert all(row.flags.c_contiguous for row in segment(strided, layout))
    # a mask frames as bool rows, padded with False
    mask = x % 3 == 0
    mask_rows = segment(mask, layout)
    assert all(row.dtype == bool for row in mask_rows)
    assert [row.tolist() for row in mask_rows] == \
        [(frame != 0.0).tolist() for frame in copy_segment(mask, layout)]
    padded_length = (layout.n_frames - 1) * h + w
    if padded_length > x.size:
        with pytest.raises(ValueError, match="length does not match"):
            segment(np.zeros(padded_length), layout)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layout=layouts, seed=st.integers(0, 2**16))
def test_overlap_add_streams_what_it_is_given(layout, seed):
    frames = list(np.random.default_rng(seed).standard_normal(
        (layout.n_frames, layout.frame_length)))
    window = sine_window(layout.frame_length)
    from_list = overlap_add(frames, layout, window)
    from_stream = overlap_add((frame for frame in frames), layout, window)
    assert from_stream.tobytes() == from_list.tobytes() == \
        copy_overlap_add(frames, layout, window).tobytes()
