"""Frame segmentation and windowed overlap-add synthesis.

Analysis views rectangular frames without copying; synthesis applies a
window and normalizes by the summed window, which reconstructs unmodified
frames exactly for any hop and any window that stays positive where it counts.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["FrameLayout", "frame_layout", "segment", "sine_window", "overlap_add"]


@dataclass(frozen=True)
class FrameLayout:
    """Placement of overlapping frames over a signal.

    Frame k covers samples [k*hop, k*hop + frame_length) for k < n_frames =
    ceil(n_samples / hop), so every sample is covered; trailing zeros make
    the last frame full length.
    """

    frame_length: int
    hop: int
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("empty input")
        if not 1 <= self.hop <= self.frame_length:
            raise ValueError("hop must satisfy 1 <= hop <= frame_length")

    @property
    def n_frames(self) -> int:
        return -(-self.n_samples // self.hop)


def frame_layout(n_samples: int, frame_length: int, hop: int) -> FrameLayout:
    """Layout placing a frame at every hop that still contains signal."""
    return FrameLayout(frame_length, hop, n_samples)


def segment(x, layout: FrameLayout) -> list[np.ndarray]:
    """Frames as read-only rows (row k is frame k) of x, which has the
    layout's length; the rows keep x's dtype.

    Frames inside x view x (made contiguous first); only the last ones, which
    reach into the end padding, view one short zero-padded copy of the tail.
    """
    x = np.ascontiguousarray(x)
    if x.shape != (layout.n_samples,):
        raise ValueError("signal length does not match the layout")
    w, h = layout.frame_length, layout.hop
    rows = list(sliding_window_view(x, w)[::h]) if x.size >= w else []
    if len(rows) < layout.n_frames:
        tail = np.zeros((layout.n_frames - len(rows) - 1) * h + w, dtype=x.dtype)
        tail[: x.size - len(rows) * h] = x[len(rows) * h:]
        rows += list(sliding_window_view(tail, w)[::h])
    return rows


def sine_window(frame_length: int) -> np.ndarray:
    """Half-sine synthesis window g[n] = sin(pi (n + 1/2) / w)."""
    if frame_length < 1:
        raise ValueError("window length must be positive")
    n = np.arange(frame_length)
    return np.sin(np.pi * (n + 0.5) / frame_length)


def overlap_add(frames, layout: FrameLayout, window) -> np.ndarray:
    """Windowed overlap-add synthesis normalized by the summed window.

    ``frames`` may be any iterable; each frame is added as it arrives, in
    frame order, so the result is bitwise deterministic.  Positions where the
    summed window vanishes are an error (the layout does not cover them).
    """
    window = np.asarray(window, dtype=float)
    if window.shape != (layout.frame_length,):
        raise ValueError("window length must equal the frame length")
    total = (layout.n_frames - 1) * layout.hop + layout.frame_length
    acc = np.zeros(total)
    norm = np.zeros(total)
    k = -1
    for k, frame in enumerate(frames):
        frame = np.asarray(frame, dtype=float)
        if k >= layout.n_frames or frame.shape != (layout.frame_length,):
            raise ValueError(f"frame {k} does not fit the layout")
        s = k * layout.hop
        acc[s: s + layout.frame_length] += window * frame
        norm[s: s + layout.frame_length] += window
    if k + 1 != layout.n_frames:
        raise ValueError("frame count does not match the layout")
    norm_used = norm[: layout.n_samples]
    if np.any(norm_used == 0.0):
        bad = int(np.flatnonzero(norm_used == 0.0)[0])
        raise ValueError(f"window sum vanishes at sample {bad}")
    return np.divide(acc[: layout.n_samples], norm_used, out=acc[: layout.n_samples])
