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

    Frame k covers samples [k*hop, k*hop + frame_length); the signal is
    zero-padded at the end so the last frame is full length.
    """

    frame_length: int
    hop: int
    n_frames: int
    n_samples: int
    pad_end: int = 0

    def __post_init__(self):
        if not 1 <= self.hop <= self.frame_length:
            raise ValueError("hop must satisfy 1 <= hop <= frame_length")
        if self.n_frames < 1:
            raise ValueError("need at least one frame")
        covered = (self.n_frames - 1) * self.hop + self.frame_length
        if covered < self.n_samples:
            raise ValueError("layout does not cover the signal")


def frame_layout(n_samples: int, frame_length: int, hop: int) -> FrameLayout:
    """Layout placing a frame at every hop that still contains signal.

    n_frames = ceil(n / hop), so every sample is covered and the last frame
    is padded with trailing zeros up to the full frame length.
    """
    if n_samples < 1:
        raise ValueError("empty input")
    if not 1 <= hop <= frame_length:
        raise ValueError("hop must satisfy 1 <= hop <= frame_length")
    n_frames = int(np.ceil(n_samples / hop))
    pad_end = (n_frames - 1) * hop + frame_length - n_samples
    return FrameLayout(frame_length=frame_length, hop=hop, n_frames=n_frames,
                       n_samples=n_samples, pad_end=pad_end)


def segment(x, layout: FrameLayout) -> np.ndarray:
    """Frames as read-only rows (row k is frame k) over one contiguous buffer
    of the layout's padded length: x itself if it is one, else a copy."""
    x = np.asarray(x, dtype=float)
    if x.shape == (layout.n_samples,) and layout.pad_end:
        x = np.concatenate((x, np.zeros(layout.pad_end)))
    if x.shape != (layout.n_samples + layout.pad_end,):
        raise ValueError("signal length does not match the layout")
    return sliding_window_view(np.ascontiguousarray(x),
                               layout.frame_length)[::layout.hop]


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
