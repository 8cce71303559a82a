"""Frame segmentation and windowed overlap-add synthesis.

Analysis uses plain rectangular slices; synthesis applies a window and
normalizes by the summed window, which reconstructs unmodified frames
exactly for any hop and any window that stays positive where it counts.
"""

from dataclasses import dataclass

import numpy as np

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

    def start(self, k: int) -> int:
        """First sample of frame k."""
        return k * self.hop


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


def segment(x, layout: FrameLayout) -> list[np.ndarray]:
    """Cut the signal into rectangular frames according to the layout."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("empty input")
    if x.size != layout.n_samples:
        raise ValueError("signal length does not match the layout")
    padded = np.concatenate((x, np.zeros(layout.pad_end)))
    return [padded[layout.start(k): layout.start(k) + layout.frame_length].copy()
            for k in range(layout.n_frames)]


def sine_window(frame_length: int) -> np.ndarray:
    """Half-sine synthesis window g[n] = sin(pi (n + 1/2) / w)."""
    if frame_length < 1:
        raise ValueError("window length must be positive")
    n = np.arange(frame_length)
    return np.sin(np.pi * (n + 0.5) / frame_length)


def overlap_add(frames, layout: FrameLayout, window) -> np.ndarray:
    """Windowed overlap-add synthesis normalized by the summed window.

    Accumulation runs in ascending frame order so the result is bitwise
    deterministic.  Positions where the summed window vanishes are an error
    (the layout/window combination does not cover them).
    """
    window = np.asarray(window, dtype=float)
    if window.shape != (layout.frame_length,):
        raise ValueError("window length must equal the frame length")
    if len(frames) != layout.n_frames:
        raise ValueError("frame count does not match the layout")
    total = (layout.n_frames - 1) * layout.hop + layout.frame_length
    acc = np.zeros(total)
    norm = np.zeros(total)
    for k, frame in enumerate(frames):
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (layout.frame_length,):
            raise ValueError(f"frame {k} has the wrong length")
        s = layout.start(k)
        acc[s: s + layout.frame_length] += window * frame
        norm[s: s + layout.frame_length] += window
    norm_used = norm[: layout.n_samples]
    if np.any(norm_used == 0.0):
        bad = int(np.flatnonzero(norm_used == 0.0)[0])
        raise ValueError(f"window sum vanishes at sample {bad}")
    return acc[: layout.n_samples] / norm_used
