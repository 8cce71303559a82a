"""The four benchmark workloads: seeded inputs, the timed call, the output checks.

Every workload builds its inputs from the seed with the package's own
generators (``simulate_ar``, ``hard_clip``, ``uniform_quantize``, dropped
gaps) before any timing starts; the program then receives only the generated
arrays or WAV files.  The AR models are fixed per workload and the seed draws
the excitation, so the amount of solver work does not depend on the seed:
the solved-frame count, the missing-sample count per frame and the inner
iteration count are the same for every seed.

``tiny=True`` shrinks every workload to a size that runs in about a second,
for the smoke tests; it keeps the code paths (strategy, worker count, CLI).
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from regar import (AudioBuffer, DegradationModel, SolverConfig, hard_clip,
                   random_stable_ar, read_wav, reconstruct_channel, run_cli,
                   simulate_ar, uniform_quantize, write_wav)
from regar.framing import frame_layout, segment

# A frame passes the output check when its solver output is finite and its
# half squared distance from the consistency set is at most this share of the
# frame energy (lambda_s = inf makes every solver output exactly feasible).
CONSISTENCY_TOL = 1e-9
# The CLI output goes through a float32 file: allow more than its rounding
# error at full scale (half an ulp below 2.0).
FLOAT32_SLACK = 2.0 * np.finfo(np.float32).eps

LAMBDA_C = 1e-3
DEQUANT_BITS = 4
# Fixed seeds of the AR models; the run seed only draws the excitation.
MODEL_SEED = 20241023
SAMPLE_RATE = 16000


@dataclass
class Inputs:
    """What one workload hands to the program, plus the clean reference."""

    clean: np.ndarray                 # (n_samples, n_channels)
    degraded: np.ndarray              # (n_samples, n_channels)
    model: DegradationModel | None    # library workloads
    cfg: SolverConfig
    frame: int
    hop: int
    tmpdir: Path | None = None        # CLI workload: where its files live
    argv: list = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        """Degraded samples restored by one call, over all channels."""
        return int(self.degraded.size)


@dataclass
class Outcome:
    """Checked result of one call."""

    attempted: int                    # frames, over all channels
    failed: int
    sdr_db: float
    delta_sdr_db: float
    output: np.ndarray
    frames_solved: int
    frames_passthrough: int
    solved_frame_ms: list


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    build: Callable[[int, bool, Path], Inputs]
    call: Callable[[Inputs, int], object]
    check: Callable[[Inputs, object], Outcome]

    def frames_per_call(self, inputs: Inputs) -> int:
        layout = frame_layout(inputs.degraded.shape[0], inputs.frame, inputs.hop)
        return layout.n_frames * inputs.degraded.shape[1]


def _ar_model(order: int, k_max: float = 0.8):
    return random_stable_ar(order, np.random.default_rng(MODEL_SEED), k_max=k_max)


def _col(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1, 1)


# --------------------------------------------------------------------------
# declip-paper: CLI defaults, most frames clipped, DR kernels at L = 4096


def _build_declip(seed: int, tiny: bool, tmpdir: Path) -> Inputs:
    theta = 0.4
    if tiny:
        order, frame, hop, outer, inner = 16, 256, 64, 2, 20
    else:
        order, frame, hop, outer, inner = 512, 2048, 512, 10, 1000
    # two frames; the loud region [0, hop) lies in frame 0 only
    n = 2 * hop
    rng = np.random.default_rng(seed)
    x = simulate_ar(_ar_model(16), n, rng)
    t = np.arange(n)
    loud = t < hop
    bump = np.where(loud, np.sin(np.pi * (t + 0.5) / hop) ** 2, 0.0)
    x = x * (0.1 + 0.9 * bump)
    # a quarter of the loud region clips, every seed
    x *= theta / np.quantile(np.abs(x[loud]), 0.75)
    quiet_peak = np.max(np.abs(x[~loud]))
    if quiet_peak >= 0.9 * theta:
        x[~loud] *= 0.9 * theta / quiet_peak
    cfg = SolverConfig(order=order, strategy="declip", lambda_c=LAMBDA_C,
                       lambda_s=math.inf, outer_iters=outer, inner_iters=inner)
    return Inputs(clean=_col(x), degraded=_col(hard_clip(x, theta).y),
                  model=DegradationModel(kind="clip", theta=theta), cfg=cfg,
                  frame=frame, hop=hop)


# --------------------------------------------------------------------------
# glp-heavy: 60% of the samples clipped, Janssen's dense solve dominates


def _build_glp(seed: int, tiny: bool, tmpdir: Path) -> Inputs:
    theta = 0.15
    if tiny:
        order, frame, hop, outer, inner = 16, 256, 64, 2, 10
    else:
        order, frame, hop, outer, inner = 512, 2048, 512, 10, 100
    n = 6 * hop
    rng = np.random.default_rng(seed)
    x = simulate_ar(_ar_model(16), n, rng)
    # exactly 60% of the samples reach theta
    x *= theta / np.quantile(np.abs(x), 0.4)
    cfg = SolverConfig(order=order, strategy="glp", lambda_c=LAMBDA_C,
                       lambda_s=math.inf, outer_iters=outer, inner_iters=inner)
    return Inputs(clean=_col(x), degraded=_col(hard_clip(x, theta).y),
                  model=DegradationModel(kind="clip", theta=theta), cfg=cfg,
                  frame=frame, hop=hop)


# --------------------------------------------------------------------------
# inpaint-sparse-long: a minute of audio, three short gaps, mostly passthrough


def _build_inpaint(seed: int, tiny: bool, tmpdir: Path) -> Inputs:
    if tiny:
        order, frame, hop, outer, inner = 16, 256, 64, 2, 10
        n, gap = 64 * 64, 40
    else:
        order, frame, hop, outer, inner = 512, 2048, 512, 10, 100
        n, gap = 60 * SAMPLE_RATE, 320
    n_gaps = 3
    rng = np.random.default_rng(seed)
    x = simulate_ar(_ar_model(16), n, rng)
    x *= 0.9 / np.max(np.abs(x))
    # One gap per third of the signal, starting in the first (hop - gap)
    # samples of a hop block: it then lies in exactly frame/hop frames, and
    # the gaps share no frame.
    blocks = n // hop
    zone = blocks // n_gaps
    margin = frame // hop
    reliable = np.ones(n, dtype=bool)
    for g in range(n_gaps):
        block = g * zone + int(rng.integers(margin, zone - margin))
        start = block * hop + int(rng.integers(0, hop - gap + 1))
        reliable[start: start + gap] = False
    y = np.where(reliable, x, 0.0)
    cfg = SolverConfig(order=order, strategy="inpaint", lambda_c=LAMBDA_C,
                       lambda_s=math.inf, outer_iters=outer, inner_iters=inner)
    return Inputs(clean=_col(x), degraded=_col(y),
                  model=DegradationModel(kind="drop", reliable=reliable),
                  cfg=cfg, frame=frame, hop=hop)


def _call_library(inputs: Inputs, workers: int):
    return reconstruct_channel(inputs.degraded[:, 0], inputs.model, inputs.cfg,
                               inputs.frame, inputs.hop, workers=workers,
                               reference=inputs.clean[:, 0])


def _frame_spans(n_samples: int, frame: int, hop: int):
    layout = frame_layout(n_samples, frame, hop)
    return [(k * hop, min(k * hop + frame, n_samples))
            for k in range(layout.n_frames)]


def _judge_frames(output: np.ndarray, rows, spans, frames: list) -> int:
    """Failed frames of one channel: non-finite output or inconsistent frame."""
    failed = 0
    for row, (a, b) in zip(rows, spans):
        consistency = row["consistency_sq"]
        if consistency is not None:  # the JSON report writes "inf" as a string
            consistency = float(consistency)
        energy = float(frames[row["frame_index"]] @ frames[row["frame_index"]])
        ok = (consistency is not None and math.isfinite(consistency)
              and consistency <= CONSISTENCY_TOL * max(energy, 1.0)
              and bool(np.all(np.isfinite(output[a:b]))))
        failed += not ok
    return failed


def _channel_frames(y: np.ndarray, frame: int, hop: int) -> list:
    return segment(y, frame_layout(y.size, frame, hop))


def _check_library(inputs: Inputs, result) -> Outcome:
    x_hat, report = result
    x_hat = np.asarray(x_hat, dtype=float)
    y = inputs.degraded[:, 0]
    rows = [{"frame_index": r.frame_index, "consistency_sq": r.consistency_sq}
            for r in report.per_frame]
    spans = _frame_spans(y.size, inputs.frame, inputs.hop)
    if x_hat.shape == y.shape:
        failed = _judge_frames(x_hat, rows, spans,
                               _channel_frames(y, inputs.frame, inputs.hop))
    else:
        failed = len(spans)
    solved = [r for r in report.per_frame if r.outer_iter > 0]
    return Outcome(attempted=len(spans), failed=failed,
                   sdr_db=float(report.sdr_db),
                   delta_sdr_db=float(report.delta_sdr_db),
                   output=x_hat.reshape(-1, 1),
                   frames_solved=len(solved),
                   frames_passthrough=len(report.per_frame) - len(solved),
                   solved_frame_ms=[r.wall_ms for r in solved])


# --------------------------------------------------------------------------
# dequant-cli: `regar reconstruct` on a stereo float32 WAV, demo sizes


def _build_dequant_cli(seed: int, tiny: bool, tmpdir: Path) -> Inputs:
    bits = DEQUANT_BITS
    if tiny:
        order, frame, hop, outer, inner, n = 8, 256, 64, 2, 20, 1024
    else:
        order, frame, hop, outer, inner, n = 32, 1024, 256, 5, 200, 2048
    rng = np.random.default_rng(seed)
    model = _ar_model(16, k_max=0.95)
    clean = np.stack([simulate_ar(model, n, rng) for _ in range(2)], axis=1)
    clean *= 0.99 / np.max(np.abs(clean))
    tmpdir.mkdir(parents=True, exist_ok=True)
    ref_path = tmpdir / "clean.wav"
    write_wav(ref_path, AudioBuffer(clean, SAMPLE_RATE), fmt="float32")
    clean = read_wav(ref_path).data  # the float32 values the CLI sees
    degraded = np.stack([uniform_quantize(clean[:, c], bits).y
                         for c in range(2)], axis=1)
    deg_path = tmpdir / "degraded.wav"
    write_wav(deg_path, AudioBuffer(degraded, SAMPLE_RATE), fmt="float32")
    cfg = SolverConfig(order=order, strategy="dequant", lambda_c=LAMBDA_C,
                       lambda_s=math.inf, outer_iters=outer, inner_iters=inner)
    argv = ["reconstruct", str(deg_path), "-o", str(tmpdir / "restored.wav"),
            "--strategy", "dequant", "--bits", str(bits),
            "--lambda-c", repr(LAMBDA_C), "--lambda-s", "inf",
            "--order", str(order), "--frame", str(frame), "--hop", str(hop),
            "--outer", str(outer), "--inner", str(inner),
            "--reference", str(ref_path),
            "--report", str(tmpdir / "report.json"), "--report-format", "json"]
    return Inputs(clean=clean, degraded=degraded, model=None, cfg=cfg,
                  frame=frame, hop=hop, tmpdir=tmpdir, argv=argv)


def _call_cli(inputs: Inputs, workers: int):
    return run_cli(inputs.argv + ["--workers", str(workers)])


def _check_cli(inputs: Inputs, code) -> Outcome:
    n, channels = inputs.degraded.shape
    spans = _frame_spans(n, inputs.frame, inputs.hop)
    attempted = len(spans) * channels
    if code != 0:
        return Outcome(attempted=attempted, failed=attempted, sdr_db=math.nan,
                       delta_sdr_db=math.nan, output=np.full((n, channels), np.nan),
                       frames_solved=0, frames_passthrough=0, solved_frame_ms=[])
    output = read_wav(inputs.tmpdir / "restored.wav").data
    report = json.loads((inputs.tmpdir / "report.json").read_text())
    rows = report["frames"]
    if output.shape != inputs.degraded.shape:
        failed = attempted
    else:
        failed = 0
        for c in range(channels):
            ch_rows = [dict(r, frame_index=r["frame_index"] - c * len(spans))
                       for r in rows[c * len(spans): (c + 1) * len(spans)]]
            frames = _channel_frames(inputs.degraded[:, c], inputs.frame, inputs.hop)
            failed += _judge_frames(output[:, c], ch_rows, spans, frames)
        # the written file must stay inside the quantization cells
        half = 2.0 ** (1 - DEQUANT_BITS) / 2
        if np.any(np.abs(output - inputs.degraded) > half + FLOAT32_SLACK):
            failed = attempted
    solved = [r for r in rows if r["outer_iter"] > 0]
    return Outcome(attempted=attempted, failed=failed,
                   sdr_db=float(report["global"]["sdr_db"]),
                   delta_sdr_db=float(report["global"]["delta_sdr_db"]),
                   output=output, frames_solved=len(solved),
                   frames_passthrough=len(rows) - len(solved),
                   solved_frame_ms=[r["wall_ms"] for r in solved])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="declip-paper",
        why="CLI-default declip (order 512, frame 2048, 10x1000 iters): the DR "
            "kernels at L=4096 do nearly all the work; pipeline and Janssen almost none",
        workers=1, build=_build_declip, call=_call_library, check=_check_library),
    Workload(
        name="glp-heavy",
        why="GLP with 60% of samples clipped: Janssen's dense Cholesky on ~1200 "
            "missing samples per frame dominates; the signal-side DR never runs",
        workers=1, build=_build_glp, call=_call_library, check=_check_library),
    Workload(
        name="inpaint-sparse-long",
        why="a minute of 16 kHz audio with three 320-sample gaps: 12 of 1875 frames "
            "are solved, so framing, passthrough and metric steps weigh more",
        workers=1, build=_build_inpaint, call=_call_library, check=_check_library),
    Workload(
        name="dequant-cli",
        why="regar reconstruct on a stereo 4-bit float32 WAV at demo sizes: small "
            "DR (L=2048) where per-iteration overhead counts, plus WAV I/O and report",
        workers=2, build=_build_dequant_cli, call=_call_cli, check=_check_cli),
)}
