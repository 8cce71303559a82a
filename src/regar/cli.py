"""Command-line interface: degrade, reconstruct, evaluate, demo.

The CLI works on WAV files; stereo files are processed per channel.  Reports
go out as CSV or JSON with one row per frame plus global aggregates.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .armodel import random_stable_ar, simulate_ar
from .audio_io import AudioBuffer, read_wav, write_wav
from .degrade import drop_samples, hard_clip, uniform_quantize
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      frame_sdr, sdr)
from .framing import frame_layout, segment
from .pipeline import DegradationModel, reconstruct_channel, resolve_workers
from .solver import SolverConfig, progressive_schedule

__all__ = ["JobSpec", "run_cli", "main", "write_report"]

_ACCEL_TOKENS = {
    "extrapolate": "extrapolate_signal",
    "extrapolate-signal": "extrapolate_signal",
    "extrapolate-coefs": "extrapolate_coefs",
    "linesearch": "line_search",
    "line-search": "line_search",
}


@dataclass(frozen=True)
class JobSpec:
    """Validated description of one CLI invocation."""

    command: str
    args: argparse.Namespace

    def __post_init__(self):
        a = self.args
        if self.command == "degrade":
            if a.mode == "clip" and a.theta is None:
                raise ValueError("clip mode needs --theta")
            if a.mode == "quantize" and a.bits is None:
                raise ValueError("quantize mode needs --bits")
            if a.mode == "drop" and a.ratio is None:
                raise ValueError("drop mode needs --ratio")
            if a.mode != "clip" and a.theta is not None:
                raise ValueError("--theta applies to clip mode only")
            if a.mode != "quantize" and a.bits is not None:
                raise ValueError("--bits applies to quantize mode only")
            if a.mode != "drop" and a.ratio is not None:
                raise ValueError("--ratio applies to drop mode only")
        elif self.command == "reconstruct":
            if a.strategy == "dequant":
                if a.bits is None:
                    raise ValueError("dequant strategy needs --bits")
                if a.theta is not None or a.mask is not None:
                    raise ValueError("dequant strategy takes --bits only")
            else:
                if a.bits is not None:
                    raise ValueError("--bits applies to the dequant strategy only")
            if a.strategy in ("declip", "glp") and a.mask is not None:
                raise ValueError(f"{a.strategy} strategy derives masks from --theta")
            if a.strategy == "inpaint" and a.mask is None and a.theta is None:
                raise ValueError("inpaint strategy needs --mask or --theta")
            if a.outer < 0:
                raise ValueError("outer iteration count must be >= 0")
            if a.inner_schedule is not None and a.inner is not None:
                raise ValueError("--inner and --inner-schedule conflict")
        elif self.command == "evaluate":
            given = [v is not None for v in (a.theta, a.bits, a.mask)]
            if sum(given) > 1:
                raise ValueError("give at most one of --theta, --bits, --mask")


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _lambda_value(text: str) -> float:
    value = float(text)  # accepts the literal token "inf"
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative or inf")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regar",
        description="Regularized AR modeling for audio declipping, "
                    "dequantization and inpainting.")
    sub = parser.add_subparsers(dest="command", required=True)

    deg = sub.add_parser("degrade", help="clip, quantize or drop samples")
    deg.add_argument("input")
    deg.add_argument("-o", "--output", required=True)
    deg.add_argument("--mode", choices=("clip", "quantize", "drop"), required=True)
    deg.add_argument("--theta", type=_positive_float)
    deg.add_argument("--bits", type=int)
    deg.add_argument("--ratio", type=float, help="fraction of samples to drop")
    deg.add_argument("--seed", type=int, default=0)
    deg.add_argument("--format", choices=("float32", "pcm16", "pcm24"),
                     default="float32")

    rec = sub.add_parser("reconstruct", help="restore a degraded file")
    rec.add_argument("input")
    rec.add_argument("-o", "--output", required=True)
    rec.add_argument("--strategy", choices=("inpaint", "glp", "declip", "dequant"),
                     required=True)
    rec.add_argument("--theta", type=_positive_float,
                     help="clipping threshold (default: peak of the input)")
    rec.add_argument("--bits", type=int)
    rec.add_argument("--mask", help="reliable-sample mask (.npy) for inpainting")
    rec.add_argument("--lambda-c", type=_lambda_value, default=1e-3)
    rec.add_argument("--lambda-s", type=_lambda_value, default=math.inf)
    rec.add_argument("--gamma-c", type=_positive_float, default=1.0)
    rec.add_argument("--gamma-s", type=_positive_float, default=1.0)
    rec.add_argument("--order", type=int, default=512)
    rec.add_argument("--frame", type=int, default=2048)
    rec.add_argument("--hop", type=int, default=None,
                     help="default: frame/4")
    rec.add_argument("--outer", type=int, default=10)
    rec.add_argument("--inner", type=int, default=None)
    rec.add_argument("--inner-schedule",
                     help="n1,nI exponents of a logarithmic schedule")
    rec.add_argument("--accel", default="none",
                     help="comma list: extrapolate,extrapolate-coefs,"
                          "linesearch or none")
    rec.add_argument("--workers", type=int, default=None)
    rec.add_argument("--reference", help="clean file for SDR reporting")
    rec.add_argument("--report")
    rec.add_argument("--report-format", choices=("csv", "json"), default="json")
    rec.add_argument("--deterministic-report", action="store_true",
                     help="zero out wall-clock fields in the report")
    rec.add_argument("--format", choices=("float32", "pcm16", "pcm24"),
                     default="float32")

    ev = sub.add_parser("evaluate", help="score an estimate against a reference")
    ev.add_argument("estimate")
    ev.add_argument("--reference", required=True)
    ev.add_argument("--degraded")
    ev.add_argument("--theta", type=_positive_float)
    ev.add_argument("--bits", type=int)
    ev.add_argument("--mask")
    ev.add_argument("--frame", type=int)
    ev.add_argument("--hop", type=int)
    ev.add_argument("--report")
    ev.add_argument("--report-format", choices=("csv", "json"), default="json")

    dem = sub.add_parser("demo", help="synthetic end-to-end run")
    dem.add_argument("--out-dir", required=True)
    dem.add_argument("--seed", type=int, default=0)
    dem.add_argument("--length", type=int, default=8192)
    dem.add_argument("--order", type=int, default=32)
    dem.add_argument("--clip-level", type=float, default=0.2)
    dem.add_argument("--sample-rate", type=int, default=16000)
    dem.add_argument("--strategy", choices=("inpaint", "glp", "declip", "dequant"),
                     default="declip")
    dem.add_argument("--bits", type=int, default=5)
    dem.add_argument("--lambda-c", type=_lambda_value, default=1e-3)
    dem.add_argument("--lambda-s", type=_lambda_value, default=math.inf)
    dem.add_argument("--frame", type=int, default=1024)
    dem.add_argument("--hop", type=int, default=256)
    dem.add_argument("--outer", type=int, default=5)
    dem.add_argument("--inner", type=int, default=200)
    dem.add_argument("--accel", default="none")
    dem.add_argument("--workers", type=int, default=None)
    return parser


def _parse_accel(text: str) -> frozenset:
    text = text.strip()
    if not text or text == "none":
        return frozenset()
    out = set()
    for token in text.split(","):
        token = token.strip()
        if token not in _ACCEL_TOKENS:
            raise ValueError(f"unknown acceleration {token!r}")
        out.add(_ACCEL_TOKENS[token])
    return frozenset(out)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def _json_number(value):
    if value is None:
        return None
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


_CSV_COLUMNS = ("frame_index", "sdr_db", "delta_sdr_db", "consistency_sq",
                "outer_iter", "objective", "inner_iters", "wall_ms")


def write_report(report: ReconstructionReport, path, fmt: str = "json",
                 deterministic: bool = False) -> None:
    """Serialize a reconstruction report as CSV rows or a JSON document.

    ``deterministic`` zeroes the wall-clock fields so repeated runs produce
    bitwise-identical files.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    rows = []
    for r in report.per_frame:
        rows.append({
            "frame_index": r.frame_index,
            "sdr_db": r.sdr_db,
            "delta_sdr_db": r.delta_sdr_db,
            "consistency_sq": r.consistency_sq,
            "outer_iter": r.outer_iter,
            "objective": r.objective,
            "inner_iters": r.inner_iters,
            "wall_ms": 0.0 if deterministic else r.wall_ms,
        })
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in rows:
                writer.writerow([
                    row["frame_index"],
                    _fmt_cell(row["sdr_db"]),
                    _fmt_cell(row["delta_sdr_db"]),
                    _fmt_cell(row["consistency_sq"]),
                    row["outer_iter"],
                    _fmt_cell(row["objective"]),
                    row["inner_iters"],
                    _fmt_cell(row["wall_ms"]),
                ])
        return
    doc = {
        "global": {
            "sdr_db": _json_number(report.sdr_db),
            "delta_sdr_db": _json_number(report.delta_sdr_db),
            "consistency_sq": _json_number(report.consistency_sq),
            "mean_frame_sdr_db": _json_number(report.mean_frame_sdr_db),
            "n_frames": len(report.per_frame),
            "timing_s": 0.0 if deterministic else report.timing_s,
        },
        "frames": [
            {key: (_json_number(row[key])
                   if key not in ("frame_index", "outer_iter", "inner_iters")
                   else row[key])
             for key in _CSV_COLUMNS}
            for row in rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _merge_reports(parts: list[ReconstructionReport], reference, degraded,
                   estimate) -> ReconstructionReport:
    """Combine per-channel reports into one, with globals over all channels."""
    records = []
    offset = 0
    for part in parts:
        records.extend(replace(r, frame_index=r.frame_index + offset)
                       for r in part.per_frame)
        offset += len(part.per_frame)
    global_sdr = None
    global_dsdr = None
    if reference is not None:
        global_sdr = sdr(reference.reshape(-1), estimate.reshape(-1))
        global_dsdr = global_sdr - sdr(reference.reshape(-1), degraded.reshape(-1))
    total_consistency = sum(p.consistency_sq for p in parts
                            if p.consistency_sq is not None)
    return ReconstructionReport(
        sdr_db=global_sdr,
        delta_sdr_db=global_dsdr,
        consistency_sq=total_consistency,
        per_frame=records,
        timing_s=sum(p.timing_s for p in parts),
    )


def cmd_degrade(job: JobSpec) -> int:
    a = job.args
    buf = read_wav(a.input)
    out = np.empty_like(buf.data)
    if a.mode == "clip":
        for c in range(buf.channels):
            out[:, c] = hard_clip(buf.channel(c), a.theta).y
        print(f"clipped at theta = {a.theta}")
    elif a.mode == "quantize":
        delta = None
        for c in range(buf.channels):
            obs = uniform_quantize(buf.channel(c), a.bits)
            out[:, c] = obs.y
            delta = obs.delta
        print(f"quantized to {a.bits} bits, step {delta}")
    else:
        if not 0.0 <= a.ratio <= 1.0:
            raise ValueError("drop ratio must be in [0, 1]")
        rng = np.random.default_rng(a.seed)
        reliable = np.ones(buf.data.shape, dtype=bool)
        for c in range(buf.channels):
            n = buf.n_samples
            n_drop = int(round(a.ratio * n))
            drop_idx = rng.choice(n, size=n_drop, replace=False)
            keep = np.ones(n, dtype=bool)
            keep[drop_idx] = False
            y, masks = drop_samples(buf.channel(c), keep)
            out[:, c] = y
            reliable[:, c] = masks.reliable
        mask_path = a.output + ".mask.npy"
        np.save(mask_path, reliable)
        print(f"dropped {a.ratio:.1%} of samples; mask saved to {mask_path}")
    write_wav(a.output, AudioBuffer(out, buf.sample_rate), fmt=a.format)
    return 0


def _load_mask(path, shape) -> np.ndarray:
    """Reliable-sample mask (.npy) with one column per channel of the file."""
    reliable = np.load(path)
    if reliable.ndim == 1:
        reliable = reliable[:, None]
    if reliable.shape != shape:
        raise ValueError("mask shape does not match the input file")
    return reliable


def _build_models(a, buf: AudioBuffer) -> list[DegradationModel]:
    """One degradation model per channel, resolving theta/delta/mask."""
    if a.strategy == "dequant":
        delta = 2.0 ** (1 - a.bits)
        return [DegradationModel(kind="quant", delta=delta)] * buf.channels
    if a.strategy == "inpaint" and a.mask is not None:
        reliable = _load_mask(a.mask, buf.data.shape)
        return [DegradationModel(kind="drop", reliable=reliable[:, c])
                for c in range(buf.channels)]
    theta = a.theta
    if theta is None:
        theta = float(np.max(np.abs(buf.data)))
        if theta <= 0:
            raise ValueError("cannot infer theta from an all-zero file")
        print(f"using theta = {theta} (peak of the input)")
    return [DegradationModel(kind="clip", theta=theta)] * buf.channels


def _build_config(a) -> SolverConfig | None:
    if a.outer == 0:
        return None
    if a.inner_schedule is not None:
        parts = a.inner_schedule.split(",")
        if len(parts) != 2:
            raise ValueError("--inner-schedule takes two exponents n1,nI")
        schedule = tuple(progressive_schedule(float(parts[0]), float(parts[1]),
                                              a.outer))
    else:
        schedule = None
    return SolverConfig(
        order=a.order,
        strategy=a.strategy,
        lambda_c=a.lambda_c,
        lambda_s=a.lambda_s,
        gamma_c=a.gamma_c,
        gamma_s=a.gamma_s,
        outer_iters=a.outer,
        inner_iters=a.inner if a.inner is not None else 1000,
        inner_schedule=schedule,
        acceleration=_parse_accel(a.accel),
    )


def cmd_reconstruct(job: JobSpec) -> int:
    a = job.args
    buf = read_wav(a.input)
    reference = read_wav(a.reference) if a.reference else None
    if reference is not None and reference.data.shape != buf.data.shape:
        raise ValueError("reference shape does not match the input")
    models = _build_models(a, buf)
    cfg = _build_config(a)
    hop = a.hop if a.hop is not None else max(1, a.frame // 4)
    workers = resolve_workers(a.workers)
    out = np.empty_like(buf.data)
    parts = []
    for c in range(buf.channels):
        x_hat, part = reconstruct_channel(
            buf.channel(c), models[c], cfg, a.frame, hop, workers=workers,
            reference=reference.channel(c) if reference is not None else None)
        out[:, c] = x_hat
        parts.append(part)
    write_wav(a.output, AudioBuffer(out, buf.sample_rate), fmt=a.format)
    report = _merge_reports(parts, reference.data if reference else None,
                            buf.data, out)
    if a.report:
        write_report(report, a.report, a.report_format,
                     deterministic=a.deterministic_report)
    if report.sdr_db is not None:
        print(f"SDR: {_fmt_cell(report.sdr_db)} dB "
              f"(improvement {_fmt_cell(report.delta_sdr_db)} dB)")
    print(f"consistency: {_fmt_cell(report.consistency_sq)}")
    return 0


def cmd_evaluate(job: JobSpec) -> int:
    a = job.args
    est = read_wav(a.estimate)
    ref = read_wav(a.reference)
    if est.data.shape != ref.data.shape:
        raise ValueError("estimate and reference shapes differ")
    degraded = read_wav(a.degraded) if a.degraded else None
    if degraded is not None and degraded.data.shape != est.data.shape:
        raise ValueError("degraded file shape differs")
    global_sdr = sdr(ref.data.reshape(-1), est.data.reshape(-1))
    global_dsdr = None
    if degraded is not None:
        global_dsdr = global_sdr - sdr(ref.data.reshape(-1),
                                       degraded.data.reshape(-1))
    consistency = None
    if degraded is not None and (a.theta or a.bits or a.mask):
        consistency = 0.0
        reliable = _load_mask(a.mask, est.data.shape) if a.mask else None
        for c in range(est.channels):
            y = degraded.channel(c)
            if a.theta:
                model = DegradationModel(kind="clip", theta=a.theta)
            elif a.bits:
                model = DegradationModel(kind="quant", delta=2.0 ** (1 - a.bits))
            else:
                model = DegradationModel(kind="drop", reliable=reliable[:, c])
            consistency += consistency_distance(est.channel(c), model.spec_for(y))
    records = []
    if a.frame:
        hop = a.hop if a.hop is not None else max(1, a.frame // 4)
        index = 0
        for c in range(est.channels):
            layout = frame_layout(est.n_samples, a.frame, hop)
            est_frames = segment(est.channel(c), layout)
            ref_frames = segment(ref.channel(c), layout)
            deg_frames = (segment(degraded.channel(c), layout)
                          if degraded is not None else None)
            for k in range(layout.n_frames):
                score, gain = frame_sdr(
                    ref_frames[k], est_frames[k],
                    deg_frames[k] if deg_frames is not None else None)
                records.append(FrameRecord(
                    frame_index=index, sdr_db=score, delta_sdr_db=gain,
                    consistency_sq=0.0, outer_iter=0, objective=None,
                    inner_iters=0, wall_ms=0.0))
                index += 1
    report = ReconstructionReport(sdr_db=global_sdr, delta_sdr_db=global_dsdr,
                                  consistency_sq=consistency, per_frame=records)
    if a.report:
        write_report(report, a.report, a.report_format)
    print(f"SDR: {_fmt_cell(global_sdr)} dB")
    if global_dsdr is not None:
        print(f"delta SDR: {_fmt_cell(global_dsdr)} dB")
    if consistency is not None:
        print(f"consistency: {_fmt_cell(consistency)}")
    return 0


def cmd_demo(job: JobSpec) -> int:
    a = job.args
    out_dir = Path(a.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(a.seed)
    coeffs = random_stable_ar(a.order, rng)
    clean = simulate_ar(coeffs, a.length, rng, burn_in=1000)
    clean = 0.99 * clean / np.max(np.abs(clean))
    clean_path = out_dir / "clean.wav"
    write_wav(clean_path, AudioBuffer(clean, a.sample_rate), fmt="float32")
    clean_buf = read_wav(clean_path)

    degraded_path = out_dir / "degraded.wav"
    if a.strategy == "dequant":
        obs = uniform_quantize(clean_buf.channel(0), a.bits)
        degraded = obs.y
        model = DegradationModel(kind="quant", delta=obs.delta)
        print(f"quantized to {a.bits} bits, step {obs.delta}")
    else:
        peak = float(np.max(np.abs(clean_buf.channel(0))))
        theta = float(np.float32(a.clip_level * peak))
        degraded = hard_clip(clean_buf.channel(0), theta).y
        model = DegradationModel(kind="clip", theta=theta)
        print(f"clipped at theta = {theta}")
    write_wav(degraded_path, AudioBuffer(degraded, a.sample_rate), fmt="float32")

    deg_buf = read_wav(degraded_path)
    cfg = SolverConfig(
        order=a.order, strategy=a.strategy, lambda_c=a.lambda_c,
        lambda_s=a.lambda_s, outer_iters=a.outer, inner_iters=a.inner,
        acceleration=_parse_accel(a.accel))
    hop = a.hop if a.hop is not None else max(1, a.frame // 4)
    workers = resolve_workers(a.workers)
    x_hat, report = reconstruct_channel(
        deg_buf.channel(0), model, cfg, a.frame, hop, workers=workers,
        reference=clean_buf.channel(0))
    write_wav(out_dir / "restored.wav", AudioBuffer(x_hat, a.sample_rate),
              fmt="float32")
    write_report(report, out_dir / "report.csv", "csv", deterministic=True)
    write_report(report, out_dir / "report.json", "json", deterministic=True)

    input_sdr = sdr(clean_buf.channel(0), deg_buf.channel(0))
    print(f"input SDR: {_fmt_cell(input_sdr)} dB, restored SDR: "
          f"{_fmt_cell(report.sdr_db)} dB")
    print(f"artifacts in {out_dir}")
    return 0


_COMMANDS = {
    "degrade": cmd_degrade,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "demo": cmd_demo,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        job = JobSpec(command=args.command, args=args)
        return _COMMANDS[job.command](job)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
