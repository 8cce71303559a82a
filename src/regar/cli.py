"""Command-line interface: degrade, reconstruct, evaluate, demo.

The CLI works on WAV files; stereo files are processed per channel.  Reports
go out as CSV or JSON with one row per frame plus global aggregates.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .armodel import random_stable_ar, simulate_ar
from .audio_io import AudioBuffer, read_wav, write_wav
from .degrade import drop_samples, hard_clip, uniform_quantize
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      sdr, sdr_scores)
from .framing import frame_layout, segment
from .pipeline import (DegradationModel, frame_record, frame_specs,
                       reconstruct_channel)
from .solver import STRATEGIES, SolverConfig, progressive_schedule

__all__ = ["run_cli", "main", "write_report"]

_ACCEL_TOKENS = {
    "extrapolate": "extrapolate_signal",
    "extrapolate-signal": "extrapolate_signal",
    "extrapolate-coefs": "extrapolate_coefs",
    "linesearch": "line_search",
    "line-search": "line_search",
}


def _model_options(a: argparse.Namespace) -> int:
    """How many of --theta, --bits and --mask are given; more than one fails."""
    given = sum(v is not None for v in (a.theta, a.bits, a.mask))
    if given > 1:
        raise ValueError("give at most one of --theta, --bits, --mask")
    return given


def _validate(a: argparse.Namespace) -> None:
    """Reject option combinations that the parser alone lets through."""
    if a.command == "degrade":
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
    elif a.command == "reconstruct":
        if a.strategy == "dequant":
            if a.bits is None:
                raise ValueError("dequant strategy needs --bits")
            if a.bits < 1:
                raise ValueError("word length must be at least 1 bit")
            if a.theta is not None or a.mask is not None:
                raise ValueError("dequant strategy takes --bits only")
        else:
            if a.bits is not None:
                raise ValueError("--bits applies to the dequant strategy only")
        if a.strategy in ("declip", "glp") and a.mask is not None:
            raise ValueError(f"{a.strategy} strategy derives masks from --theta")
        if a.strategy == "inpaint" and a.mask is None and a.theta is None:
            raise ValueError("inpaint strategy needs --mask or --theta")
        _model_options(a)
        if a.outer < 0:
            raise ValueError("outer iteration count must be >= 0")
        if a.inner_schedule is not None and a.inner is not None:
            raise ValueError("--inner and --inner-schedule conflict")
    elif a.command == "evaluate":
        if _model_options(a) and a.degraded is None:
            raise ValueError("--theta, --bits and --mask need --degraded")
        if a.bits is not None and a.bits < 1:
            raise ValueError("word length must be at least 1 bit")
        if a.hop is not None and a.frame is None:
            raise ValueError("--hop needs --frame")


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # rejects "nan" too
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _lambda_value(text: str) -> float:
    value = float(text)  # accepts the literal token "inf"
    if not value >= 0:  # rejects "nan" too
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
    rec.add_argument("--strategy", choices=STRATEGIES, required=True)
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
    rec.add_argument("--workers", type=int, default=os.cpu_count() or 1)
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
    dem.add_argument("--strategy", choices=STRATEGIES, default="declip")
    dem.add_argument("--bits", type=int, default=5)
    dem.add_argument("--lambda-c", type=_lambda_value, default=1e-3)
    dem.add_argument("--lambda-s", type=_lambda_value, default=math.inf)
    dem.add_argument("--frame", type=int, default=1024)
    dem.add_argument("--hop", type=int, default=256)
    dem.add_argument("--outer", type=int, default=5)
    dem.add_argument("--inner", type=int, default=200)
    dem.add_argument("--accel", default="none")
    dem.add_argument("--workers", type=int, default=os.cpu_count() or 1)
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


def _report_value(value):
    """The one number rule of reports: infinities become "inf"/"-inf" so
    JSON stays standard, other floats are plain floats, ints and None stay."""
    if value is None or isinstance(value, int):
        return value
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def write_report(report: ReconstructionReport, path, fmt: str = "json",
                 deterministic: bool = False) -> None:
    """Serialize a reconstruction report as CSV rows or a JSON document.

    ``deterministic`` zeroes the wall-clock fields so repeated runs produce
    bitwise-identical files.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    columns = [f.name for f in fields(FrameRecord)]
    rows = []
    for r in report.per_frame:
        if deterministic:
            r = replace(r, wall_ms=0.0)
        rows.append({key: _report_value(getattr(r, key)) for key in columns})
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)  # writes None as an empty cell
            writer.writerow(columns)
            writer.writerows(row.values() for row in rows)
        return
    doc = {
        "global": {
            "sdr_db": _report_value(report.sdr_db),
            "delta_sdr_db": _report_value(report.delta_sdr_db),
            "consistency_sq": _report_value(report.consistency_sq),
            "mean_frame_sdr_db": _report_value(report.mean_frame_sdr_db),
            "n_frames": len(report.per_frame),
            "timing_s": 0.0 if deterministic else report.timing_s,
        },
        "frames": rows,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _merge_reports(parts: list[ReconstructionReport], reference, degraded,
                   estimate) -> ReconstructionReport:
    """Combine per-channel reports into one, with globals over all channels.

    The global consistency is None unless every channel measured one.
    """
    records = []
    offset = 0
    for part in parts:
        records.extend(replace(r, frame_index=r.frame_index + offset)
                       for r in part.per_frame)
        offset += len(part.per_frame)
    score, gain = sdr_scores(reference, estimate, degraded)
    consistency = [p.consistency_sq for p in parts]
    return ReconstructionReport(
        sdr_db=score,
        delta_sdr_db=gain,
        consistency_sq=None if None in consistency else sum(consistency),
        per_frame=records,
        timing_s=sum(p.timing_s for p in parts),
    )


def cmd_degrade(a) -> int:
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
            out[:, c], reliable[:, c] = drop_samples(buf.channel(c), keep)
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


def _build_models(a, buf: AudioBuffer,
                  infer_theta: bool = False) -> list[DegradationModel] | None:
    """One degradation model per channel, from --bits, --mask or --theta.

    Without any of them the clipping threshold is the peak of the file when
    ``infer_theta`` is set, else there is no model (None).
    """
    if a.bits is not None:
        delta = 2.0 ** (1 - a.bits)
        return [DegradationModel(kind="quant", delta=delta)] * buf.channels
    if a.mask is not None:
        reliable = _load_mask(a.mask, buf.data.shape)
        return [DegradationModel(kind="drop", reliable=reliable[:, c])
                for c in range(buf.channels)]
    theta = a.theta
    if theta is None:
        if not infer_theta:
            return None
        theta = float(np.max(np.abs(buf.data)))
        if theta <= 0:
            raise ValueError("cannot infer theta from an all-zero file")
        print(f"using theta = {theta} (peak of the input)")
    return [DegradationModel(kind="clip", theta=theta)] * buf.channels


def _hop(a) -> int:
    """--hop, by default a quarter of the frame."""
    return a.hop if a.hop is not None else max(1, a.frame // 4)


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


def cmd_reconstruct(a) -> int:
    buf = read_wav(a.input)
    reference = read_wav(a.reference) if a.reference else None
    if reference is not None and reference.data.shape != buf.data.shape:
        raise ValueError("reference shape does not match the input")
    models = _build_models(a, buf, infer_theta=True)
    cfg = _build_config(a)
    out = np.empty_like(buf.data)
    parts = []
    for c in range(buf.channels):
        x_hat, part = reconstruct_channel(
            buf.channel(c), models[c], cfg, a.frame, _hop(a), workers=a.workers,
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
        print(f"SDR: {_report_value(report.sdr_db)} dB "
              f"(improvement {_report_value(report.delta_sdr_db)} dB)")
    elif reference is not None:
        print("SDR: undefined (silent reference)")
    print(f"consistency: {_report_value(report.consistency_sq)}")
    return 0


def cmd_evaluate(a) -> int:
    est = read_wav(a.estimate)
    ref = read_wav(a.reference)
    if est.data.shape != ref.data.shape:
        raise ValueError("estimate and reference shapes differ")
    degraded = read_wav(a.degraded) if a.degraded else None
    if degraded is not None and degraded.data.shape != est.data.shape:
        raise ValueError("degraded file shape differs")
    # _validate lets a model option through only with --degraded
    models = _build_models(a, est)
    layout = frame_layout(est.n_samples, a.frame, _hop(a)) if a.frame else None
    parts = []
    for c in range(est.channels):
        x = est.channel(c)
        y = degraded.channel(c) if degraded is not None else None
        box = (models[c].spec_for(y, layout.pad_end if layout else 0)
               if models else None)
        records = [] if layout is None else [
            frame_record(k, *row) for k, row in enumerate(zip(
                segment(x, layout),
                repeat(None) if y is None else segment(y, layout),
                repeat(None) if box is None else frame_specs(box, layout),
                segment(ref.channel(c), layout)))]
        parts.append(ReconstructionReport(
            sdr_db=None, delta_sdr_db=None,
            consistency_sq=(None if box is None
                            else consistency_distance(x, box.head(x.size))),
            per_frame=records))
    report = _merge_reports(parts, ref.data,
                            degraded.data if degraded is not None else None,
                            est.data)
    if a.report:
        write_report(report, a.report, a.report_format)
    if report.sdr_db is not None:
        print(f"SDR: {_report_value(report.sdr_db)} dB")
    else:
        print("SDR: undefined (silent reference)")
    if report.delta_sdr_db is not None:
        print(f"delta SDR: {_report_value(report.delta_sdr_db)} dB")
    if report.consistency_sq is not None:
        print(f"consistency: {_report_value(report.consistency_sq)}")
    return 0


def cmd_demo(a) -> int:
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
    x_hat, report = reconstruct_channel(
        deg_buf.channel(0), model, cfg, a.frame, _hop(a), workers=a.workers,
        reference=clean_buf.channel(0))
    write_wav(out_dir / "restored.wav", AudioBuffer(x_hat, a.sample_rate),
              fmt="float32")
    write_report(report, out_dir / "report.csv", "csv", deterministic=True)
    write_report(report, out_dir / "report.json", "json", deterministic=True)

    input_sdr = sdr(clean_buf.channel(0), deg_buf.channel(0))
    print(f"input SDR: {_report_value(input_sdr)} dB, restored SDR: "
          f"{_report_value(report.sdr_db)} dB")
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
        _validate(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
