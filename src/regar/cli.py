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
from .audio_io import AudioBuffer, _encode_wav, read_wav, write_wav
from .degrade import drop_samples, hard_clip, quantizer_step, uniform_quantize
from .metrics import (FrameRecord, ReconstructionReport, consistency_distance,
                      sdr, sdr_scores)
from .framing import frame_layout, segment
from .pipeline import DegradationModel, frame_record, reconstruct_channel
from .solver import STRATEGIES, SolverConfig, progressive_schedule

__all__ = ["run_cli", "main", "write_report"]

_ACCEL_TOKENS = {
    "extrapolate": "extrapolate_signal",
    "extrapolate-coefs": "extrapolate_coefs",
    "linesearch": "line_search",
}


# the consistency box each model option gives
_OPTION_BOX = {"theta": "declip", "bits": "dequant", "mask": "inpaint"}
# SolverConfig's field defaults, which the solver options take over
_SOLVER = {f.name: f.default for f in fields(SolverConfig)}


def _model_options(a: argparse.Namespace) -> list[str]:
    """Which of --theta, --bits and --mask are given; more than one fails."""
    given = [option for option in _OPTION_BOX if getattr(a, option) is not None]
    if len(given) > 1:
        raise ValueError("give at most one of --theta, --bits, --mask")
    return given


# the option each degrade mode needs, and no other mode takes
_MODE_OPTIONS = {"clip": "theta", "quantize": "bits", "drop": "ratio"}


def _validate(a: argparse.Namespace) -> None:
    """Reject option combinations that the parser alone lets through."""
    if a.command == "degrade":
        option = _MODE_OPTIONS[a.mode]
        if getattr(a, option) is None:
            raise ValueError(f"{a.mode} mode needs --{option}")
        for mode, other in _MODE_OPTIONS.items():
            if mode != a.mode and getattr(a, other) is not None:
                raise ValueError(f"--{other} applies to {mode} mode only")
        if a.mode == "drop" and not 0.0 <= a.ratio <= 1.0:
            raise ValueError("drop ratio must be in [0, 1]")
    elif a.command == "reconstruct":
        boxes = STRATEGIES[a.strategy]
        # the model option used: the one given, or --theta for a sole declip box
        used = _model_options(a) or (["theta"] if boxes == ("declip",) else [])
        if not used or _OPTION_BOX[used[0]] not in boxes:
            takes = [f"--{o}" for o in _OPTION_BOX if _OPTION_BOX[o] in boxes]
            raise ValueError(f"{a.strategy} strategy takes {' or '.join(takes)}")
    elif a.command == "evaluate":
        if _model_options(a) and a.degraded is None:
            raise ValueError("--theta, --bits and --mask need --degraded")
        if a.hop is not None and a.frame is None:
            raise ValueError("--hop needs --frame")
    if a.command in ("reconstruct", "demo"):
        if a.outer < 0:
            raise ValueError("outer iteration count must be >= 0")
        if a.order < 0:  # checked here too, since --outer 0 builds no config
            raise ValueError("--order must be nonnegative")
        if a.inner_schedule is not None and a.inner is not None:
            raise ValueError("--inner and --inner-schedule conflict")
        _build_config(a)  # the solver options fail before any file is touched
    if a.bits is not None:
        quantizer_step(a.bits)
    # the framing and pool options, which the library would reject only
    # after demo has written its first files
    if getattr(a, "workers", 1) < 1:
        raise ValueError("--workers: worker count must be positive")
    if getattr(a, "frame", None) is not None:
        if a.frame < 1:
            raise ValueError("--frame must be at least 1")
        if a.hop is not None and not 1 <= a.hop <= a.frame:
            raise ValueError(f"--hop must lie in [1, --frame] = [1, {a.frame}]")
        # a frame shorter than the model has no AR fit; --outer 0 fits none
        if getattr(a, "outer", 0) > 0 and a.order >= a.frame:
            raise ValueError(f"--order must be below --frame, got --order "
                             f"{a.order} and --frame {a.frame}")
    if getattr(a, "length", 1) < 1:
        raise ValueError("--length must be at least 1")
    if getattr(a, "sample_rate", 1) < 1:
        raise ValueError("--sample-rate must be at least 1")


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


# Options that several subcommands share, each declared once: a subcommand
# picks the flags it takes and sets its own defaults with set_defaults.
_OPTIONS = {
    "--theta": dict(type=_positive_float, help="clipping threshold "
                    "(reconstruct: the input's peak by default)"),
    "--bits": dict(type=int),
    "--mask": dict(help="reliable-sample mask (.npy) for inpainting"),
    "--lambda-c": dict(type=_lambda_value, default=1e-3),
    "--lambda-s": dict(type=_lambda_value, default=_SOLVER["lambda_s"]),
    "--order": dict(type=int),
    "--frame": dict(type=int),
    "--hop": dict(type=int, help="default: frame/4 (demo: 256)"),
    "--outer": dict(type=int),
    "--inner": dict(type=int),
    "--accel": dict(default="none", help="comma list: extrapolate,"
                    "extrapolate-coefs,linesearch or none"),
    "--workers": dict(type=int, default=os.cpu_count() or 1),
    "--seed": dict(type=int, default=0),
    "--report": dict(),
    "--report-format": dict(choices=("csv", "json"), default="json"),
    "--format": dict(choices=("float32", "pcm16", "pcm24"), default="float32"),
}


def _shared(parser: argparse.ArgumentParser, flags: str) -> None:
    """Add the shared options named in ``flags`` to a subcommand."""
    for flag in flags.split():
        parser.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regar",
        description="Regularized AR modeling for audio declipping, "
                    "dequantization and inpainting.")
    sub = parser.add_subparsers(dest="command", required=True)

    deg = sub.add_parser("degrade", help="clip, quantize or drop samples")
    deg.add_argument("input")
    deg.add_argument("-o", "--output", required=True)
    deg.add_argument("--mode", choices=tuple(_MODE_OPTIONS), required=True)
    _shared(deg, "--theta --bits")
    deg.add_argument("--ratio", type=float, help="fraction of samples to drop")
    _shared(deg, "--seed --format")
    deg.set_defaults(run=cmd_degrade)

    rec = sub.add_parser("reconstruct", help="restore a degraded file")
    rec.add_argument("input")
    rec.add_argument("-o", "--output", required=True)
    rec.add_argument("--strategy", choices=STRATEGIES, required=True)
    _shared(rec, "--theta --bits --mask --lambda-c --lambda-s")
    rec.add_argument("--gamma-c", type=_positive_float, default=_SOLVER["gamma_c"])
    rec.add_argument("--gamma-s", type=_positive_float, default=_SOLVER["gamma_s"])
    _shared(rec, "--order --frame --hop --outer --inner")
    rec.add_argument("--inner-schedule",
                     help="n1,nI exponents of a logarithmic schedule")
    _shared(rec, "--accel --workers")
    rec.add_argument("--reference", help="clean file for SDR reporting")
    _shared(rec, "--report --report-format")
    rec.add_argument("--deterministic-report", action="store_true",
                     help="zero out wall-clock fields in the report")
    _shared(rec, "--format")
    rec.set_defaults(order=512, frame=2048, outer=_SOLVER["outer_iters"],
                     run=cmd_reconstruct)

    ev = sub.add_parser("evaluate", help="score an estimate against a reference")
    ev.add_argument("estimate")
    ev.add_argument("--reference", required=True)
    ev.add_argument("--degraded")
    _shared(ev, "--theta --bits --mask --frame --hop --report --report-format")
    ev.set_defaults(run=cmd_evaluate)

    dem = sub.add_parser("demo", help="synthetic end-to-end run")
    dem.add_argument("--out-dir", required=True)
    _shared(dem, "--seed")
    dem.add_argument("--length", type=int, default=8192)
    _shared(dem, "--order")
    dem.add_argument("--clip-level", type=_positive_float, default=0.2)
    dem.add_argument("--sample-rate", type=int, default=16000)
    dem.add_argument("--strategy", choices=STRATEGIES, default="declip")
    _shared(dem, "--bits --lambda-c --lambda-s --frame --hop --outer --inner "
                 "--accel --workers")
    # demo restores as reconstruct does, with the solver options it lacks
    dem.set_defaults(order=32, bits=5, frame=1024, hop=256, outer=5, inner=200,
                     theta=None, mask=None, gamma_c=_SOLVER["gamma_c"],
                     gamma_s=_SOLVER["gamma_s"], inner_schedule=None, run=cmd_demo)
    return parser


def _parse_accel(text: str) -> frozenset:
    if text.strip() in ("", "none"):
        return frozenset()
    tokens = [token.strip() for token in text.split(",")]
    for token in tokens:
        if token not in _ACCEL_TOKENS:
            raise ValueError(f"unknown acceleration {token!r}")
    return frozenset(_ACCEL_TOKENS[token] for token in tokens)


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


def _clip_or_quantize(a, buf: AudioBuffer) -> np.ndarray:
    """Every channel clipped at --theta or, without it, quantized to --bits."""
    if a.theta is not None:
        obs = [hard_clip(x, a.theta) for x in buf.data.T]
        print(f"clipped at theta = {a.theta}")
    else:
        obs = [uniform_quantize(x, a.bits) for x in buf.data.T]
        print(f"quantized to {a.bits} bits, step {obs[0].delta}")
    return np.column_stack([o.y for o in obs])


def cmd_degrade(a) -> int:
    buf = read_wav(a.input)
    if a.mode != "drop":
        out = _clip_or_quantize(a, buf)
    else:
        rng = np.random.default_rng(a.seed)
        n_drop = int(round(a.ratio * buf.n_samples))
        out = np.empty_like(buf.data)
        reliable = np.ones(buf.data.shape, dtype=bool)
        for c, x in enumerate(buf.data.T):
            reliable[rng.choice(x.size, size=n_drop, replace=False), c] = False
            out[:, c] = drop_samples(x, reliable[:, c])
        mask_path = a.output + ".mask.npy"
        np.save(mask_path, reliable)
        print(f"dropped {a.ratio:.1%} of samples; mask saved to {mask_path}")
    write_wav(a.output, AudioBuffer(out, buf.sample_rate), fmt=a.format)
    return 0


def _build_models(a, buf: AudioBuffer,
                  infer_theta: bool = False) -> list[DegradationModel] | None:
    """One degradation model per channel, from --bits, --mask or --theta.

    A --mask (.npy) has one column per channel, or is 1-D for a mono file.
    Without any of them the clipping threshold is the peak of the file when
    ``infer_theta`` is set, else there is no model (None).
    """
    if a.bits is not None:
        model = DegradationModel(kind="quant", delta=quantizer_step(a.bits))
        return [model] * buf.channels
    if a.mask is not None:
        reliable = np.load(a.mask)
        if reliable.ndim == 1:
            reliable = reliable[:, None]
        if reliable.shape != buf.data.shape:
            raise ValueError("mask shape does not match the input file")
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
    inner = _SOLVER["inner_iters"] if a.inner is None else a.inner
    if a.inner_schedule is not None:
        parts = a.inner_schedule.split(",")
        if len(parts) != 2:
            raise ValueError("--inner-schedule takes two exponents n1,nI")
        inner = progressive_schedule(*map(float, parts), a.outer)
    return SolverConfig(
        order=a.order,
        strategy=a.strategy,
        lambda_c=a.lambda_c,
        lambda_s=a.lambda_s,
        gamma_c=a.gamma_c,
        gamma_s=a.gamma_s,
        outer_iters=a.outer,
        inner_iters=inner,
        acceleration=_parse_accel(a.accel),
    )


def _restore(a, buf: AudioBuffer, reference: AudioBuffer | None):
    """Every channel restored as the reconstruct options say; one report."""
    if reference is not None and reference.data.shape != buf.data.shape:
        raise ValueError("reference shape does not match the input")
    models = _build_models(a, buf, infer_theta=True)
    cfg = _build_config(a)
    out = np.empty_like(buf.data)
    parts = []
    for c in range(buf.channels):
        out[:, c], part = reconstruct_channel(
            buf.channel(c), models[c], cfg, a.frame, _hop(a), workers=a.workers,
            reference=reference.channel(c) if reference is not None else None)
        parts.append(part)
    return out, _merge_reports(parts, reference.data if reference else None,
                               buf.data, out)


def cmd_reconstruct(a) -> int:
    buf = read_wav(a.input)
    out, report = _restore(a, buf, read_wav(a.reference) if a.reference
                           else None)
    write_wav(a.output, AudioBuffer(out, buf.sample_rate), fmt=a.format)
    if a.report:
        write_report(report, a.report, a.report_format,
                     deterministic=a.deterministic_report)
    if report.sdr_db is not None:
        print(f"SDR: {_report_value(report.sdr_db)} dB "
              f"(improvement {_report_value(report.delta_sdr_db)} dB)")
    elif a.reference:
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
        box = models[c].spec_for(y) if models else None
        records = [] if layout is None else [
            frame_record(k, *row) for k, row in enumerate(zip(
                segment(x, layout),
                repeat(None) if y is None else segment(y, layout),
                repeat(None) if box is None
                else models[c].frame_specs(y, layout),
                segment(ref.channel(c), layout)))]
        parts.append(ReconstructionReport(
            sdr_db=None, delta_sdr_db=None,
            consistency_sq=None if box is None else consistency_distance(x, box),
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
    """Degrade a synthetic AR signal and restore it, as ``degrade`` and
    ``reconstruct`` do: a strategy that takes a declip box clips at
    --clip-level times the peak, the others quantize to --bits."""
    rng = np.random.default_rng(a.seed)
    coeffs = random_stable_ar(a.order, rng)
    clean = simulate_ar(coeffs, a.length, rng, burn_in=1000)
    if not np.isfinite(clean).all():
        raise ValueError(f"--order {a.order}: the simulated AR signal overflows; "
                         "choose a lower order")
    clean = 0.99 * clean / np.max(np.abs(clean))
    # encoded first: a rate the WAV header cannot hold makes no --out-dir
    clean_wav = _encode_wav(AudioBuffer(clean, a.sample_rate))
    out_dir = Path(a.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clean_path = out_dir / "clean.wav"
    clean_path.write_bytes(clean_wav)
    clean_buf = read_wav(clean_path)

    if "declip" in STRATEGIES[a.strategy]:
        peak = float(np.max(np.abs(clean_buf.channel(0))))
        a.theta, a.bits = float(np.float32(a.clip_level * peak)), None
    degraded_path = out_dir / "degraded.wav"
    write_wav(degraded_path, AudioBuffer(_clip_or_quantize(a, clean_buf),
                                         a.sample_rate))
    deg_buf = read_wav(degraded_path)
    x_hat, report = _restore(a, deg_buf, clean_buf)
    write_wav(out_dir / "restored.wav", AudioBuffer(x_hat, a.sample_rate))
    for fmt in ("csv", "json"):
        write_report(report, out_dir / f"report.{fmt}", fmt, deterministic=True)

    input_sdr = sdr(clean_buf.channel(0), deg_buf.channel(0))
    print(f"input SDR: {_report_value(input_sdr)} dB, restored SDR: "
          f"{_report_value(report.sdr_db)} dB")
    print(f"artifacts in {out_dir}")
    return 0


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _validate(args)
        return args.run(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
