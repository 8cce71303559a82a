import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regar import cli
from regar.armodel import random_stable_ar, simulate_ar
from regar.audio_io import AudioBuffer, read_wav, write_wav
from regar.cli import run_cli, write_report
from regar.framing import frame_layout
from regar.metrics import FrameRecord, ReconstructionReport
from regar.pipeline import frame_record


def make_wav(path, data, rate=16000, fmt="float32"):
    write_wav(path, AudioBuffer(np.asarray(data, dtype=float), rate), fmt=fmt)


@pytest.fixture
def ar_signal(tmp_path):
    rng = np.random.default_rng(0)
    x = simulate_ar(random_stable_ar(8, rng), 3000, rng)
    x = 0.99 * x / np.max(np.abs(x))
    x = np.asarray(x, dtype=np.float32).astype(float)
    path = tmp_path / "clean.wav"
    make_wav(path, x)
    return path, x


def test_degrade_quantize_reports_step(tmp_path, ar_signal, capsys):
    clean, _ = ar_signal
    out = tmp_path / "q.wav"
    assert run_cli(["degrade", str(clean), "-o", str(out),
                    "--mode", "quantize", "--bits", "5"]) == 0
    assert "0.0625" in capsys.readouterr().out
    y = read_wav(out).data[:, 0]
    levels = y / (0.0625 / 2.0)
    assert np.all(np.abs(levels - np.round(levels)) < 1e-6)


def test_degrade_clip_and_reconstruct_feasible(tmp_path, ar_signal, capsys):
    clean, x = ar_signal
    clipped = tmp_path / "clip.wav"
    assert run_cli(["degrade", str(clean), "-o", str(clipped),
                    "--mode", "clip", "--theta", "0.3"]) == 0
    restored = tmp_path / "rest.wav"
    report = tmp_path / "report.csv"
    assert run_cli(["reconstruct", str(clipped), "-o", str(restored),
                    "--strategy", "declip", "--theta", "0.3",
                    "--lambda-s", "inf", "--order", "8", "--frame", "512",
                    "--outer", "2", "--inner", "150", "--workers", "1",
                    "--reference", str(clean),
                    "--report", str(report), "--report-format", "csv"]) == 0
    rows = list(csv.DictReader(report.read_text().splitlines()))
    assert rows
    # every solved frame is feasible before overlap-add
    for row in rows:
        if int(row["outer_iter"]) > 0:
            assert float(row["consistency_sq"]) == 0.0
    out_sdr = float([line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("SDR:")][-1].split()[1])
    assert np.isfinite(out_sdr)


def test_reconstruct_zero_outer_is_identity(tmp_path, ar_signal):
    clean, x = ar_signal
    out = tmp_path / "copy.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "declip", "--frame", "512", "--outer", "0"]) == 0
    back = read_wav(out).data[:, 0]
    assert np.max(np.abs(back - x)) <= 1e-12


def test_drop_and_inpaint_with_mask(tmp_path, ar_signal):
    clean, x = ar_signal
    dropped = tmp_path / "drop.wav"
    assert run_cli(["degrade", str(clean), "-o", str(dropped),
                    "--mode", "drop", "--ratio", "0.2", "--seed", "5"]) == 0
    mask_path = str(dropped) + ".mask.npy"
    reliable = np.load(mask_path)
    assert reliable.shape[0] == 3000
    assert np.isclose(1.0 - reliable.mean(), 0.2, atol=0.01)
    out = tmp_path / "inpainted.wav"
    assert run_cli(["reconstruct", str(dropped), "-o", str(out),
                    "--strategy", "inpaint", "--mask", mask_path,
                    "--order", "8", "--frame", "512", "--outer", "2",
                    "--inner", "100", "--lambda-c", "0", "--workers", "1"]) == 0
    y = read_wav(dropped).data[:, 0]
    rec = read_wav(out).data[:, 0]
    err_before = np.linalg.norm(x - y)
    err_after = np.linalg.norm(x - rec)
    assert err_after < err_before


def test_evaluate_identical_reports_inf(tmp_path, ar_signal, capsys):
    clean, _ = ar_signal
    assert run_cli(["evaluate", str(clean), "--reference", str(clean)]) == 0
    assert "SDR: inf dB" in capsys.readouterr().out


def test_report_is_standard_json_when_a_frame_is_exact(tmp_path):
    # frames of the quiet first half are never clipped: their estimate and
    # observation both equal the reference, so the gain is undefined
    t = np.arange(2048)
    x = np.sin(2 * np.pi * t / 64) * np.where(t < 1024, 0.4, 0.9)
    x = x.astype(np.float32).astype(float)
    clean, clipped = tmp_path / "c.wav", tmp_path / "d.wav"
    make_wav(clean, x)
    make_wav(clipped, np.clip(x, -0.5, 0.5))
    report = tmp_path / "r.json"
    assert run_cli(["reconstruct", str(clipped), "-o", str(tmp_path / "e.wav"),
                    "--strategy", "declip", "--theta", "0.5", "--order", "8",
                    "--frame", "256", "--outer", "1", "--inner", "20",
                    "--workers", "1", "--reference", str(clean),
                    "--report", str(report)]) == 0

    def reject(constant):
        raise ValueError(f"report holds the non-standard constant {constant}")

    doc = json.loads(report.read_text(), parse_constant=reject)
    exact = [f for f in doc["frames"] if f["outer_iter"] == 0]
    assert exact
    assert all(f["sdr_db"] == "inf" and f["delta_sdr_db"] is None for f in exact)


def test_evaluate_with_degraded_and_report(tmp_path, ar_signal):
    clean, x = ar_signal
    clipped = tmp_path / "clip.wav"
    make_wav(clipped, np.clip(x, -0.3, 0.3))
    report = tmp_path / "eval.json"
    assert run_cli(["evaluate", str(clipped), "--reference", str(clean),
                    "--degraded", str(clipped), "--theta", "0.3",
                    "--frame", "512", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["global"]["delta_sdr_db"] == 0.0
    assert doc["global"]["consistency_sq"] == pytest.approx(0.0, abs=1e-12)
    assert doc["frames"]


def test_evaluate_frames_view_the_channels_read(monkeypatch, tmp_path,
                                               ar_signal):
    # only frames that reach past the channel end are cut from a padded copy
    clean, x = ar_signal
    quantized = tmp_path / "q.wav"
    make_wav(quantized, np.round(x * 8) / 8)
    reads, seen = [], []  # estimate, reference and degraded, in that order

    def read_spy(path):
        reads.append(read_wav(path))
        return reads[-1]

    def record_spy(*args):
        seen.append(args)
        return frame_record(*args)

    monkeypatch.setattr(cli, "read_wav", read_spy)
    monkeypatch.setattr(cli, "frame_record", record_spy)
    assert run_cli(["evaluate", str(quantized), "--reference", str(clean),
                    "--degraded", str(quantized), "--bits", "4",
                    "--frame", "512", "--hop", "160"]) == 0
    layout = frame_layout(x.size, 512, 160)
    assert len(seen) == layout.n_frames
    inside = [k * 160 + 512 <= x.size for k in range(layout.n_frames)]
    assert any(inside) and not all(inside)
    est, ref, degraded = (buf.data for buf in reads)
    for (_, estimate, observed, spec, reference), view in zip(seen, inside):
        assert np.shares_memory(estimate, est) == view
        assert np.shares_memory(observed, degraded) == view
        assert np.shares_memory(reference, ref) == view
        assert spec is not None


def test_silent_reference_reports_null_sdr(tmp_path, ar_signal, capsys):
    clean, x = ar_signal
    clipped = tmp_path / "clip.wav"
    make_wav(clipped, np.clip(x, -0.3, 0.3))
    silent = tmp_path / "silent.wav"
    make_wav(silent, np.zeros_like(x))
    restored = tmp_path / "rest.wav"
    report = tmp_path / "report.json"
    assert run_cli(["reconstruct", str(clipped), "-o", str(restored),
                    "--strategy", "declip", "--theta", "0.3", "--order", "8",
                    "--frame", "512", "--outer", "1", "--inner", "20",
                    "--workers", "1", "--reference", str(silent),
                    "--report", str(report)]) == 0
    assert restored.exists()
    doc = json.loads(report.read_text())
    assert doc["global"]["sdr_db"] is None
    assert doc["global"]["delta_sdr_db"] is None
    assert all(f["sdr_db"] is None for f in doc["frames"])
    scored = tmp_path / "eval.json"
    assert run_cli(["evaluate", str(restored), "--reference", str(silent),
                    "--degraded", str(clipped), "--report", str(scored)]) == 0
    doc = json.loads(scored.read_text())
    assert doc["global"]["sdr_db"] is None
    assert doc["global"]["delta_sdr_db"] is None
    assert "SDR: undefined (silent reference)" in capsys.readouterr().out


def test_evaluate_frame_consistency_is_measured_or_null(tmp_path, ar_signal):
    clean, x = ar_signal
    clipped = tmp_path / "clip.wav"
    make_wav(clipped, np.clip(x, -0.3, 0.3))
    silent = tmp_path / "zeros.wav"
    make_wav(silent, np.zeros_like(x))
    measured = tmp_path / "measured.json"
    # an all-zero estimate leaves every clipped sample below theta
    assert run_cli(["evaluate", str(silent), "--reference", str(clean),
                    "--degraded", str(clipped), "--theta", "0.3",
                    "--frame", "512", "--report", str(measured)]) == 0
    doc = json.loads(measured.read_text())
    frames = [f["consistency_sq"] for f in doc["frames"]]
    assert doc["global"]["consistency_sq"] > 0
    assert all(c > 0 for c in frames)
    unmeasured = tmp_path / "unmeasured.csv"
    assert run_cli(["evaluate", str(silent), "--reference", str(clean),
                    "--degraded", str(clipped), "--frame", "512",
                    "--report", str(unmeasured), "--report-format", "csv"]) == 0
    rows = list(csv.DictReader(unmeasured.read_text().splitlines()))
    assert len(rows) == len(frames)
    assert all(r["consistency_sq"] == "" for r in rows)


def test_evaluate_rejects_mask_of_wrong_shape(tmp_path, ar_signal, capsys):
    clean, x = ar_signal
    stereo = tmp_path / "stereo.wav"
    make_wav(stereo, np.stack([x, x], axis=1))
    mono_mask = tmp_path / "mono.npy"
    np.save(mono_mask, np.ones(x.size, dtype=bool))
    assert run_cli(["evaluate", str(stereo), "--reference", str(stereo),
                    "--degraded", str(stereo), "--mask", str(mono_mask)]) == 1
    assert "mask shape" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["0", "-3"])
def test_word_length_below_one_bit_is_rejected(tmp_path, ar_signal, capsys,
                                               bits):
    clean, _ = ar_signal
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "dequant", "--bits", bits, "--order", "8",
                    "--frame", "512", "--outer", "1", "--inner", "10",
                    "--workers", "1"]) == 1
    assert "word length must be at least 1 bit" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["evaluate", str(clean), "--reference", str(clean),
                    "--degraded", str(clean), "--bits", bits]) == 1
    assert "word length must be at least 1 bit" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--theta", "0.3"], ["--bits", "4"],
                                    ["--mask", "m.npy"]])
def test_evaluate_model_options_need_degraded(tmp_path, ar_signal, capsys,
                                              option):
    clean, _ = ar_signal
    assert run_cli(["evaluate", str(clean), "--reference", str(clean),
                    *option]) == 1
    captured = capsys.readouterr()
    assert "--degraded" in captured.err
    assert "SDR" not in captured.out


def test_jobspec_validation_errors(tmp_path, ar_signal, capsys):
    clean, _ = ar_signal
    out = str(tmp_path / "o.wav")
    # theta with quantize mode conflicts
    assert run_cli(["degrade", str(clean), "-o", out, "--mode", "quantize",
                    "--bits", "4", "--theta", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err
    # dequant without bits
    assert run_cli(["reconstruct", str(clean), "-o", out,
                    "--strategy", "dequant"]) == 1
    # inpaint without mask or theta
    assert run_cli(["reconstruct", str(clean), "-o", out,
                    "--strategy", "inpaint"]) == 1
    # the circulant kernel is the only backend; "fft" is no acceleration
    capsys.readouterr()
    assert run_cli(["reconstruct", str(clean), "-o", out, "--strategy", "declip",
                    "--accel", "fft"]) == 1
    assert "unknown acceleration 'fft'" in capsys.readouterr().err
    # unparseable arguments
    assert run_cli(["reconstruct"]) == 2
    assert run_cli(["no-such-command"]) == 2
    # missing input file
    assert run_cli(["evaluate", str(tmp_path / "none.wav"),
                    "--reference", str(clean)]) == 1


# the (strategy, model options) pairs reconstruct accepts; it rejects every other
_ACCEPTED = {("declip", ""), ("declip", "--theta"), ("glp", ""), ("glp", "--theta"),
             ("inpaint", "--theta"), ("inpaint", "--mask"), ("dequant", "--bits")}


@pytest.mark.parametrize("outer", ["0", "1"])
@pytest.mark.parametrize("options", ["", "--theta", "--bits", "--mask",
                                     "--theta --mask"])
@pytest.mark.parametrize("strategy", ["declip", "glp", "inpaint", "dequant"])
def test_reconstruct_accepts_exactly_the_models_a_strategy_takes(
        tmp_path, capsys, strategy, options, outer):
    n = 256
    make_wav(tmp_path / "in.wav", 0.5 * np.sin(np.arange(n) / 5.0))
    np.save(tmp_path / "mask.npy", np.arange(n) % 7 != 0)
    values = {"--theta": "0.6", "--bits": "4",
              "--mask": str(tmp_path / "mask.npy")}
    out = tmp_path / "out.wav"
    argv = ["reconstruct", str(tmp_path / "in.wav"), "-o", str(out),
            "--strategy", strategy, "--order", "4", "--frame", "64",
            "--outer", outer, "--inner", "2", "--workers", "1"]
    for option in options.split():
        argv += [option, values[option]]
    accepted = (strategy, options) in _ACCEPTED
    assert run_cli(argv) == (0 if accepted else 1)
    assert out.exists() == accepted
    if not accepted:
        assert "error:" in capsys.readouterr().err


def test_zero_workers_is_rejected(tmp_path, ar_signal, capsys):
    clean, _ = ar_signal
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "declip", "--order", "8", "--frame", "512",
                    "--outer", "1", "--inner", "10", "--workers", "0"]) == 1
    assert "worker count must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--lambda-c", "--lambda-s"])
def test_nan_regularization_weight_is_rejected(tmp_path, ar_signal, capsys, option):
    clean, _ = ar_signal
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "dequant", "--bits", "4", option, "nan",
                    "--order", "8", "--frame", "512", "--outer", "1",
                    "--inner", "10", "--workers", "1"]) == 2
    assert "must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--gamma-c", "--gamma-s"])
def test_infinite_step_size_is_rejected(tmp_path, ar_signal, capsys, option):
    clean, _ = ar_signal
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "declip", "--theta", "0.3", option, "inf",
                    "--order", "8", "--frame", "512", "--outer", "1",
                    "--inner", "10", "--workers", "1"]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module", ["regar", "regar.cli"])
def test_python_m_runs_the_cli(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0 and "usage: regar" in shown.stdout
    missing = run("reconstruct")
    assert missing.returncode == 2 and "usage: regar" in missing.stderr


def test_reconstruct_rejects_mask_with_theta(tmp_path, ar_signal, capsys):
    clean, x = ar_signal
    mask = tmp_path / "m.npy"
    np.save(mask, np.ones(x.size, dtype=bool))
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "inpaint", "--mask", str(mask), "--theta", "0.3",
                    "--order", "8", "--frame", "512", "--outer", "1",
                    "--inner", "10", "--workers", "1"]) == 1
    assert "at most one of --theta, --bits, --mask" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_rejects_a_non_boolean_mask(tmp_path, ar_signal, capsys):
    # an index array is not a mask: it is rejected, not cast to bool
    clean, x = ar_signal
    mask = tmp_path / "m.npy"
    np.save(mask, np.arange(x.size, dtype=np.int64))
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "inpaint", "--mask", str(mask),
                    "--order", "8", "--frame", "512", "--outer", "1",
                    "--inner", "10", "--workers", "1"]) == 1
    assert ("mask must be a boolean array, got dtype int64"
            in capsys.readouterr().err)
    assert not out.exists()


def test_evaluate_rejects_hop_without_frame(tmp_path, ar_signal, capsys):
    clean, _ = ar_signal
    report = tmp_path / "r.json"
    assert run_cli(["evaluate", str(clean), "--reference", str(clean),
                    "--hop", "7", "--report", str(report)]) == 1
    assert "--hop needs --frame" in capsys.readouterr().err
    assert not report.exists()

def _report_fixture():
    return ReconstructionReport(
        sdr_db=12.5, delta_sdr_db=4.0, consistency_sq=0.0,
        per_frame=[
            FrameRecord(frame_index=0, sdr_db=10.0, delta_sdr_db=2.0,
                        consistency_sq=0.0, outer_iter=3, objective=1.25,
                        inner_iters=300, wall_ms=17.0),
            FrameRecord(frame_index=1, sdr_db=20.0, delta_sdr_db=6.0,
                        consistency_sq=0.0, outer_iter=3, objective=0.75,
                        inner_iters=300, wall_ms=13.0),
        ],
        timing_s=0.5)


def test_write_report_csv(tmp_path):
    path = tmp_path / "r.csv"
    empty = ReconstructionReport(sdr_db=None, delta_sdr_db=None,
                                 consistency_sq=None)
    write_report(empty, path, "csv")
    lines = path.read_text().splitlines()
    assert lines == ["frame_index,sdr_db,delta_sdr_db,consistency_sq,"
                     "outer_iter,objective,inner_iters,wall_ms"]

    write_report(_report_fixture(), path, "csv")
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [r["frame_index"] for r in rows] == ["0", "1"]
    assert rows[0]["sdr_db"] == "10.0"
    assert rows[1]["wall_ms"] == "13.0"


def test_write_report_deterministic_zeroes_wall(tmp_path):
    path = tmp_path / "r.csv"
    write_report(_report_fixture(), path, "csv", deterministic=True)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert all(r["wall_ms"] == "0.0" for r in rows)


def test_write_report_json_aggregates(tmp_path):
    path = tmp_path / "r.json"
    write_report(_report_fixture(), path, "json")
    doc = json.loads(path.read_text())
    assert doc["global"]["mean_frame_sdr_db"] == 15.0
    assert doc["global"]["n_frames"] == 2
    assert [f["frame_index"] for f in doc["frames"]] == [0, 1]


def test_write_report_serializes_infinity(tmp_path):
    report = ReconstructionReport(
        sdr_db=math.inf, delta_sdr_db=math.inf, consistency_sq=0.0,
        per_frame=[FrameRecord(frame_index=0, sdr_db=math.inf,
                               delta_sdr_db=None, consistency_sq=0.0,
                               outer_iter=0, objective=None, inner_iters=0,
                               wall_ms=0.0)])
    jpath = tmp_path / "r.json"
    write_report(report, jpath, "json")
    doc = json.loads(jpath.read_text())  # strict JSON stays parseable
    assert doc["global"]["sdr_db"] == "inf"
    assert doc["frames"][0]["sdr_db"] == "inf"
    cpath = tmp_path / "r.csv"
    write_report(report, cpath, "csv")
    assert "inf" in cpath.read_text()


def test_demo_smoke(tmp_path):
    out_dir = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(out_dir), "--seed", "1",
                    "--length", "2048", "--frame", "512", "--outer", "2",
                    "--inner", "100", "--workers", "1"]) == 0
    for name in ("clean.wav", "degraded.wav", "restored.wav",
                 "report.csv", "report.json"):
        assert (out_dir / name).exists()
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["global"]["sdr_db"] is not None


def test_demo_zero_outer_passes_the_observation_through(tmp_path):
    out_dir = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(out_dir), "--length", "2048",
                    "--frame", "512", "--outer", "0", "--workers", "1"]) == 0
    restored = (out_dir / "restored.wav").read_bytes()
    assert restored == (out_dir / "degraded.wav").read_bytes()
    assert (out_dir / "report.json").exists()


@pytest.mark.parametrize("option", [["--outer", "-1"], ["--inner", "0"],
                                    ["--accel", "bogus"],
                                    ["--strategy", "dequant", "--bits", "0"]])
def test_demo_rejects_bad_options_before_writing(tmp_path, capsys, option):
    out_dir = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(out_dir), "--length", "2048",
                    "--workers", "1", *option]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("option, name", [
    (["--workers", "0"], "--workers"), (["--frame", "0"], "--frame"),
    (["--hop", "0"], "--hop"), (["--hop", "2048"], "--hop"),
    (["--length", "0"], "--length"), (["--order", "3000"], "--order")])
def test_demo_writes_no_wav_before_its_checks(tmp_path, capsys, option, name):
    # --order 3000 draws a stable model whose direct-form simulation
    # overflows; the others fail the option checks
    out_dir = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(out_dir), "--length", "2048",
                    "--workers", "1", *option]) == 1
    assert name in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.wav"))


@pytest.mark.parametrize("level", ["0", "-0.5", "nan", "inf"])
def test_demo_rejects_a_bad_clip_level_before_writing(tmp_path, capsys, level):
    out_dir = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(out_dir), "--length", "2048",
                    "--workers", "1", f"--clip-level={level}"]) == 2
    assert "--clip-level" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("rate", ["0", "-3"])
def test_demo_rejects_a_bad_sample_rate_before_writing(tmp_path, capsys, rate):
    out_dir = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(out_dir), "--length", "2048",
                    "--workers", "1", f"--sample-rate={rate}"]) == 1
    assert "--sample-rate must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("text, accel", [
    ("extrapolate,extrapolate-coefs", {"extrapolate_signal", "extrapolate_coefs"}),
    ("linesearch", {"line_search"}), ("none", set())])
def test_accel_list_selects_the_solver_accelerations(text, accel):
    args = cli.build_parser().parse_args(["reconstruct", "in.wav", "-o", "out.wav",
                                          "--strategy", "declip", "--accel", text])
    assert cli._build_config(args).acceleration == accel


def test_accel_rejects_line_search_with_extrapolation(tmp_path, ar_signal, capsys):
    clean, _ = ar_signal
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "declip", "--order", "8", "--frame", "512",
                    "--outer", "1", "--inner", "10",
                    "--accel", "linesearch,extrapolate"]) == 1
    assert "line_search replaces the fixed extrapolations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, name", [
    (["--workers", "0"], "--workers"), (["--frame", "0"], "--frame"),
    (["--hop", "513"], "--hop")])
def test_reconstruct_names_the_bad_framing_option(tmp_path, ar_signal, capsys,
                                                  option, name):
    clean, _ = ar_signal
    out = tmp_path / "o.wav"
    assert run_cli(["reconstruct", str(clean), "-o", str(out),
                    "--strategy", "declip", "--order", "8", "--frame", "512",
                    "--outer", "1", "--inner", "10", *option]) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategy, model", [("declip", "--theta"),
                                             ("dequant", "--bits")])
def test_demo_restores_as_reconstruct_does(tmp_path, capsys, strategy, model):
    solver = ["--order", "8", "--frame", "512", "--hop", "128",
              "--outer", "2", "--inner", "40", "--workers", "1"]
    demo = tmp_path / "demo"
    assert run_cli(["demo", "--out-dir", str(demo), "--seed", "2",
                    "--length", "2048", "--strategy", strategy, *solver]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    # "clipped at theta = 0.19..." or "quantized to 5 bits, step 0.0625"
    value = printed.split()[-1] if model == "--theta" else "5"
    restored, report = tmp_path / "restored.wav", tmp_path / "report.json"
    assert run_cli(["reconstruct", str(demo / "degraded.wav"),
                    "-o", str(restored), "--strategy", strategy, model, value,
                    "--reference", str(demo / "clean.wav"),
                    "--report", str(report), "--deterministic-report",
                    *solver]) == 0
    assert restored.read_bytes() == (demo / "restored.wav").read_bytes()
    assert report.read_bytes() == (demo / "report.json").read_bytes()


# every option of every subcommand: (dest, type, default, choices, required);
# None in the workers row stands for the CPU count
_CHOICES = {"format": ["float32", "pcm16", "pcm24"], "report": ["csv", "json"],
            "strategy": ["inpaint", "glp", "declip", "dequant"]}
_SURFACE = {
    "degrade": {
        "input": ("input", None, None, None, True),
        "-o --output": ("output", None, None, None, True),
        "--mode": ("mode", None, None, ["clip", "quantize", "drop"], True),
        "--theta": ("theta", "_positive_float", None, None, False),
        "--bits": ("bits", "int", None, None, False),
        "--ratio": ("ratio", "float", None, None, False),
        "--seed": ("seed", "int", 0, None, False),
        "--format": ("format", None, "float32", _CHOICES["format"], False),
    },
    "reconstruct": {
        "input": ("input", None, None, None, True),
        "-o --output": ("output", None, None, None, True),
        "--strategy": ("strategy", None, None, _CHOICES["strategy"], True),
        "--theta": ("theta", "_positive_float", None, None, False),
        "--bits": ("bits", "int", None, None, False),
        "--mask": ("mask", None, None, None, False),
        "--lambda-c": ("lambda_c", "_lambda_value", 1e-3, None, False),
        "--lambda-s": ("lambda_s", "_lambda_value", math.inf, None, False),
        "--gamma-c": ("gamma_c", "_positive_float", 1.0, None, False),
        "--gamma-s": ("gamma_s", "_positive_float", 1.0, None, False),
        "--order": ("order", "int", 512, None, False),
        "--frame": ("frame", "int", 2048, None, False),
        "--hop": ("hop", "int", None, None, False),
        "--outer": ("outer", "int", 10, None, False),
        "--inner": ("inner", "int", None, None, False),
        "--inner-schedule": ("inner_schedule", None, None, None, False),
        "--accel": ("accel", None, "none", None, False),
        "--workers": ("workers", "int", None, None, False),
        "--reference": ("reference", None, None, None, False),
        "--report": ("report", None, None, None, False),
        "--report-format": ("report_format", None, "json", _CHOICES["report"],
                            False),
        "--deterministic-report": ("deterministic_report", None, False, None,
                                   False),
        "--format": ("format", None, "float32", _CHOICES["format"], False),
    },
    "evaluate": {
        "estimate": ("estimate", None, None, None, True),
        "--reference": ("reference", None, None, None, True),
        "--degraded": ("degraded", None, None, None, False),
        "--theta": ("theta", "_positive_float", None, None, False),
        "--bits": ("bits", "int", None, None, False),
        "--mask": ("mask", None, None, None, False),
        "--frame": ("frame", "int", None, None, False),
        "--hop": ("hop", "int", None, None, False),
        "--report": ("report", None, None, None, False),
        "--report-format": ("report_format", None, "json", _CHOICES["report"],
                            False),
    },
    "demo": {
        "--out-dir": ("out_dir", None, None, None, True),
        "--seed": ("seed", "int", 0, None, False),
        "--length": ("length", "int", 8192, None, False),
        "--order": ("order", "int", 32, None, False),
        "--clip-level": ("clip_level", "_positive_float", 0.2, None, False),
        "--sample-rate": ("sample_rate", "int", 16000, None, False),
        "--strategy": ("strategy", None, "declip", _CHOICES["strategy"], False),
        "--bits": ("bits", "int", 5, None, False),
        "--lambda-c": ("lambda_c", "_lambda_value", 1e-3, None, False),
        "--lambda-s": ("lambda_s", "_lambda_value", math.inf, None, False),
        "--frame": ("frame", "int", 1024, None, False),
        "--hop": ("hop", "int", 256, None, False),
        "--outer": ("outer", "int", 5, None, False),
        "--inner": ("inner", "int", 200, None, False),
        "--accel": ("accel", None, "none", None, False),
        "--workers": ("workers", "int", None, None, False),
    },
}


def test_parser_surface_is_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_SURFACE)
    for name, sub_parser in sub.choices.items():
        seen = {}
        for action in sub_parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = " ".join(action.option_strings) or action.dest
            default = action.default
            if action.dest == "workers":
                assert default == (os.cpu_count() or 1)
                default = None
            seen[key] = (action.dest, getattr(action.type, "__name__", None),
                         default, None if action.choices is None
                         else list(action.choices), action.required)
        assert seen == _SURFACE[name], name
    # demo restores with reconstruct's solver settings but does not take them
    demo_flags = set(_SURFACE["demo"])
    for flag in ("--gamma-c", "--gamma-s", "--inner-schedule", "--theta",
                 "--mask"):
        assert flag not in demo_flags


def test_malformed_wav_header_is_an_error_line(tmp_path, capsys):
    # 4-bit PCM claims a zero-byte block; reading it must not divide by zero
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 0, 0, 4)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 4) + bytes(4))
    path = tmp_path / "f.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert run_cli(["evaluate", str(path), "--reference", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "inconsistent block alignment" in err


def test_a_wav_holding_nan_is_rejected_before_any_output(tmp_path, ar_signal,
                                                         capsys):
    clean, x = ar_signal
    path = tmp_path / "nan.wav"
    make_wav(path, x)
    blob = bytearray(path.read_bytes())
    start = blob.index(b"data") + 8
    blob[start + 4 * 1234: start + 4 * 1235] = struct.pack("<f", math.nan)
    path.write_bytes(bytes(blob))
    out = tmp_path / "out"
    for argv in (["evaluate", str(path), "--reference", str(clean),
                  "--report", str(out)],
                 ["reconstruct", str(path), "-o", str(out), "--bits", "4",
                  "--strategy", "dequant", "--workers", "1"],
                 ["degrade", str(path), "-o", str(out), "--mode", "drop",
                  "--ratio", "0.1"]):
        assert run_cli(argv) == 1
        assert f"{path}: NaN or infinite float32 samples" in \
            capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == sorted([clean, path])
