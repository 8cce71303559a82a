import csv
import json
import math

import numpy as np
import pytest

from regar.armodel import random_stable_ar, simulate_ar
from regar.audio_io import AudioBuffer, read_wav, write_wav
from regar.cli import run_cli, write_report
from regar.metrics import FrameRecord, ReconstructionReport


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
    rows = list(csv.DictReader(report.open()))
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


def test_evaluate_rejects_mask_of_wrong_shape(tmp_path, ar_signal, capsys):
    clean, x = ar_signal
    stereo = tmp_path / "stereo.wav"
    make_wav(stereo, np.stack([x, x], axis=1))
    mono_mask = tmp_path / "mono.npy"
    np.save(mono_mask, np.ones(x.size, dtype=bool))
    assert run_cli(["evaluate", str(stereo), "--reference", str(stereo),
                    "--degraded", str(stereo), "--mask", str(mono_mask)]) == 1
    assert "mask shape" in capsys.readouterr().err


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
    rows = list(csv.DictReader(path.open()))
    assert [r["frame_index"] for r in rows] == ["0", "1"]
    assert rows[0]["sdr_db"] == "10.0"
    assert rows[1]["wall_ms"] == "13.0"


def test_write_report_deterministic_zeroes_wall(tmp_path):
    path = tmp_path / "r.csv"
    write_report(_report_fixture(), path, "csv", deterministic=True)
    rows = list(csv.DictReader(path.open()))
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
