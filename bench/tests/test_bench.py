"""Smoke tests of the benchmark harness (tiny inputs; not a measurement).

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import regar  # noqa: E402
import runner  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_functions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    w = wl.WORKLOADS[name]
    inputs = w.build(5, True, tmp_path / "seeded")
    quality = w.build(runner.QUALITY_SEED, True, tmp_path / "quality")
    result = runner.run_untraced(w, inputs, quality, seconds=0.0)
    assert result["failed"] == 0 and not result["errors"]
    assert result["attempted"] >= 2 * w.frames_per_call(inputs)
    # setup_s is added by run.py from fresh interpreters
    assert set(result["metrics"]) == set(E2E)
    assert all(math.isfinite(v) for k, v in result["metrics"].items() if k != "setup_s")


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    w = wl.WORKLOADS[name]
    inputs = w.build(5, True, tmp_path / "seeded")
    result = runner.run_traced(w, inputs, 0.0, tmp_path / "spans.npz")
    assert result["failed"] == 0 and not result["errors"]
    assert set(result["metrics"]) == set(PER_LAYER)
    m = result["metrics"]
    assert m["pipeline.frames_solved"] + m["pipeline.frames_passthrough"] \
        == w.frames_per_call(inputs)
    assert m["solver.inner_iters"] > 0
    assert (tmp_path / "spans.npz").exists()


def _layer_bindings():
    """Every (module, attribute) of regar that refers to a layer function."""
    originals = {id(fn) for _, fn in layer_functions()}
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "regar" or key.startswith("regar."):
            for attr, value in vars(module).items():
                if id(value) in originals:
                    out[(key, attr)] = value
    return out


def test_tracer_patches_callers_and_restores_originals():
    before = _layer_bindings()
    before_wl = wl.reconstruct_channel
    with Tracer(extra_modules=[wl]) as tracer:
        assert regar.solver.douglas_rachford is not before[("regar.solver", "douglas_rachford")]
        assert regar.pipeline.acs_run is not before[("regar.pipeline", "acs_run")]
        assert wl.reconstruct_channel is not before_wl
        w = wl.WORKLOADS["declip-paper"]
        inputs = w.build(1, True, Path("unused"))
        w.call(inputs, 1)
    after = _layer_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert wl.reconstruct_channel is before_wl
    s = tracer.summary()
    fn = s["functions"]
    assert fn["pipeline.reconstruct_channel"]["calls"] == 1
    assert fn["fastops.quadratic_prox"]["calls"] == s["counts"]["solver.douglas_rachford.iters"]
    for v in fn.values():
        assert v["self_s"] <= v["busy_s"] + 1e-9
    # the top-level span covers everything recorded under it
    assert s["layers"]["pipeline"]["busy_s"] >= s["layers"]["solver"]["busy_s"]


def _write_results(directory: Path, values: dict):
    directory.mkdir()
    for i, v in enumerate(values["throughput_sps"]):
        metrics = {name: {"value": vals[i], "unit": "u"} for name, vals in values.items()}
        rec = {"workload": "declip-paper", "seed": i, "metrics": metrics}
        (directory / f"declip-paper__seed{i}__trace0.json").write_text(json.dumps(rec))


def test_compare_marks_wide_spread_unresolved(tmp_path, capsys):
    import run
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    _write_results(tmp_path / "a", {"throughput_sps": steady, "setup_s": [1.0] * 5})
    _write_results(tmp_path / "b", {"throughput_sps": [60.0, 140.0, 100.0, 50.0, 150.0],
                                    "setup_s": [1.0] * 5})
    run.compare(tmp_path / "a", tmp_path / "b", SPEC)
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["throughput_sps"].endswith("unresolved")
    assert rows["setup_s"].endswith("same")
    # every pair won and a median gain beyond A's spread: better
    _write_results(tmp_path / "c", {"throughput_sps": [v * 1.1 for v in steady],
                                    "setup_s": [0.5] * 5})
    run.compare(tmp_path / "a", tmp_path / "c", SPEC)
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["throughput_sps"].endswith("better")
    assert rows["setup_s"].endswith("better")


def test_run_script_end_to_end_tiny(tmp_path):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "dequant-cli",
           "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny",
           "--label", "smoke-test"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == E2E
    shutil.rmtree(ROOT / ".bench_out" / "smoke-test", ignore_errors=True)


def test_run_script_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "declip-paper",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
