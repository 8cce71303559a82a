"""Restoration benchmark for regar: one workload, one seed, one measured run.

    python3 bench/run.py --workload declip-paper --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare .bench_out/parent .bench_out/change

A run measures ``setup_s`` (import of ``regar`` in fresh interpreters), then
starts ``bench/runner.py`` in a fresh interpreter, which builds the seeded
inputs and calls the program for ``--seconds``.  It prints every metric by
name with its unit, writes the full result (with machine facts) under
``.bench_out/<label>/``, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The program is imported from ``src/`` of this checkout
only; the benchmark sets no thread-count variable for it.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
DEADLINE_S = 170.0

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import regar
{cli}t1 = time.perf_counter()
print(regar.__file__)
print(repr(t1 - t0))
"""
CLI_SETUP = "from regar.cli import build_parser\nbuild_parser()\n"


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload: str, deadline: float) -> float:
    """Median seconds to import regar (and build the CLI parser) in a fresh interpreter."""
    code = SETUP_CODE.format(cli=CLI_SETUP if workload == "dequant-cli" else "")
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            fail(f"import of regar failed:\n{proc.stderr}")
        if Path(lines[0]).resolve().parent != ROOT / "src" / "regar":
            fail(f"regar imported from {lines[0]}, not from {ROOT / 'src'}")
        if i:  # the first import only warms the file cache
            times.append(float(lines[1]))
    return statistics.median(times)


def run_once(a, spec: dict) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "regar" / "__init__.py").is_file():
        fail(f"no regar sources under {ROOT / 'src'}")
    names = {w["name"] for w in spec["workloads"]}
    if a.workload not in names:
        fail(f"unknown workload {a.workload!r}; choose from {sorted(names)}")
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    setup_s = None if a.trace else measure_setup(a.workload, deadline)
    label_dir = OUT / a.label
    workdir = OUT / "work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    label_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "runner.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--workdir", str(workdir)]
    if a.tiny:
        cmd.append("--tiny")
    # own process group, so a deadline kill also ends the runner's pool workers
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"runner exceeded the {DEADLINE_S:.0f} s deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"runner failed (exit {proc.returncode}):\n{stderr}")
    result = json.loads(lines[-1])
    raw = result["metrics"]
    if setup_s is not None:
        raw["setup_s"] = setup_s
    stem = f"{a.workload}__seed{a.seed}__trace{a.trace}"
    spans = workdir / "spans.npz"
    if spans.exists():
        shutil.move(str(spans), label_dir / f"{stem}__spans.npz")
    shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    missing = []
    for m in wanted:
        value = raw.get(m["name"])
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = (result["failed"] == 0 and not result["errors"] and not missing
               and all(math.isfinite(v["value"]) for v in metrics.values()))
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = dict(line, workload=a.workload, seed=a.seed, seconds=a.seconds,
                  trace=a.trace, tiny=a.tiny, errors=result["errors"],
                  missing=missing, all_metrics=raw, detail=result["detail"],
                  machine=result["machine"], wall_s=time.monotonic() - start)
    (label_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for error in result["errors"]:
        print(f"check failed: {error}")
    for name in missing:
        print(f"metric missing: {name}")
    for name, v in metrics.items():
        print(f"{a.workload} seed {a.seed}: {name} = {v['value']!r} {v['unit']}")
    print(f"frames attempted {result['attempted']}, failed {result['failed']}; "
          f"outputs {'correct' if correct else 'NOT correct'}")
    print(json.dumps(line))
    return 0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(path: Path) -> dict:
    """workload -> metric -> {seed: value}, from untraced result files."""
    out = {}
    for f in sorted(path.glob("*__trace0.json")):
        rec = json.loads(f.read_text())
        for name, v in rec["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, {})[rec["seed"]] = v["value"]
    return out


def compare(a_dir: Path, b_dir: Path, spec: dict) -> int:
    """One row per workload and end-to-end metric: medians, quartiles, verdict.

    Runs with the same seed form a pair.  "better" needs B to win at least
    nine tenths of the pairs and the medians to differ by more than A's
    quartile spread; "worse" is a median worse by more than the bound;
    "unresolved" is a spread wider than the bound on either side, unless
    every run of B is better than every run of A.
    """
    a_res, b_res = load_results(a_dir), load_results(b_dir)
    if not a_res or not b_res:
        fail(f"no untraced results in {a_dir if not a_res else b_dir}")
    print(f"{'workload':<20} {'metric':<15} {'unit':<9} {'A median':>11} "
          f"{'A q1..q3':>23} {'nA':>3} {'B median':>11} {'B q1..q3':>23} "
          f"{'nB':>3} {'change':>8} {'B wins':>7}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a_by_seed = a_res.get(w["name"], {}).get(m["name"])
            b_by_seed = b_res.get(w["name"], {}).get(m["name"])
            if not a_by_seed or not b_by_seed:
                continue
            va, vb = list(a_by_seed.values()), list(b_by_seed.values())
            qa, qb = _quartiles(va), _quartiles(vb)
            lower = m["better"] == "lower"
            sign = -1.0 if lower else 1.0
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else math.nan
            spread_a, spread_b = ((q[2] - q[0]) / abs(q[1]) if q[1] else math.inf
                                  for q in (qa, qb))
            pairs = sorted(set(a_by_seed) & set(b_by_seed))
            wins = sum(sign * (b_by_seed[k] - a_by_seed[k]) > 0 for k in pairs)
            b_all_better = sign * (min(vb, key=lambda v: sign * v)
                                   - max(va, key=lambda v: sign * v)) > 0
            if max(spread_a, spread_b) > m["bound"] and not b_all_better:
                verdict = "unresolved"
            elif sign * change < -m["bound"]:
                verdict = "worse"
            elif pairs and wins >= 0.9 * len(pairs) and sign * change > spread_a:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{w['name']:<20} {m['name']:<15} {m['unit']:<9} {qa[1]:>11.5g} "
                  f"{qa[0]:>11.5g}..{qa[2]:<10.5g} {len(va):>3} {qb[1]:>11.5g} "
                  f"{qb[0]:>11.5g}..{qb[2]:<10.5g} {len(vb):>3} {change:>+8.2%} "
                  f"{wins:>3}/{len(pairs):<3}  {verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="latest",
                    help="results go to .bench_out/<label>/")
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke tests); not a measurement")
    ap.add_argument("--compare", nargs=2, metavar=("A_DIR", "B_DIR"))
    a = ap.parse_args(argv)
    spec = load_spec()
    if a.compare:
        return compare(Path(a.compare[0]), Path(a.compare[1]), spec)
    if not a.workload:
        ap.error("--workload is required")
    if a.seconds is None:
        a.seconds = spec["run_seconds"]
    return run_once(a, spec)


if __name__ == "__main__":
    sys.exit(main())
