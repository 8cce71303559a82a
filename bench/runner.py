"""One measured run of one workload, in a fresh interpreter (started by run.py).

Untraced (``--trace 0``): build the seeded input and the workload's fixed
quality input (same size and work), then call the program on them in turn
until ``--seconds`` have passed.  The first call's output (quality input)
gives the SDR metrics; every call is checked, and its wall time gives one
throughput sample.

Traced (``--trace 1``): untraced calls at two workers and at one worker,
then one call at one worker under the layer tracer.  All outputs must be
bitwise equal (the worker count and the tracer never change the output).

The last line on stdout is one JSON object for run.py.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import regar  # noqa: E402

if Path(regar.__file__).resolve().parent != ROOT / "src" / "regar":
    sys.exit(f"regar imported from {regar.__file__}, not from {ROOT / 'src'}")

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

QUALITY_SEED = 0
# Functions whose call count and busy time are reported by name; the trace
# file holds every wrapped function.
CALL_METRICS = (
    "pipeline.reconstruct_channel", "solver.acs_run",
    "solver.update_coefficients", "solver.update_signal",
    "solver.douglas_rachford", "solver.janssen_signal_update",
    "solver.glp_rectify", "armodel.levinson_durbin", "armodel.objective",
    "fastops.circulant_embed_filter", "fastops.quadratic_prox",
    "fastops.prox_regularizer_extended", "prox.prox_signal_penalty",
    "prox.project_consistency", "prox.soft_threshold", "framing.segment",
    "framing.overlap_add", "metrics.sdr", "metrics.consistency_distance",
    "audio_io.read_wav", "audio_io.write_wav", "cli.run_cli",
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "REGAR_THREADS")


def machine_facts() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Tally:
    """Frames attempted and failed over every call of the run."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.frames = workload.frames_per_call(inputs)
        self.attempted = 0
        self.failed = 0
        self.reference = None   # output of the first good call
        self.errors = []

    def timed_call(self, workers: int, tracer=None):
        """Call the program once; return (wall seconds, outcome or None)."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = self.workload.call(self.inputs, workers)
            else:
                with tracer:
                    raw = self.workload.call(self.inputs, workers)
        except Exception as exc:  # a failing call fails all its frames
            wall = time.perf_counter() - t0
            self.attempted += self.frames
            self.failed += self.frames
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return wall, None
        wall = time.perf_counter() - t0
        outcome = self.workload.check(self.inputs, raw)
        self.attempted += outcome.attempted
        failed = outcome.failed
        if self.reference is None:
            self.reference = outcome.output
        elif outcome.output.tobytes() != self.reference.tobytes():
            failed = outcome.attempted
            self.errors.append(f"output differs bitwise ({workers} workers)")
        self.failed += failed
        return wall, outcome


def run_untraced(workload, inputs, quality, seconds: float) -> dict:
    """Alternate calls on the quality input and the seeded input (the same
    amount of work) until ``seconds`` have passed; at least one of each."""
    tallies = (Tally(workload, quality), Tally(workload, inputs))
    walls = []
    begin = time.perf_counter()
    # start no call that would likely end more than half a call past `seconds`
    while len(walls) < 2 or time.perf_counter() - begin + walls[-1] / 2 < seconds:
        wall, outcome = tallies[len(walls) % 2].timed_call(workload.workers)
        if not walls:
            q = outcome
        walls.append(wall)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    good = q is not None and tallies[0].failed == 0
    metrics = {
        "throughput_sps": statistics.median(inputs.n_samples / w for w in walls),
        "setup_s": None,  # measured by run.py in fresh interpreters
        "peak_rss_mb": peak_rss_mb(),
        "sdr_db": q.sdr_db if good else math.nan,
        "delta_sdr_db": q.delta_sdr_db if good else math.nan,
        "frames_ok_frac": 1.0 - failed / attempted,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": tallies[0].errors + tallies[1].errors,
            "detail": {"walls_s": walls, "n_samples_per_call": inputs.n_samples}}


def _per_call(busy: float, calls: int, scale: float) -> float:
    return scale * busy / calls if calls else 0.0


def run_traced(workload, inputs, seconds: float, trace_path: Path) -> dict:
    """Untraced 2-worker calls for a third of ``seconds`` (at least one), one
    untraced and one traced 1-worker call; per-layer metrics from the trace."""
    tally = Tally(workload, inputs)
    multi = []
    begin = time.perf_counter()
    while not multi or time.perf_counter() - begin < seconds / 3:
        multi.append(tally.timed_call(2)[0])
    single, single_outcome = tally.timed_call(1)
    tracer = Tracer(extra_modules=[wl])
    traced, _ = tally.timed_call(1, tracer)
    tracer.save(trace_path)
    s = tracer.summary()
    fn = s["functions"]
    counts = s["counts"]
    layers = s["layers"]

    def f(name, key):
        return fn.get(name, {}).get(key, 0)

    solved_ms = single_outcome.solved_frame_ms if single_outcome else []
    janssen_calls = f("solver.janssen_signal_update", "calls")
    embeds = f("fastops.circulant_embed_filter", "calls")
    metrics = {
        "pipeline.parallel_efficiency":
            f("solver.acs_run", "busy_s") / (2 * statistics.median(multi)),
        "pipeline.self_s": layers["pipeline"]["self_s"],
        "pipeline.frames_solved": single_outcome.frames_solved if single_outcome else 0,
        "pipeline.frames_passthrough":
            single_outcome.frames_passthrough if single_outcome else 0,
        "pipeline.frame_ms.p50": statistics.median(solved_ms) if solved_ms else 0.0,
        "pipeline.frame_ms.n": len(solved_ms),
        "framing.segment.busy_s": f("framing.segment", "busy_s"),
        "framing.overlap_add.busy_s": f("framing.overlap_add", "busy_s"),
        "metrics.busy_s": layers["metrics"]["busy_s"],
        "solver.inner_iters": counts.get("solver.douglas_rachford.iters", 0),
        "solver.update_coefficients.us_per_iter": _per_call(
            f("solver.update_coefficients", "busy_s"),
            counts.get("solver.update_coefficients.iters", 0), 1e6),
        "solver.update_signal.us_per_iter": _per_call(
            f("solver.update_signal", "busy_s"),
            counts.get("solver.update_signal.iters", 0), 1e6),
        "solver.douglas_rachford.self_us_per_iter": _per_call(
            f("solver.douglas_rachford", "self_s"),
            counts.get("solver.douglas_rachford.iters", 0), 1e6),
        "solver.janssen_signal_update.ms_per_call": _per_call(
            f("solver.janssen_signal_update", "busy_s"), janssen_calls, 1e3),
        "solver.janssen_signal_update.missing_mean": _per_call(
            counts.get("solver.janssen_signal_update.missing", 0), janssen_calls, 1.0),
        "solver.acs_run.self_s": f("solver.acs_run", "self_s"),
        "armodel.objective.busy_s": f("armodel.objective", "busy_s"),
        "armodel.levinson_durbin.ms_per_call": _per_call(
            f("armodel.levinson_durbin", "busy_s"),
            f("armodel.levinson_durbin", "calls"), 1e3),
        "fastops.quadratic_prox.us_per_call": _per_call(
            f("fastops.quadratic_prox", "busy_s"),
            f("fastops.quadratic_prox", "calls"), 1e6),
        "fastops.embed_len": _per_call(
            counts.get("fastops.circulant_embed_filter.L", 0), embeds, 1.0),
        "fastops.prox_regularizer_extended.us_per_call": _per_call(
            f("fastops.prox_regularizer_extended", "busy_s"),
            f("fastops.prox_regularizer_extended", "calls"), 1e6),
        "prox.prox_signal_penalty.us_per_call": _per_call(
            f("prox.prox_signal_penalty", "busy_s"),
            f("prox.prox_signal_penalty", "calls"), 1e6),
        "prox.soft_threshold.us_per_call": _per_call(
            f("prox.soft_threshold", "busy_s"), f("prox.soft_threshold", "calls"), 1e6),
        "audio_io.read_wav.busy_s": f("audio_io.read_wav", "busy_s"),
        "audio_io.write_wav.busy_s": f("audio_io.write_wav", "busy_s"),
        "cli.self_s": layers["cli"]["self_s"],
        "trace.overhead_frac": traced / single - 1.0,
    }
    for layer, v in layers.items():
        metrics[f"{layer}.busy_s"] = v["busy_s"]
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = f(name, "calls")
        metrics[f"{name}.busy_s"] = f(name, "busy_s")
    return {"metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors,
            "detail": {"multi_walls_s": multi, "single_wall_s": single,
                       "traced_wall_s": traced, "trace_file": str(trace_path),
                       "functions": fn, "layers": layers, "counts": counts}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    a = ap.parse_args(argv)
    workload = wl.WORKLOADS[a.workload]
    workdir = Path(a.workdir)
    inputs = workload.build(a.seed, a.tiny, workdir / "seeded")
    if a.trace:
        result = run_traced(workload, inputs, a.seconds, workdir / "spans.npz")
    else:
        quality = workload.build(QUALITY_SEED, a.tiny, workdir / "quality")
        result = run_untraced(workload, inputs, quality, a.seconds)
    result["machine"] = machine_facts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
