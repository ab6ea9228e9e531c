"""care-filter benchmark: study throughput with a traced per-layer split.

    python3 bench/run.py --workload mc_seq --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: it times `--seconds` of
repeated study calls with no hooks installed, reports the median
throughput, times the set-up in fresh interpreters, and checks every
output. --trace 1 runs a fixed number of calls twice each, untraced and
with per-layer hooks, requires both to return bit-identical outputs, and
reports the per-layer metrics. The last line of standard output is the
result as one JSON object; the line before it records the environment.
`--workload all` runs every workload in its own process and prints a
table. See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import tracing
    import workloads
except ImportError as err:
    # e.g. a directory holding the benchmark but not the package source
    sys.exit(f"benchmark cannot run: {err}")

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 11
# a typical duration of reference_seconds() on the 2-core machine the
# benchmark was defined on; set-up time is reported at this speed
REF_NOMINAL_S = 0.06
MIN_CALLS = 3
PROBE_TIMEOUT_S = 30
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment():
    """Interpreter, library and machine facts that bear on the numbers."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "care_filter": workloads.care_filter.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_before": list(os.getloadavg()),
    }


def time_setup(workload, seed):
    """Wall time from spawning a fresh interpreter to its "ready" line."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload.name, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


@dataclass(frozen=True, slots=True)
class _Record:
    x: np.ndarray
    P: np.ndarray
    k: int


def reference_seconds(repeats=2000):
    """Wall time of a fixed kernel shaped like a filter step.

    Small matrix products, a symmetric eigendecomposition, elementwise
    updates and a frozen record per step in a Python loop: the same mix of
    interpreter work and numpy dispatch the studies spend their time in.
    It never touches care_filter, so a change to the package cannot move
    it; only the machine's speed can.
    """
    A = np.array([[1.0, 0.0, 0.0, 0.01], [0.0, 1.0, 0.1, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    Q = np.diag([0.1, 0.1, 1e-3, 1e-4])
    rec = _Record(np.ones(4), np.eye(4), 0)
    t0 = time.perf_counter()
    for k in range(repeats):
        P = A @ rec.P @ A.T + Q
        P = 0.5 * (P + P.T)
        w, V = np.linalg.eigh(P)
        x = A @ rec.x - 1e-3 * ((V / w) @ V.T @ rec.x)
        rec = _Record(x, P, k)
        float(np.abs(x).max())
    return time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Realizations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, workload, index, config, tracer=None):
        """Run call `index`, check its output; (output or None, seconds)."""
        fn = workloads.run_call
        if tracer is not None:
            root = ("harness.monte_carlo" if workload.study == "monte_carlo"
                    else "ensemble.run_ensemble")
            fn = tracer.wrap(root, fn)
        self.attempted += workload.runs
        t0 = time.perf_counter()
        try:
            out = fn(workload, config)
        except Exception as err:  # one failed call must not hide the rest
            self.failed += workload.runs
            self.problems.append(f"call {index}: {type(err).__name__}: {err}")
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        failed, problems = workloads.check_output(workload, out)
        self.failed += failed
        self.problems += [f"call {index}: {p}" for p in problems]
        return out, elapsed

    def cross_path(self, workload, seed):
        try:
            self.problems += workloads.cross_path_check(workload, seed)
        except Exception as err:
            self.problems.append(f"cross-path check: {type(err).__name__}: {err}")


def untraced_run(workload, seed, seconds):
    """End-to-end metrics from `seconds` of repeated study calls.

    Each call is bracketed by two runs of the reference kernel.
    `steps_per_ref` is the filter-steps done in the time the kernel takes:
    total steps over total call time, times the mean kernel time. Totals
    and means weight every phase of the machine by the time spent in it,
    so a phase in which the whole machine runs slower cancels out (see
    README.md). `setup_s` is the median set-up time scaled by
    REF_NOMINAL_S / mean kernel time. The raw medians are printed too.
    """
    workloads.setup(workload, seed)
    tally = Tally()
    rates = []
    refs = []
    setups = []
    busy = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_CALLS or time.perf_counter() < deadline:
        refs.append(reference_seconds())
        out, elapsed = tally.call(workload, index, workloads.scenario(workload, seed, index))
        refs.append(reference_seconds())
        if out is not None:
            rates.append(workload.steps_per_call / elapsed)
            busy += elapsed
        index += 1
        # set-up probes run between timed calls, so that both sample the
        # machine over the whole run rather than one stretch of it
        if len(setups) < SETUP_PROBES:
            setups.append(time_setup(workload, seed))
    rss = peak_rss_mb()
    while len(setups) < SETUP_PROBES:
        setups.append(time_setup(workload, seed))
    tally.cross_path(workload, seed)
    steps_per_s = statistics.median(rates) if rates else None
    ref_s = statistics.fmean(refs)
    metrics = {
        # no successful call did any filter-steps; correct is false then
        "steps_per_ref": {"value": len(rates) * workload.steps_per_call * ref_s / busy
                          if rates else 0.0, "unit": "1/ref"},
        "setup_s": {"value": statistics.median(setups) * REF_NOMINAL_S / ref_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    detail = {"calls": index, "steps_per_s": steps_per_s, "ref_s": ref_s,
              "setup_s_raw": statistics.median(setups),
              "steps_per_s_samples": rates, "ref_s_samples": refs,
              "setup_s_samples": setups}
    return tally, metrics, detail


def trace_calls(workload, seconds):
    """Fixed call count of a traced run, so that its counts repeat exactly.

    Each call runs twice (untraced, then traced); nominal_call_s is the
    call's duration when the workload was defined.
    """
    return max(1, round(seconds / (2.0 * workload.nominal_call_s)))


def traced_run(workload, seed, seconds, hooks=tracing.HOOKS):
    """Per-layer metrics from hooked calls, each paired with an untraced
    call on the same inputs that must return bit-identical outputs."""
    workloads.setup(workload, seed)
    tracer = tracing.Tracer(hooks)
    tally = Tally()
    walls = [0.0, 0.0]
    fallbacks_reported = 0
    calls = trace_calls(workload, seconds)
    for index in range(calls):
        config = workloads.scenario(workload, seed, index)
        plain, elapsed = tally.call(workload, index, config)
        walls[0] += elapsed
        with tracer.installed():
            hooked, elapsed = tally.call(workload, index, config, tracer)
        walls[1] += elapsed
        if plain is None or hooked is None:
            continue
        if workloads.digest(workload, plain) != workloads.digest(workload, hooked):
            tally.problems.append(f"call {index}: traced output differs from untraced")
        if workload.study == "run_ensemble":
            fallbacks_reported += hooked.fallback_projections
    tally.cross_path(workload, seed)
    metrics, unmeasured = tracing.layer_metrics(
        tracer, calls * workload.projections_per_call, walls[1], walls[0])
    fb = metrics["projection.fallback.calls"]["value"]
    if (workload.study == "run_ensemble" and "projection.fallback.calls" not in unmeasured
            and fb != fallbacks_reported):
        tally.problems.append(f"traced fallbacks {fb} != fallback_projections "
                              f"{fallbacks_reported}")
    detail = {"calls": calls, "untraced_wall_s": walls[0], "traced_wall_s": walls[1],
              "fallback_projections": fallbacks_reported, "unmeasured": unmeasured}
    return tally, metrics, detail


def _fmt(entry, reason=None):
    value = entry["value"]
    if value is None:
        return "null"
    text = f"{value:.6g} {entry['unit']}"
    return f"{text} (unmeasured: {reason})" if reason else text


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    if args.trace:
        tally, metrics, detail = traced_run(workload, args.seed, args.seconds)
    else:
        tally, metrics, detail = untraced_run(workload, args.seed, args.seconds)
    env["loadavg_after"] = list(os.getloadavg())

    failed_frac = tally.failed / tally.attempted
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"calls {detail['calls']}  realizations {tally.attempted}")
    unmeasured = detail.get("unmeasured", {})
    for name, entry in metrics.items():
        print(f"  {name:38s} {_fmt(entry, unmeasured.get(name))}")
    for name, unit in (("steps_per_s", "1/s"), ("setup_s_raw", "s"), ("ref_s", "s")):
        if name in detail:
            print(f"  {name:38s} {_fmt({'value': detail[name], 'unit': unit})}")
    print(f"  {'failed_frac':38s} {failed_frac:.6g} ratio "
          f"({tally.failed}/{tally.attempted} realizations)")
    for problem in tally.problems[:20]:
        print(f"  PROBLEM {problem}")
    print(json.dumps({"env": env, "detail": detail}))
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own interpreter, then one table."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        detail = json.loads(lines[-2])["detail"]
        for key, unit in (("steps_per_s", "1/s"), ("setup_s_raw", "s")):
            if detail.get(key) is not None:
                result["metrics"][key] = {"value": detail[key], "unit": unit}
        results[name] = result
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"\n{'metric':40s}" + "".join(f"{w:>22s}" for w in results))
    for metric in names:
        cells = []
        for r in results.values():
            e = r["metrics"].get(metric, {"value": None})
            cells.append("null" if e["value"] is None else f"{e['value']:.6g} {e['unit']}")
        print(f"{metric:40s}" + "".join(f"{c:>22s}" for c in cells))
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
