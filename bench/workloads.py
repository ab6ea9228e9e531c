"""The benchmark's workloads: inputs from a seed, one study call, output checks.

A workload is a fixed-size study call (`monte_carlo` or `run_ensemble`)
that the benchmark repeats with fresh inputs. Call i of a run with seed s
uses `ScenarioConfig(seed=call_seed(s, i))`, so a seed fixes the inputs of
every call; how many calls fit in a run depends only on the clock.

Every realization a call produces is checked against invariants that hold
for any seed (finite outputs, M C G = I, bounded covariances, a clean
projection audit). A realization that fails a check, or belongs to a call
that raised, counts as failed. The statistical acceptance criteria stay
with the test suite.
"""

import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# the benchmark measures the package source in the same checkout, never an
# installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "care_filter" / "__init__.py").is_file():
    raise ImportError(f"care_filter source not found under {SRC}")
sys.path.insert(0, str(SRC))

import care_filter  # noqa: E402

if Path(care_filter.__file__).resolve().parent != (SRC / "care_filter").resolve():
    raise ImportError(f"care_filter imported from {care_filter.__file__}, not {SRC}")

MCG_TOL = 1e-8
COV_TRACE_LIMIT = 1e6
CROSS_PATH_TOL = 1e-9
CROSS_PATH_RUNS = 3
CROSS_PATH_HORIZON = 1000

# the audit counters criterion 2 of the acceptance gate requires to be zero;
# the viol_*_euclid counters are not among them, because the oblique
# projection is not a contraction in the Euclidean norm
AUDIT_ZERO_KEYS = (
    "truth_infeasible_steps",
    "viol_x_weighted", "viol_d_weighted",
    "viol_trace_x", "viol_trace_d",
    "viol_strict_x", "viol_strict_d",
)


@dataclass(frozen=True)
class Workload:
    """One study shape. `runs` realizations over `horizon` steps per call."""

    name: str
    study: str              # "monte_carlo" or "run_ensemble"
    runs: int
    horizon: int
    projection_audit: bool = False
    nominal_call_s: float = 1.0   # sizes the fixed traced run, see run.py

    @property
    def steps_per_call(self):
        """Filter-steps per call: one filter advancing one realization one step."""
        filters = 2 if self.study == "monte_carlo" else 1
        return self.runs * self.horizon * filters

    @property
    def projections_per_call(self):
        """Box projections the ensemble attempts per call (attack + state)."""
        return 2 * self.runs * self.horizon if self.study == "run_ensemble" else 0


# why each workload exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mc_seq", study="monte_carlo", runs=4, horizon=1000,
            nominal_call_s=1.8,
        ),
        Workload(
            name="ens_long", study="run_ensemble", runs=24, horizon=3000,
            nominal_call_s=2.6,
        ),
        Workload(
            name="ens_attack", study="run_ensemble", runs=50, horizon=1000,
            projection_audit=True, nominal_call_s=1.6,
        ),
    )
}


def call_seed(seed, index):
    """Scenario seed of call `index` in a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def scenario(workload, seed, index):
    return care_filter.ScenarioConfig(seed=call_seed(seed, index),
                                      horizon=workload.horizon,
                                      runs=workload.runs)


def run_call(workload, config):
    """One study call through the package's public entry points, resolved
    at call time so a traced run sees the hooks in place."""
    if workload.study == "monte_carlo":
        return care_filter.monte_carlo(config, runs=workload.runs)
    return care_filter.run_ensemble(config, runs=workload.runs, constrained=True,
                                    projection_audit=workload.projection_audit)


def setup(workload, seed):
    """Everything a run needs before its first timed call: config, detector
    quantile, inputs and a one-step warm-up of the study."""
    config = scenario(workload, seed, 0)
    care_filter.DetectorConfig.from_parameters(config.alpha, df=2, phi=config.phi)
    run_call(workload, replace(config, horizon=1))


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def _check_realization(sim):
    """Problems with one SimulationResult, as a list of strings."""
    problems = []
    if not _finite(sim.x_true):
        problems.append("x_true not finite")
    for name, fr in sim.filters.items():
        if not _finite(fr.x_hat, fr.x_hat_raw, fr.d_hat, fr.d_hat_raw,
                       fr.trace_px, fr.trace_px_raw, fr.trace_pd, fr.trace_pd_raw,
                       fr.stats, fr.cusum):
            problems.append(f"{name}: estimates not finite")
        m = fr.metrics
        if not _finite(m.sum_sq_state_err, m.sum_sq_attack_err, m.sum_trace_px,
                       m.sum_trace_pd, m.f_neg, m.alarm_fraction, m.max_trace_pxu):
            problems.append(f"{name}: metrics not finite")
        if not m.max_mcg_dev <= MCG_TOL:
            problems.append(f"{name}: max |MCG - I| = {m.max_mcg_dev:.3e}")
    return problems


def _check_batch(workload, ens):
    """Problems that fail the whole ensemble batch."""
    problems = []
    if ens.runs != workload.runs or ens.err_sq.shape != (workload.runs, workload.horizon):
        problems.append("ensemble result has the wrong shape")
    if not ens.max_mcg_dev <= MCG_TOL:
        problems.append(f"max |MCG - I| = {ens.max_mcg_dev:.3e}")
    if not ens.max_cov_trace < COV_TRACE_LIMIT:
        problems.append(f"max covariance trace {ens.max_cov_trace:.3e}")
    if not _finite(ens.max_trace_pxu):
        problems.append("max_trace_pxu not finite")
    if workload.projection_audit:
        audit = ens.audit or {}
        for key in AUDIT_ZERO_KEYS:
            if audit.get(key) != 0:
                problems.append(f"audit {key} = {audit.get(key)}")
        for key in ("active_x", "active_d"):
            if not audit.get(key, 0) > 0:
                problems.append(f"audit {key} = {audit.get(key)}")
    return problems


def check_output(workload, out):
    """(failed realizations, problem strings) for one call's output."""
    if workload.study == "monte_carlo":
        if len(out) != workload.runs:
            return workload.runs, [f"{len(out)} realizations, expected {workload.runs}"]
        problems = []
        failed = 0
        for i, sim in enumerate(out):
            bad = _check_realization(sim)
            failed += bool(bad)
            problems += [f"run {i}: {p}" for p in bad]
        return failed, problems
    problems = _check_batch(workload, out)
    if problems:
        return workload.runs, problems
    bad_runs = np.flatnonzero(~np.isfinite(out.err_sq).all(axis=1))
    return int(bad_runs.size), [f"run {int(i)}: err_sq not finite" for i in bad_runs]


def digest(workload, out):
    """Hash of everything a study call returned, to compare runs bit for bit."""
    h = hashlib.sha256()

    def add(value):
        h.update(np.ascontiguousarray(np.asarray(value)).tobytes())

    if workload.study == "monte_carlo":
        for sim in out:
            add(sim.x_true)
            add(sim.d_true)
            for name in sorted(sim.filters):
                fr = sim.filters[name]
                for field in ("x_hat", "x_hat_raw", "d_hat", "d_hat_raw", "trace_px",
                              "trace_px_raw", "trace_pd", "trace_pd_raw", "stats",
                              "cusum", "alarms", "input_active", "state_active"):
                    add(getattr(fr, field))
                add(np.array(fr.metrics.as_row()
                             + [fr.metrics.max_mcg_dev, fr.metrics.max_trace_pxu]))
    else:
        add(out.err_sq)
        add(np.array([out.max_trace_pxu, out.max_cov_trace, out.max_mcg_dev,
                      out.fallback_projections]))
        if out.audit is not None:
            h.update(repr(sorted(out.audit.items())).encode())
    return h.hexdigest()


def cross_path_check(workload, seed):
    """Problems found comparing `simulate` with `run_ensemble(record_states=True)`.

    A few realizations of the sequential constrained filter must match the
    batched one on the same seeds: estimates and truth to CROSS_PATH_TOL.
    """
    config = replace(scenario(workload, seed, 0),
                     horizon=min(workload.horizon, CROSS_PATH_HORIZON))
    ens = care_filter.run_ensemble(config, runs=CROSS_PATH_RUNS, record_states=True,
                                   projection_audit=workload.projection_audit)
    problems = []
    for i in range(CROSS_PATH_RUNS):
        seq = care_filter.simulate(config, run_index=i, filters=("care",), detector=False)
        fr = seq.filters["care"]
        for name, a, b in (("x_hat", ens.x_hat[i], fr.x_hat),
                           ("d_hat", ens.d_hat[i], fr.d_hat),
                           ("x_true", ens.x_true[i], seq.x_true)):
            gap = float(np.abs(a - b).max())
            if not gap <= CROSS_PATH_TOL:
                problems.append(f"cross-path run {i}: {name} differs by {gap:.3e}")
    return problems
