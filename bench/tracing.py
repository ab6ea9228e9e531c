"""Per-layer tracing from outside the package.

Each hook wraps one module-level name of `care_filter` that the package
resolves at call time (a function global, or a method looked up on its
class), so replacing the attribute intercepts every call without touching
the package's source. A wrapper records a span per call: its duration,
and through a stack of open spans the part of it covered by child spans,
which gives self time. Spans stay in memory as per-hook aggregates.

Hooks whose target is missing are reported, not fatal: every metric that
needs them reads 0 and is listed with the reason among the unmeasured
metrics, and the other hooks still run. A layer the workload never calls
is listed the same way. `Tracer.installed` always restores the original
attributes.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    """`target` is "module:attr" or "module:Class.attr"."""

    name: str
    target: str
    keep_durations: bool = False


HOOKS = (
    Hook("harness.simulate", "care_filter.harness:simulate", keep_durations=True),
    Hook("estimator.care_step", "care_filter.harness:care_step", keep_durations=True),
    Hook("estimator.predict", "care_filter.estimator:predict"),
    Hook("estimator.estimate_attack", "care_filter.estimator:estimate_attack"),
    Hook("estimator.time_update", "care_filter.estimator:time_update"),
    Hook("estimator.measurement_update", "care_filter.estimator:measurement_update"),
    Hook("projection.project_attack", "care_filter.estimator:project_attack"),
    Hook("projection.project_state", "care_filter.estimator:project_state"),
    Hook("ensemble.box_project", "care_filter.ensemble:_box_project"),
    Hook("projection.fallback", "care_filter.ensemble:_project_core"),
    Hook("ensemble.audit", "care_filter.ensemble:_audit_update"),
    Hook("model.noise_sample", "care_filter.model:NoiseSpec.sample"),
    Hook("detector.detection_statistic", "care_filter.harness:detection_statistic"),
    Hook("detector.cusum_update", "care_filter.harness:cusum_update"),
    Hook("detector.chi2_quantile", "care_filter.detector:chi2_quantile"),
    Hook("vehicle.bicycle_matrices", "care_filter.harness:bicycle_matrices"),
)

# the benchmark's own calls into the package, recorded as root spans
ROOT_SPANS = ("harness.monte_carlo", "ensemble.run_ensemble")


class Stat:
    """Aggregated spans of one hook."""

    def __init__(self, keep_durations=False):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None
        self.active = 0          # projections returning a non-empty active set
        self.dims = {}           # fallbacks by estimate dimension
        self.items = 0           # horizon steps sampled


def _observe(name, stat, args, kwargs, out):
    """Counts taken from a hooked call's arguments or result."""
    if name in ("projection.project_attack", "projection.project_state"):
        if out[2].active_set:
            stat.active += 1
    elif name == "projection.fallback":
        n = int(np.asarray(args[0]).size)
        stat.dims[n] = stat.dims.get(n, 0) + 1
    elif name == "model.noise_sample":
        horizon = kwargs["horizon"] if "horizon" in kwargs else args[-1]
        stat.items += int(horizon)


def _resolve(target):
    """(owner object, attribute name, current value) for a hook target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span aggregates of one traced run, per hook and per root span."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.stats = {h.name: Stat(h.keep_durations) for h in self.hooks}
        for name in ROOT_SPANS:
            self.stats[name] = Stat()
        self.missing = {}        # hook name -> reason
        self._stack = []

    def wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if stat.durations is not None:
                    stat.durations.append(dt)
            _observe(name, stat, args, kwargs, out)
            return out

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        """Install every resolvable hook; restore the originals on exit."""
        undo = []
        try:
            for hook in self.hooks:
                try:
                    owner, attr, original = _resolve(hook.target)
                except (ImportError, AttributeError) as err:
                    self.missing[hook.name] = f"hook target {hook.target} not found ({err})"
                    continue
                if not callable(original):
                    self.missing[hook.name] = f"hook target {hook.target} is not callable"
                    continue
                setattr(owner, attr, self.wrap(hook.name, original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _value(value, unit):
    return {"value": value, "unit": unit}


def _unmeasured(unit, reason):
    # the result line holds a number for every metric; the reason is split
    # off by layer_metrics
    return {"value": 0, "unit": unit, "reason": reason}


def layer_metrics(tracer, projections_attempted, traced_wall, untraced_wall):
    """(metrics, unmeasured): every per-layer metric of the traced run,
    keyed by its name, and the reason for each one that reads 0 because its
    hook is missing or its layer was not called.

    `projections_attempted` is the number of box projections the ensemble
    attempted during the traced calls; the walls are the summed durations
    of the same calls with and without hooks.
    """
    st = tracer.stats
    out = {}

    def hook_stat(name):
        """(Stat, None) or (None, reason) for a hooked layer."""
        if name in tracer.missing:
            return None, tracer.missing[name]
        return st[name], None

    def count(metric, name, attr="calls"):
        s, why = hook_stat(name)
        out[metric] = _unmeasured("count", why) if s is None else _value(getattr(s, attr), "count")

    def timed(metric, name, unit, fn):
        """A metric defined only when the layer was called at least once."""
        s, why = hook_stat(name)
        if s is None:
            out[metric] = _unmeasured(unit, why)
        elif s.calls == 0:
            out[metric] = _unmeasured(unit, "not called on this workload")
        else:
            out[metric] = _value(fn(s), unit)

    def pct(q):
        return lambda s: float(np.percentile(s.durations, q)) * 1e6

    count("estimator.care_step.calls", "estimator.care_step")
    timed("estimator.care_step.us_p50", "estimator.care_step", "us", pct(50))
    timed("estimator.care_step.us_p99", "estimator.care_step", "us", pct(99))
    timed("estimator.care_step.self_s", "estimator.care_step", "s", lambda s: s.self_time)
    for stage in ("predict", "estimate_attack", "time_update", "measurement_update"):
        timed(f"estimator.{stage}.self_s", f"estimator.{stage}", "s", lambda s: s.self_time)

    for which in ("attack", "state"):
        name = f"projection.project_{which}"
        count(f"{name}.calls", name)
        timed(f"{name}.self_s", name, "s", lambda s: s.self_time)
        count(f"projection.{which}_active", name, "active")
    sa, why_a = hook_stat("projection.project_attack")
    ss, why_s = hook_stat("projection.project_state")
    if sa is None or ss is None:
        out["projection.active_share"] = _unmeasured("ratio", why_a or why_s)
    elif sa.calls + ss.calls == 0:
        out["projection.active_share"] = _unmeasured("ratio", "not called on this workload")
    else:
        out["projection.active_share"] = _value(
            (sa.active + ss.active) / (sa.calls + ss.calls), "ratio")

    count("ensemble.box_project.calls", "ensemble.box_project")
    timed("ensemble.box_project.self_s", "ensemble.box_project", "s", lambda s: s.self_time)
    count("projection.fallback.calls", "projection.fallback")
    timed("projection.fallback.s", "projection.fallback", "s", lambda s: s.total)
    sf, why = hook_stat("projection.fallback")
    for which, dim in (("attack", 2), ("state", 4)):
        out[f"projection.fallback.{which}_calls"] = (
            _unmeasured("count", why) if sf is None else _value(sf.dims.get(dim, 0), "count"))
    if sf is None:
        out["projection.fallback_per_1k"] = _unmeasured("per_1k", why)
    elif projections_attempted == 0:
        out["projection.fallback_per_1k"] = _unmeasured("per_1k", "no ensemble projections on this workload")
    else:
        out["projection.fallback_per_1k"] = _value(
            1000.0 * sf.calls / projections_attempted, "per_1k")

    count("model.noise_sample.calls", "model.noise_sample")
    timed("model.noise_sample.s", "model.noise_sample", "s", lambda s: s.total)
    timed("model.noise_sample.us_per_step", "model.noise_sample", "us",
          lambda s: 1e6 * s.total / s.items)

    count("detector.detection_statistic.calls", "detector.detection_statistic")
    timed("detector.detection_statistic.s", "detector.detection_statistic", "s",
          lambda s: s.total)
    timed("detector.cusum_update.s", "detector.cusum_update", "s", lambda s: s.total)
    timed("detector.chi2_quantile.s", "detector.chi2_quantile", "s", lambda s: s.total)

    count("vehicle.bicycle_matrices.calls", "vehicle.bicycle_matrices")
    timed("vehicle.bicycle_matrices.s", "vehicle.bicycle_matrices", "s", lambda s: s.total)

    timed("harness.simulate.s_p50", "harness.simulate", "s",
          lambda s: float(np.median(s.durations)))
    timed("harness.self_s", "harness.simulate", "s", lambda s: s.self_time)

    timed("ensemble.run_ensemble.s", "ensemble.run_ensemble", "s", lambda s: s.total)
    timed("ensemble.algebra_s", "ensemble.run_ensemble", "s", lambda s: s.self_time)
    timed("ensemble.audit_s", "ensemble.audit", "s", lambda s: s.total)

    out["trace.overhead_frac"] = _value(traced_wall / untraced_wall - 1.0, "ratio")
    unmeasured = {name: m.pop("reason") for name, m in out.items() if "reason" in m}
    return out, unmeasured
