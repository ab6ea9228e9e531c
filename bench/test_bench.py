"""Tests of the benchmark itself: python3 -m pytest bench

They use shrunken workloads so the whole file runs in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from workloads import Workload

MC = Workload(name="mc_small", study="monte_carlo", runs=2, horizon=150)
ENS = Workload(name="ens_small", study="run_ensemble", runs=6, horizon=300,
               projection_audit=True)


def tracing_unit(name):
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return next(m["unit"] for m in spec["per_layer"] if m["name"] == name)


def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", [MC, ENS], ids=lambda w: w.name)
def test_traced_run_is_clean_and_counts_repeat(workload):
    first = run.traced_run(workload, seed=3, seconds=2)
    second = run.traced_run(workload, seed=3, seconds=2)
    for tally, metrics, _ in (first, second):
        # includes the bit-identical traced/untraced comparison and, on the
        # ensemble, fallback calls == EnsembleResult.fallback_projections
        assert tally.problems == []
        assert tally.failed == 0
        assert set(metrics) == set(EXPECTED_LAYER_METRICS)
    assert _counts(first[1]) == _counts(second[1])
    if workload.study == "run_ensemble":
        assert first[1]["projection.fallback.calls"]["value"] == first[2]["fallback_projections"]
        assert first[1]["ensemble.box_project.calls"]["value"] == 2 * workload.horizon
    else:
        assert first[1]["estimator.care_step.calls"]["value"] == 2 * workload.runs * workload.horizon


def test_traced_and_untraced_outputs_are_bit_identical():
    config = workloads.scenario(ENS, 5, 0)
    plain = workloads.run_call(ENS, config)
    tracer = tracing.Tracer()
    with tracer.installed():
        hooked = tracer.wrap("ensemble.run_ensemble", workloads.run_call)(ENS, config)
    assert workloads.digest(ENS, plain) == workloads.digest(ENS, hooked)
    assert tracer.stats["ensemble.box_project"].calls > 0
    # the digest sees the outputs: other inputs give another digest
    other = workloads.run_call(ENS, workloads.scenario(ENS, 5, 1))
    assert workloads.digest(ENS, other) != workloads.digest(ENS, plain)


def test_wrappers_are_removed_after_the_traced_run():
    originals = {h.name: tracing._resolve(h.target)[2] for h in tracing.HOOKS}
    run.traced_run(MC, seed=1, seconds=2)
    for hook in tracing.HOOKS:
        assert tracing._resolve(hook.target)[2] is originals[hook.name], hook.name


def test_wrappers_are_removed_when_a_call_raises():
    originals = {h.name: tracing._resolve(h.target)[2] for h in tracing.HOOKS}
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            raise ValueError("boom")
    for hook in tracing.HOOKS:
        assert tracing._resolve(hook.target)[2] is originals[hook.name]


def test_missing_hook_target_reports_zero_with_reason():
    hooks = [replace(h, target="care_filter.ensemble:_box_project_gone")
             if h.name == "ensemble.box_project" else h for h in tracing.HOOKS]
    tally, metrics, detail = run.traced_run(ENS, seed=2, seconds=2, hooks=hooks)
    assert tally.problems == []
    for name in ("ensemble.box_project.calls", "ensemble.box_project.self_s"):
        assert metrics[name] == {"value": 0, "unit": tracing_unit(name)}
        assert "_box_project_gone" in detail["unmeasured"][name]
    # the other layers are still measured
    assert metrics["projection.fallback.calls"]["value"] is not None
    assert metrics["model.noise_sample.calls"]["value"] == ENS.runs
    # and the untraced path never sees hooks
    small = replace(workloads.WORKLOADS["ens_attack"], runs=2, horizon=300)
    tally, end_to_end, _ = run.untraced_run(small, seed=2, seconds=0.1)
    assert tally.problems == [] and end_to_end["steps_per_ref"]["value"] > 0


def test_layer_not_exercised_reads_zero_and_is_listed():
    _, metrics, detail = run.traced_run(MC, seed=4, seconds=2)
    assert metrics["ensemble.box_project.calls"]["value"] == 0
    assert metrics["ensemble.box_project.self_s"]["value"] == 0
    assert detail["unmeasured"]["ensemble.box_project.self_s"] == "not called on this workload"
    assert metrics["estimator.care_step.us_p99"]["value"] > 0
    assert "estimator.care_step.us_p99" not in detail["unmeasured"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_holds_every_manifest_metric_as_a_number(trace):
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_seq",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry.keys() == {"value", "unit"} and entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)


def test_checks_count_failed_realizations():
    out = workloads.run_call(ENS, workloads.scenario(ENS, 6, 0))
    assert workloads.check_output(ENS, out) == (0, [])
    out.err_sq[1, 5] = np.nan
    failed, problems = workloads.check_output(ENS, out)
    assert failed == 1 and "run 1" in problems[0]
    bad = replace(out, max_mcg_dev=1e-3)
    assert workloads.check_output(ENS, bad)[0] == ENS.runs
    sims = workloads.run_call(MC, workloads.scenario(MC, 6, 0))
    sims[1].filters["care"].x_hat[3, 0] = np.inf
    failed, problems = workloads.check_output(MC, sims)
    assert failed == 1 and problems[0].startswith("run 1: care")


def test_cross_path_check_passes():
    assert workloads.cross_path_check(replace(ENS, horizon=200), seed=8) == []


def test_same_seed_gives_same_inputs():
    assert workloads.scenario(ENS, 9, 4) == workloads.scenario(ENS, 9, 4)
    assert workloads.scenario(ENS, 9, 4).seed != workloads.scenario(ENS, 10, 4).seed


def test_cli_refuses_to_run_without_the_package(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_seq",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_workloads_and_metrics():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == EXPECTED_LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"steps_per_ref", "setup_s", "peak_rss_mb"}


EXPECTED_LAYER_METRICS = [
    "estimator.care_step.calls",
    "estimator.care_step.us_p50",
    "estimator.care_step.us_p99",
    "estimator.care_step.self_s",
    "estimator.predict.self_s",
    "estimator.estimate_attack.self_s",
    "estimator.time_update.self_s",
    "estimator.measurement_update.self_s",
    "projection.project_attack.calls",
    "projection.project_attack.self_s",
    "projection.attack_active",
    "projection.project_state.calls",
    "projection.project_state.self_s",
    "projection.state_active",
    "projection.active_share",
    "ensemble.box_project.calls",
    "ensemble.box_project.self_s",
    "projection.fallback.calls",
    "projection.fallback.s",
    "projection.fallback.attack_calls",
    "projection.fallback.state_calls",
    "projection.fallback_per_1k",
    "model.noise_sample.calls",
    "model.noise_sample.s",
    "model.noise_sample.us_per_step",
    "detector.detection_statistic.calls",
    "detector.detection_statistic.s",
    "detector.cusum_update.s",
    "detector.chi2_quantile.s",
    "vehicle.bicycle_matrices.calls",
    "vehicle.bicycle_matrices.s",
    "harness.simulate.s_p50",
    "harness.self_s",
    "ensemble.run_ensemble.s",
    "ensemble.algebra_s",
    "ensemble.audit_s",
    "trace.overhead_frac",
]
