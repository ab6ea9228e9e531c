import dataclasses
import re
import tracemalloc
from collections import Counter, defaultdict
from functools import partial
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from care_filter import cli, ensemble, harness, projection
from care_filter.cli import main
from care_filter.config import ScenarioConfig
from care_filter.detector import DetectorConfig, DetectorState, cusum_update, detection_statistic
from care_filter.ensemble import _now, _states, run_ensemble
from care_filter.estimator import (
    AttackUnidentifiableError,
    EstimatorState,
    _require_identifiable,
    care_step,
    estimate_attack,
    initial_state,
    measurement_update,
    predict,
    time_update,
)
from care_filter.harness import monte_carlo, simulate
from care_filter.model import NoiseSpec
from care_filter.projection import (
    ActiveSetLimitError,
    InfeasibleConstraintsError,
    _FEAS_REL,
    project_attack,
    project_state,
)
from care_filter.vehicle import (
    VehicleParams,
    attack_input,
    bicycle_matrices,
    build_constraints,
    slip_angle,
    vehicle_constraints,
    vehicle_model,
)

from oracles import (
    audit_reference,
    batch_d,
    batch_d_raw,
    batch_in_act,
    batch_mcg_dev,
    batch_P,
    batch_P_raw,
    batch_Pd,
    batch_Pd_raw,
    batch_st_act,
    batch_x_raw,
    ensemble_reference,
    pinv_care_step,
    step_reference,
    transformed_dynamics,
)

REF_FLOAT_FIELDS = ("x_hat", "x_hat_raw", "d_hat", "d_hat_raw", "trace_px",
                    "trace_px_raw", "trace_pd", "trace_pd_raw", "stats", "cusum")
REF_EXACT_FIELDS = ("input_active", "state_active", "alarms")


def scalar_reference(cfg, run_index, name, step=pinv_care_step, outputs=None):
    """One filter on one realization through the scalar general-LTV path.

    step (the oracle chain `pinv_care_step`, or the package's `care_step`),
    detection_statistic and cusum_update run once per step; the model is
    scheduled on the filter's own previous speed estimate and the plant on
    the true speed. Returns the truth, the per-step records and the running
    maxima of |M C G - I| and (for k > 100) trace P_x raw; each step's
    StepOutput is appended to the list outputs, if given.
    """
    params = VehicleParams(l_f=cfg.l_f, l_r=cfg.l_r, T_s=cfg.t_s)
    K = cfg.horizon
    speeds = [cfg.x0[3]]
    model = vehicle_model(lambda k: speeds[k], params)
    constraints = vehicle_constraints(
        lambda k: (cfg.control_delta, cfg.control_accel), params) if name == "care" else None
    W, V = NoiseSpec(cfg.seed, run_index).sample(model, K)
    u = np.array([slip_angle(cfg.control_delta, params), cfg.control_accel])
    detector_cfg = DetectorConfig.from_parameters(cfg.alpha, df=2, phi=cfg.phi)
    x = np.array(cfg.x0, dtype=float)
    P0 = cfg.p0_scale * np.eye(4)
    state = initial_state(x, P0)
    det = DetectorState()
    rec = {f: [] for f in REF_FLOAT_FIELDS + REF_EXACT_FIELDS}
    rec["x_true"] = [x]
    for f in ("x_hat", "x_hat_raw"):
        rec[f].append(x)
    for f in ("trace_px", "trace_px_raw"):
        rec[f].append(np.trace(P0))
    for f in ("stats", "cusum", "alarms"):
        rec[f].append(0)
    max_mcg = max_pxu = 0.0
    for k in range(1, K + 1):
        A, B, G, _ = bicycle_matrices(x[3], params)
        x = A @ x + B @ u + G @ attack_input(k - 1, params) + W[k - 1]
        x[0] = min(max(x[0], 0.0), params.x_max)
        x[1] = min(max(x[1], 0.0), params.y_max)
        x[3] = min(max(x[3], 0.0), params.v_max)
        out = step(state, model, constraints, u, x + V[k])
        if outputs is not None:
            outputs.append(out)
        state = out.state
        speeds.append(float(state.x_hat[3]))
        stat = detection_statistic(out.d_hat, out.P_d)
        det, alarm = cusum_update(det, stat, detector_cfg)
        for f, v in (("x_true", x), ("x_hat", state.x_hat), ("x_hat_raw", out.update.x_hat),
                     ("d_hat", out.d_hat), ("d_hat_raw", out.attack.d_hat),
                     ("trace_px", np.trace(state.P_x)),
                     ("trace_px_raw", np.trace(out.update.P_x)),
                     ("trace_pd", np.trace(out.P_d)),
                     ("trace_pd_raw", np.trace(out.attack.P_d)),
                     ("stats", stat), ("cusum", det.S), ("alarms", alarm)):
            rec[f].append(v)
        proj = (out.input_projection, out.state_projection)
        rec["input_active"].append(0 if proj[0] is None else len(proj[0].active_set))
        rec["state_active"].append(0 if proj[1] is None else len(proj[1].active_set))
        dev = np.abs(out.attack.M @ model.C(k) @ model.G(k - 1) - np.eye(2)).max()
        max_mcg = max(max_mcg, dev)
        if k > 100:
            max_pxu = max(max_pxu, np.trace(out.update.P_x))
    rec = {f: np.array(v) for f, v in rec.items()}
    rec["max_mcg_dev"] = max_mcg
    rec["max_trace_pxu"] = max_pxu
    return rec


class TestTransformedDynamics:
    def test_vehicle_compensation_is_singular(self):
        # two attack channels feeding four outputs: C G M is rank two at
        # best, so the closed-loop diagnostic is unavailable
        A, _, G, C = bicycle_matrices(10.0)
        M = np.array([[0.2, 0.1, 0.0, 0.3],
                      [0.0, 0.4, 0.5, 0.1]])
        assert transformed_dynamics(A, C, G, M, np.eye(4)) is None

    def test_full_rank_case_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3))
        C = np.eye(3)
        G = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        M = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        gamma = rng.normal(size=(3, 3))
        got = transformed_dynamics(A, C, G, M, gamma)
        CGM = C @ G @ M
        expect = ((np.eye(3) - G @ M @ np.linalg.inv(CGM) @ C)
                  @ (np.eye(3) - G @ M @ C) @ A @ gamma)
        assert got is not None
        np.testing.assert_allclose(got, expect, atol=1e-12)


class TestSimulate:
    def test_repeat_is_bit_identical(self):
        cfg = ScenarioConfig(horizon=120, seed=99)
        a = simulate(cfg)
        b = simulate(cfg)
        for name in ("care", "ise"):
            assert np.array_equal(a.filters[name].x_hat, b.filters[name].x_hat)
            assert np.array_equal(a.filters[name].d_hat, b.filters[name].d_hat)
            assert np.array_equal(a.filters[name].stats, b.filters[name].stats)
        assert np.array_equal(a.x_true, b.x_true)

    def test_run_index_changes_the_realization(self):
        cfg = ScenarioConfig(horizon=60, seed=99)
        a = simulate(cfg, run_index=0)
        b = simulate(cfg, run_index=1)
        assert not np.array_equal(a.x_true, b.x_true)

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_run_index_is_named(self, bad):
        with pytest.raises(ValueError, match="^run_index must be a nonnegative integer"):
            simulate(ScenarioConfig(horizon=10), run_index=bad)

    def test_trace_maximum_skips_exactly_the_first_100_steps(self):
        # the largest trace of P_raw past the transient falls at k = 101 here,
        # so a window moved by one step would change the metric
        fr = simulate(ScenarioConfig(horizon=300, seed=11)).filters["care"]
        assert fr.trace_px_raw[101:].argmax() == 0
        assert fr.metrics.max_trace_pxu == fr.trace_px_raw[101:].max()

    def test_no_attack_keeps_estimates_close(self):
        cfg = ScenarioConfig(horizon=200, seed=5, attack="none")
        res = simulate(cfg)
        assert np.all(res.d_true == 0.0)
        for name in ("care", "ise"):
            fr = res.filters[name]
            per_step = fr.metrics.sum_sq_state_err / cfg.horizon
            assert per_step < 0.05
            assert not fr.metrics.sustained_alarm
            assert np.isnan(fr.metrics.f_neg)
            # attack estimates hover around zero without an attack
            assert np.abs(fr.d_hat.mean(axis=0)).max() < 0.2

    def test_constrained_estimates_respect_the_boxes(self):
        cfg = ScenarioConfig(horizon=400, seed=3)
        res = simulate(cfg)
        care = res.filters["care"]
        ise = res.filters["ise"]
        tol = 1e-8
        assert np.all(np.abs(care.d_hat[:, 0]) <= 1.0472 + tol)
        assert np.all(np.abs(care.d_hat[:, 1]) <= 3.5 + tol)
        assert np.all(care.x_hat[:, 0] >= -tol)
        assert np.all(care.x_hat[:, 0] <= 20.0 + tol)
        assert np.all(care.x_hat[:, 1] >= -tol)
        assert np.all(care.x_hat[:, 1] <= 5.0 + tol)
        assert np.all(care.x_hat[:, 3] >= -tol)
        assert np.all(care.x_hat[:, 3] <= 22.0 + tol)
        # the unconstrained baseline does wander outside
        outside = (np.abs(ise.d_hat[:, 0]) > 1.0472) | (np.abs(ise.d_hat[:, 1]) > 3.5)
        assert outside.any()

    def test_both_filters_see_identical_measurements(self):
        cfg = ScenarioConfig(horizon=80, seed=21, attack="none")
        res = simulate(cfg)
        # without attack or clipping the two filters coincide
        np.testing.assert_allclose(res.filters["care"].x_hat_raw,
                                   res.filters["ise"].x_hat_raw, atol=1e-9)

    def test_metric_windows_match_the_recorded_arrays(self):
        cfg = ScenarioConfig(horizon=300, seed=13)
        res = simulate(cfg)
        fr = res.filters["care"]
        m = fr.metrics
        assert m.sum_sq_state_err == pytest.approx(
            float(np.sum((fr.x_hat[1:] - res.x_true[1:]) ** 2)))
        assert m.sum_sq_attack_err == pytest.approx(
            float(np.sum((fr.d_hat - res.d_true) ** 2)))
        assert m.sum_trace_px == pytest.approx(float(np.sum(fr.trace_px[1:])))
        assert m.sum_trace_pd == pytest.approx(
            float(np.sum(fr.trace_pd[cfg.pd_window_start:])))

    def test_detector_off_skips_the_statistics(self):
        cfg = ScenarioConfig(horizon=60, seed=2)
        res = simulate(cfg, filters=("care",), detector=False)
        fr = res.filters["care"]
        assert np.all(fr.stats == 0.0)
        assert np.isnan(fr.metrics.f_neg)
        assert not fr.metrics.sustained_alarm

    def test_monte_carlo_runs_and_filter_selection(self):
        cfg = ScenarioConfig(horizon=40, seed=8, runs=3)
        results = monte_carlo(cfg, filters=("ise",))
        assert len(results) == 3
        assert "care" not in results[0].filters
        assert "ise" in results[0].filters

    def test_unknown_filter_name_raises(self):
        with pytest.raises(ValueError):
            simulate(ScenarioConfig(horizon=10), filters=("kalman",))

    @pytest.mark.parametrize("study, override, message", [
        (run_ensemble, {"runs": 0}, "runs must be positive"),
        (run_ensemble, {"runs": -2}, "runs must be positive"),
        (monte_carlo, {"runs": 0}, "runs must be positive"),
        (monte_carlo, {"runs": -1}, "runs must be positive"),
        (monte_carlo, {"filters": ()}, "filters must name at least one filter"),
    ])
    def test_empty_batch_is_rejected_by_name(self, study, override, message):
        # the overrides bypass ScenarioConfig's own check of runs
        with pytest.raises(ValueError, match=message):
            study(ScenarioConfig(horizon=10), **override)


class TestScalarReference:
    """monte_carlo and simulate against a test-side loop over the pseudoinverse
    oracle chain, which shares no filter algebra with the kernel."""

    CFG = ScenarioConfig(horizon=300, seed=20260819)
    RUN = 2

    @pytest.fixture(scope="class")
    def reference(self):
        return {name: scalar_reference(self.CFG, self.RUN, name)
                for name in ("care", "ise")}

    @pytest.mark.parametrize("detector", [True, False])
    def test_batch_matches_the_scalar_loop(self, reference, detector):
        # with the detector, run RUN sits in a [care runs | ise runs] batch
        # of three realizations; without it, it is the batch of one
        if detector:
            res = monte_carlo(self.CFG, runs=self.RUN + 1)[self.RUN]
        else:
            res = simulate(self.CFG, run_index=self.RUN, detector=False)
        for name, ref in reference.items():
            fr = res.filters[name]
            np.testing.assert_allclose(res.x_true, ref["x_true"], rtol=0, atol=1e-12)
            for f in REF_FLOAT_FIELDS + REF_EXACT_FIELDS:
                got = getattr(fr, f)
                if f in ("stats", "cusum", "alarms") and not detector:
                    assert not got.any(), f
                elif f in REF_EXACT_FIELDS:
                    np.testing.assert_array_equal(got, ref[f], err_msg=f"{name} {f}")
                else:
                    # stats of a pinned attack estimate reach 1e12 or more
                    np.testing.assert_allclose(got, ref[f], rtol=1e-9, atol=1e-9,
                                               err_msg=f"{name} {f}")
            assert fr.metrics.max_mcg_dev == pytest.approx(ref["max_mcg_dev"], abs=1e-9)
            assert fr.metrics.max_trace_pxu == pytest.approx(ref["max_trace_pxu"], abs=1e-9)
            assert ref["alarms"].any()
        # the compared window holds active projections of both kinds
        care = reference["care"]
        assert care["input_active"].any() and care["state_active"].any()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           x0=st.tuples(st.floats(-5.0, 25.0), st.floats(-2.0, 7.0), st.floats(-3.2, 3.2),
                        st.just(0.0) | st.floats(1.0, 30.0)),
           control_delta=st.floats(-1.2, 1.2), control_accel=st.floats(-3.0, 3.0),
           l_f=st.floats(0.2, 5.0), l_r=st.floats(0.2, 5.0), t_s=st.floats(1e-3, 0.1),
           p0_scale=st.floats(1e-2, 1e3))
    def test_simulate_matches_care_step_over_the_config_domain(self, **fields):
        # the channel-form kernel against a loop of the public care_step on
        # vehicle_model, over a box inside each field's declared domain: the
        # start on or off the road box, at rest (attack unidentifiable from
        # k = 1) or at 1 to 30 m/s, steering past its bound. Both paths reject
        # the same configs with the same error class; otherwise every record
        # agrees within 1e-8 of its scale (about 3e-10 seen over 260 draws),
        # the truth to 1e-12 and the active counts exactly
        cfg = ScenarioConfig(horizon=50, **fields)
        outcomes = []
        for run in (lambda: simulate(cfg, detector=False),
                    lambda: {name: scalar_reference(cfg, 0, name, step=care_step)
                             for name in ("care", "ise")}):
            try:
                outcomes.append(run())
            except (AttackUnidentifiableError, ValueError, RuntimeError) as err:
                outcomes.append(type(err))
        got, ref = outcomes
        if isinstance(got, type) or isinstance(ref, type):
            assert got is ref
            return
        for name, fr in got.filters.items():
            np.testing.assert_allclose(got.x_true, ref[name]["x_true"], rtol=0, atol=1e-12)
            for f in REF_FLOAT_FIELDS[:-2]:
                gap = np.abs(getattr(fr, f) - ref[name][f]).max()
                assert gap <= 1e-8 * (1.0 + np.abs(ref[name][f]).max()), (name, f, gap)
            for f in ("input_active", "state_active"):
                np.testing.assert_array_equal(getattr(fr, f), ref[name][f], err_msg=f"{name} {f}")


class TestEnsemble:
    def test_matches_sequential_runs(self):
        cfg = ScenarioConfig(horizon=260, seed=20260819)
        ens = run_ensemble(cfg, runs=3, record_states=True)
        worst_pxu = 0.0
        for i in range(3):
            seq = simulate(cfg, run_index=i, filters=("care",), detector=False)
            fr = seq.filters["care"]
            np.testing.assert_allclose(ens.x_hat[i], fr.x_hat, atol=1e-9)
            np.testing.assert_allclose(ens.d_hat[i], fr.d_hat, atol=1e-9)
            np.testing.assert_allclose(ens.x_true[i], seq.x_true, atol=1e-12)
            err = np.sum((fr.x_hat[1:] - seq.x_true[1:]) ** 2, axis=1)
            np.testing.assert_allclose(ens.err_sq[i], err, atol=1e-10)
            worst_pxu = max(worst_pxu, fr.metrics.max_trace_pxu)
        assert ens.max_trace_pxu == pytest.approx(worst_pxu, rel=1e-9)
        assert ens.max_mcg_dev < 1e-10

    def test_runs_do_not_depend_on_their_batch(self):
        # rows 0-4 of a 16-run batch are a 5-run batch, bit for bit
        cfg = ScenarioConfig(horizon=300, seed=20260819)
        big = run_ensemble(cfg, runs=16, record_states=True)
        small = run_ensemble(cfg, runs=5, record_states=True)
        for f in ("x_hat", "d_hat", "err_sq"):
            assert np.array_equal(getattr(big, f)[:5], getattr(small, f)), f

    def test_batches_keep_their_own_buffers(self):
        # batches stepped in turn, care + ise on 3 runs, care on 5 and ise on 5 (the care
        # batch's shape) at three seeds, each give the fin_raw, truth, mask and dev of the
        # batch stepped alone, bit for bit, after every round; and no array a batch reaches
        # through its attributes, their tuples and lists shares memory with another's
        specs = [(("care", "ise"), 3, 11), (("care",), 5, 12), (("ise",), 5, 13)]

        def batches():
            return [ensemble._Batch(ScenarioConfig(horizon=300, seed=seed), range(runs), filters)
                    for filters, runs, seed in specs]

        def state(batch):
            return [a.tobytes() for a in (batch.fin_raw, batch.truth, batch.mask, batch.dev)]

        def arrays(batch):
            for name in dir(batch):
                value = getattr(batch, name)
                for a in value if isinstance(value, (tuple, list)) else [value]:
                    for b in a if isinstance(a, (tuple, list)) else [a]:
                        if isinstance(b, np.ndarray):
                            yield name, b

        alone = []
        for batch in batches():
            alone.append([])
            for k in range(1, 301):
                batch.step(k)
                alone[-1].append(state(batch))
        together = batches()
        for k in range(1, 301):
            for batch in together:
                batch.step(k)
            for i, batch in enumerate(together):
                assert state(batch) == alone[i][k - 1], (k, i)
        for i, batch in enumerate(together):
            for other in together[i + 1:]:
                for (name, a), (other_name, b) in product(arrays(batch), arrays(other)):
                    assert not np.shares_memory(a, b), (i, name, other_name)
        assert batch_in_act(together[1]).any() and batch_st_act(together[1]).any()

    def test_attack_rows_are_attack_input(self):
        # d_true is attack_input(k) for k = 0 ... K - 1, bit for bit, and zero without the attack
        cfg = ScenarioConfig(horizon=1000, seed=3)
        batch = ensemble._Batch(cfg, range(2), ("care",))
        rows = np.array([attack_input(k, batch.params) for k in range(cfg.horizon)])
        assert batch.d_true.shape == rows.shape and batch.d_true.tobytes() == rows.tobytes()
        assert np.count_nonzero(rows[:, 0]) and np.count_nonzero(rows[:, 1])
        quiet = ensemble._Batch(dataclasses.replace(cfg, attack="none"), range(2), ("care",))
        assert quiet.d_true.shape == rows.shape and not quiet.d_true.any()

    @pytest.mark.parametrize("filters", [("care",), ("care", "ise")])
    def test_final_values_share_no_memory_with_the_raw_ones(self, filters):
        # x, P, d and Pd are views of the kernel's projection buffers; one
        # sharing memory with an unprojected value would let the projection
        # audit compare a projected value with itself and count no violation.
        # x_true is a view of the same buffers, past the filters' rows: one
        # overlapping x or P would let the projection move the truth
        batch = ensemble._Batch(ScenarioConfig(horizon=160, seed=5), range(3), filters)
        active = 0
        for k in range(1, 161):
            batch.step(k)
            active += int(batch_in_act(batch).sum() + batch_st_act(batch).sum())
            raws = (batch_x_raw(batch), batch_P_raw(batch), batch_d_raw(batch), batch_Pd_raw(batch))
            for final in (batch.x, batch_P(batch), batch_d(batch), batch_Pd(batch)):
                for raw in raws:
                    assert not np.shares_memory(final, raw), k
            for other in (batch.x, batch_P(batch)) + raws:
                assert not np.shares_memory(batch.x_true, other), k
        assert active > 0

    @pytest.mark.parametrize("filters", [("care",), ("care", "ise")])
    def test_properties_are_copies_of_the_kernel_state(self, filters):
        # every property is a new array, sharing no memory with the kernel's
        # state, so a value kept across a step keeps its value
        batch = ensemble._Batch(ScenarioConfig(horizon=3, seed=5), range(3), filters)
        batch.step(1)
        state = [a for a in vars(batch).values() if isinstance(a, np.ndarray)]
        kept = {name: getattr(batch, name) for name in ("x", "x_true")}
        for name, value in kept.items():
            assert not any(np.shares_memory(value, a) for a in state), name
        x = kept["x"].copy()
        batch.step(2)
        assert np.array_equal(kept["x"], x) and not np.array_equal(batch.x, x)

    def test_truth_is_each_realizations_plant_recurrence(self):
        # the plant's rows ride in the filters' prediction; per realization
        # the truth is still A x + B u + B d + w, clipped to the road and
        # speed box, bit for bit, through the attack window and the clamp
        cfg = ScenarioConfig(horizon=300, seed=20260819)
        runs = [2, 5, 11]
        batch = ensemble._Batch(cfg, runs, ("care", "ise"))
        params = VehicleParams(l_f=cfg.l_f, l_r=cfg.l_r, T_s=cfg.t_s)
        u = np.array([slip_angle(cfg.control_delta, params), cfg.control_accel])
        lo, hi = [0.0, 0.0, -np.inf, 0.0], [params.x_max, params.y_max, np.inf, params.v_max]
        W = [NoiseSpec(cfg.seed, run).sample(batch.noise_model, cfg.horizon)[0] for run in runs]
        x = np.array([cfg.x0] * 3, dtype=float)
        clamped = 0
        for k in range(1, cfg.horizon + 1):
            batch.step(k)
            for i in range(3):
                A, B, G, _ = bicycle_matrices(x[i, 3], params)
                free = A @ x[i] + B @ u + G @ attack_input(k - 1, params) + W[i][k - 1]
                x[i] = np.clip(free, lo, hi)
                clamped += int((x[i] != free).any())
            assert x.tobytes() == batch.x_true.tobytes(), k
        assert clamped > 0

    def test_each_step_solves_one_face_of_the_violated_bounds(self, monkeypatch):
        # the state projection of every column is one face solve per step over
        # both filters and channels (the ise columns on unbounded boxes), none
        # on a step whose estimates meet the box, and the vehicle boxes never
        # send a run to the other faces
        calls = []
        face = ensemble._face

        def counting(E, *args):
            calls.append(E.shape)
            return face(E, *args)

        monkeypatch.setattr(ensemble, "_face", counting)
        batch = ensemble._Batch(ScenarioConfig(horizon=300, seed=20260819), range(6),
                                ("care", "ise"))
        active = 0
        for k in range(1, 301):
            calls.clear()
            batch.step(k)
            assert calls == ([(2, 2, 2, 6)] if batch_st_act(batch).any() else []), k
            active += int(batch_st_act(batch).any())
        assert active > 0 and batch.fallbacks == 0

    def test_noise_stream_is_each_runs_sample(self):
        # two full chunks and half of one, on run indices that are not 0 ... R-1:
        # every streamed row is the run's NoiseSpec.sample, bit for bit
        C = ensemble._NOISE_CHUNK
        cfg = ScenarioConfig(horizon=5 * C // 2, seed=20260819)
        K = cfg.horizon
        batch = ensemble._Batch(cfg, [3, 7], ("care",))
        W, V = np.empty((2, K, 4)), np.zeros((2, K + 1, 4))
        chunks = {}
        for k in range(1, K + 1):
            batch.step(k)
            j = k - 1 - batch.noise_k0
            chunks[batch.noise_k0] = len(batch.w)
            W[:, k - 1], V[:, k] = (_now(_states, x[j]) for x in (batch.w, batch.v))
        assert chunks == {0: C, C: C, 2 * C: K - 2 * C}
        for i, run in enumerate([3, 7]):
            W_ref, V_ref = NoiseSpec(cfg.seed, run).sample(batch.noise_model, K)
            assert np.array_equal(W[i], W_ref), run
            assert np.array_equal(V[i], V_ref), run

    def test_noise_memory_does_not_grow_with_the_horizon(self):
        # six more chunks of horizon may add the err_sq columns and the
        # shared attack schedule (16 bytes a step), not 64 bytes per run-step
        C, runs = ensemble._NOISE_CHUNK, 8
        peaks = {}
        for K in (2 * C, 8 * C):
            cfg = ScenarioConfig(horizon=K, seed=11)
            tracemalloc.start()
            try:
                run_ensemble(cfg, runs=runs)
                peaks[K] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        err_sq_growth = runs * 6 * C * 8
        assert peaks[8 * C] - peaks[2 * C] <= err_sq_growth + 6 * C * 16 + 16_384, peaks

    def test_simulate_is_its_run_of_monte_carlo(self):
        # simulate(run_index=i) is run i of a [care runs | ise runs] batch,
        # bit for bit, detector included
        cfg = ScenarioConfig(horizon=300, seed=20260819)
        batch = monte_carlo(cfg, runs=6)
        for i in range(6):
            alone = simulate(cfg, run_index=i)
            assert np.array_equal(alone.x_true, batch[i].x_true), i
            for name in ("care", "ise"):
                for f in REF_FLOAT_FIELDS + REF_EXACT_FIELDS:
                    assert np.array_equal(getattr(alone.filters[name], f),
                                          getattr(batch[i].filters[name], f)), (i, name, f)

    def test_unconstrained_variant_matches_the_baseline(self):
        cfg = ScenarioConfig(horizon=180, seed=4)
        ens = run_ensemble(cfg, runs=2, constrained=False, record_states=True)
        for i in range(2):
            seq = simulate(cfg, run_index=i, filters=("ise",), detector=False)
            fr = seq.filters["ise"]
            np.testing.assert_allclose(ens.x_hat[i], fr.x_hat, atol=1e-9)
            np.testing.assert_allclose(ens.d_hat[i], fr.d_hat, atol=1e-9)
        assert ens.fallback_projections == 0

    def test_unidentifiable_attack_names_step_run_and_filter(self):
        # zero initial speed leaves only one identifiable attack direction
        cfg = ScenarioConfig(horizon=20, x0=(0.0, 2.5, 0.0, 0.0))
        with pytest.raises(AttackUnidentifiableError, match="k=1, run 0, filter care"):
            simulate(cfg)
        with pytest.raises(AttackUnidentifiableError, match="k=1, run 3, filter ise"):
            simulate(cfg, run_index=3, filters=("ise",))
        with pytest.raises(AttackUnidentifiableError, match="k=1, run 0, filter care"):
            run_ensemble(cfg, runs=2)

    def test_identifiability_tests_the_whole_batch_first(self, monkeypatch):
        # the batch passes at once when its least information is positive and
        # its largest within 1e12 of it; otherwise every column takes the
        # exact test, which names the first failing one by step, run and filter
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), [4, 9, 11], ("care", "ise"))
        exact = []
        monkeypatch.setattr(ensemble, "_require_identifiable",
                            lambda *args: exact.append(args) or _require_identifiable(*args))
        require = partial(ensemble._require_information, where=batch._where, k=7)
        info = np.full((2, 2, 3), 2.0)  # (filter, channel, run)
        require(info)
        assert exact == []
        # the batch spans a factor of 1e13, each column 1: every column passes
        info[0, :, 0], info[1, :, 2] = 1e-7, 1e6
        require(info)
        assert len(exact) == 1
        for value, error, why in ((2e12, AttackUnidentifiableError,
                                   "attack unidentifiable at k=7, run 9, filter ise: "
                                   "G'C'R~CG condition number exceeds 1e12"),
                                  (np.nan, ValueError, "non-finite attack information "
                                                       "G'C'R~CG at k=7, run 9, filter ise"),
                                  (0.0, AttackUnidentifiableError,
                                   "attack unidentifiable at k=7, run 9, filter ise: "
                                   "G'C'R~CG is not positive definite"),
                                  (-1.0, AttackUnidentifiableError,
                                   "attack unidentifiable at k=7, run 9, filter ise: "
                                   "G'C'R~CG is not positive definite")):
            bad = np.full((2, 2, 3), 1.0)
            bad[1, 1, 1] = value
            with pytest.raises(error, match=f"^{re.escape(why)}$"):
                require(bad)

    def test_batch_information_at_the_limit_passes_at_once(self, monkeypatch):
        # a batch whose largest information is exactly 1e12 times its least
        # passes the batch test itself; one rounding step above, the columns
        # take the exact test, which refuses the one past the limit
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), [4, 9, 11], ("care", "ise"))
        exact = []
        monkeypatch.setattr(ensemble, "_require_identifiable",
                            lambda *args: exact.append(args) or _require_identifiable(*args))
        info = np.full((2, 2, 3), 1.0)
        info[1, 1, 1] = 1e12
        ensemble._require_information(info, batch._where, 7)
        assert exact == []
        info[1, 1, 1] = np.nextafter(1e12, np.inf)
        with pytest.raises(AttackUnidentifiableError, match="run 9, filter ise: G'C'R~CG "
                                                            "condition number exceeds 1e12"):
            ensemble._require_information(info, batch._where, 7)
        assert len(exact) == 1

    def test_non_finite_run_of_a_batch_is_named(self, monkeypatch):
        # run 2's measurement of x turns NaN at step C + 6, in the second
        # noise chunk: the batch fails the finiteness test, and the column
        # test names the run
        C = ensemble._NOISE_CHUNK
        draw = ensemble._draw_noise

        def poisoned(generators, model, k0, z):
            W, V = draw(generators, model, k0, z)
            if k0 == C:
                V[2, 5, 0] = np.nan
            return W, V

        monkeypatch.setattr(ensemble, "_draw_noise", poisoned)
        with pytest.raises(ValueError,
                           match=f"^non-finite estimate at k={C + 6}, run 2, filter care$"):
            run_ensemble(ScenarioConfig(horizon=2 * C, seed=3), runs=4)

    def test_covariance_self_check_names_the_run(self, monkeypatch):
        # run 1 violates both rows and goes to the active-set projector,
        # which ends with row 0 alone active
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([1.0, 3.0])
        calls = []
        project_core = projection._project_core

        def counting(*args):
            calls.append(args[0])
            return project_core(*args)

        monkeypatch.setattr(projection, "_project_core", counting)
        x_hat, _, res = project_state(SimpleNamespace(x_hat=np.array([2.0, 0.0]), P_x=np.eye(2)),
                                      A, b, where="run 1")
        assert len(calls) == 1
        np.testing.assert_allclose(x_hat, [1.0, 0.0])
        assert res.active_set == (0,)
        # an asymmetric covariance is rejected where it enters, by the
        # wrappers, named as the caller names it
        with pytest.raises(ValueError, match="^asymmetric covariance at run 1$"):
            project_attack(SimpleNamespace(d_hat=np.array([2.0, 0.0]),
                                           P_d=np.array([[1.0, 0.5], [0.0, 1.0]])),
                           A, b, where="run 1")

    def test_negative_statistic_names_the_step_run_and_filter(self, monkeypatch):
        # rows are [care runs | ise runs], each holding its K steps in the
        # one statistic call: entry 3 K + 2 is run 1's ise filter at k = 3
        K = 5

        def negative_at(d, P):
            stat = detection_statistic(d, P)
            stat[3 * K + 2] = -1.0
            return stat

        monkeypatch.setattr(harness, "detection_statistic", negative_at)
        with pytest.raises(ValueError, match="nonnegative at k=3, run 1, filter ise$"):
            monte_carlo(ScenarioConfig(horizon=K, seed=3), runs=2)

    def test_state_box_self_check_names_the_run(self):
        # the vehicle's state box on (x, y, v); run 2 leaves it through
        # x <= 20 alone, with a lopsided covariance, which the wrapper
        # rejects before it is projected
        params = VehicleParams()
        B_st, c_st = build_constraints((0.0, 0.0), params)[2:]
        x_hat = np.array([21.0, 2.5, 0.0, 10.0])
        P_x = 0.1 * np.eye(4)
        P_x[1, 3] = 0.05
        with pytest.raises(ValueError, match="^asymmetric covariance at k=7, run 2$"):
            project_state(SimpleNamespace(x_hat=x_hat, P_x=P_x), B_st, c_st, where="k=7, run 2")

    def test_vehicle_boxes_need_no_scalar_fallback(self):
        # every constraint set of the vehicle is a box, so runs violating
        # several rows are settled by the batched face solve: the face of
        # each run's own violated rows is the optimum
        cfg = ScenarioConfig(horizon=1000, seed=20260819)
        ens = run_ensemble(cfg, runs=20, projection_audit=True)
        assert ens.fallback_projections == 0
        audit = ens.audit
        assert audit["active_x"] > 0 and audit["active_d"] > 0
        for key in ("truth_infeasible_steps", "viol_x_weighted", "viol_d_weighted",
                    "viol_trace_x", "viol_trace_d", "viol_strict_x", "viol_strict_d"):
            assert audit[key] == 0, key

    def test_scalar_projector_errors_name_the_run(self, monkeypatch):
        # x + y <= -1 and x + y >= 1 is empty and no box
        A = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b = np.array([-1.0, -1.0])
        upd = SimpleNamespace(x_hat=np.zeros(2), P_x=np.eye(2))
        with pytest.raises(InfeasibleConstraintsError, match="cannot be satisfied.* at k=4, run 0"):
            project_state(upd, A, b, where="k=4, run 0")
        # a wedge that needs two active-set steps, under a budget of one:
        # the run violates row 0 alone, and its projection onto that row
        # violates row 1, so the face solve rejects it
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, 1.0])
        upd = SimpleNamespace(x_hat=np.array([3.0, -0.95]), P_x=np.array([[1.0, -0.9], [-0.9, 1.0]]))
        monkeypatch.setattr(projection, "_project_core",
                            partial(projection._project_core, max_iterations=1))
        with pytest.raises(ActiveSetLimitError, match="iteration cap at k=9, run 2") as info:
            project_state(upd, A, b, where="k=9, run 2")
        assert info.value.active_set == (0,)
        assert info.value.max_violation > 0.0

    def test_non_finite_input_is_named(self):
        params = VehicleParams()
        B_st, c_st = build_constraints((0.0, 0.0), params)[2:]
        x_hat, P_x = np.array([21.0, 2.5, np.nan, 10.0]), 0.1 * np.eye(4)
        with pytest.raises(ValueError, match="non-finite estimate at k=3, run 1"):
            project_state(SimpleNamespace(x_hat=x_hat, P_x=P_x), B_st, c_st, where="k=3, run 1")
        # an all-NaN estimate violates no row outright and is caught too
        with pytest.raises(ValueError, match="non-finite estimate at k=3, run 1"):
            project_state(SimpleNamespace(x_hat=np.full(4, np.nan), P_x=P_x), B_st, c_st,
                          where="k=3, run 1")
        x_hat[2] = 0.0
        P_x[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite covariance at k=3, run 2"):
            project_state(SimpleNamespace(x_hat=x_hat, P_x=P_x), B_st, c_st, where="k=3, run 2")

    def test_stacked_projection_names_the_care_run(self):
        # care run 2's state covariance Pxv turns non-finite in the update;
        # the projection of the care columns names its run and filter, and
        # the ise columns, which follow, are never projected
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(4), ("care", "ise"))
        batch.r12 = batch.r12.copy()
        batch.r12[0, 0, 2] = np.nan  # filter care, channel (x, v), run 2
        with pytest.raises(ValueError, match="non-finite covariance at k=1, run 2, filter care"):
            batch.step(1)
        # a non-finite measurement is named as an estimate
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(4), ("care", "ise"))
        batch.v[0, 0, 1, 3] = np.nan  # run 3's measurement of y_1
        with pytest.raises(ValueError, match="non-finite estimate at k=1, run 3, filter care"):
            batch.step(1)

    def test_covariances_are_block_diagonal_by_channel(self):
        # the channel-form kernel keeps only the (x, v) and (y, psi) blocks of
        # every covariance and the diagonal of P_d, which is exact only while
        # the filter leaves every other entry exactly zero: check it on the
        # general stages, care_step on vehicle_model, at every step through
        # the attack window, projections and the truth clamp included
        off = np.ones((4, 4), dtype=bool)
        off[np.ix_([0, 3], [0, 3])] = off[np.ix_([1, 2], [1, 2])] = False
        cfg = ScenarioConfig(horizon=300, seed=20260819)
        outputs = []
        ref = scalar_reference(cfg, 2, "care", step=care_step, outputs=outputs)
        for k, out in enumerate(outputs, 1):
            for name, X in (("P^-", out.prediction.P_x), ("R~", out.attack.R_tilde),
                            ("P_raw", out.update.P_x), ("P", out.state.P_x)):
                assert not X[off].any(), (k, name)
            for name, X in (("Pd_raw", out.attack.P_d), ("Pd", out.P_d)):
                assert not X[0, 1] and not X[1, 0], (k, name)
        assert ref["input_active"].any() and ref["state_active"].any()
        x_true = ref["x_true"]
        assert (x_true[:, [0, 1, 3]] == 0.0).any() or (x_true[:, :2] == [20.0, 5.0]).any()

    def test_channel_attack_stage_matches_the_general_one(self):
        # from the kernel's own state before each step, the general stages
        # (predict, estimate_attack, time_update, measurement_update; C = I)
        # on the same measurement give the kernel's unprojected d, P_d, x and
        # P, and its |M C G - I|, up to rounding, for care and ise rows alike
        cfg = ScenarioConfig(horizon=300, seed=20260819)
        batch = ensemble._Batch(cfg, range(2), ("care", "ise"))
        params = batch.params
        u = np.array([slip_angle(cfg.control_delta, params), cfg.control_accel])
        for k in range(1, 301):
            x, P = batch.x, batch_P(batch)
            batch.step(k)
            v = _now(_states, batch.v[k - 1 - batch.noise_k0])
            y = np.tile(batch.x_true + v, (2, 1))
            for row in range(4):
                model = vehicle_model(lambda _: x[row, 3], params)
                state = EstimatorState(x[row], P[row], k - 1)
                pred = predict(state, model, u)
                atk = estimate_attack(pred, model, P[row], y[row])
                upd = measurement_update(time_update(pred, atk, model, state), atk, model, y[row])
                mcg = np.abs(atk.M @ model.G(k - 1) - np.eye(2)).max()
                for name, got, ref in (("d", batch_d_raw(batch)[row], atk.d_hat),
                                       ("P_d", batch_Pd_raw(batch)[row], atk.P_d),
                                       ("x", batch_x_raw(batch)[row], upd.x_hat),
                                       ("P", batch_P_raw(batch)[row], upd.P_x)):
                    gap = np.abs(got - ref).max()
                    assert gap <= 1e-12 * np.abs(ref).max(), (k, row, name, gap)
                assert abs(batch_mcg_dev(batch)[row] - mcg) <= 1e-14, (k, row)

    def test_ise_only_batch_builds_no_projection_buffers(self, monkeypatch):
        # an ise-only batch has no care columns and never reaches a projector
        monkeypatch.setattr(ensemble, "_box_pairs", None)
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(3), ("ise",))
        assert batch.n_care == 0
        for k in range(1, 6):
            batch.step(k)
        assert batch_in_act(batch).sum() == 0 and batch_st_act(batch).sum() == 0

    def test_non_finite_covariance_of_an_ise_row_is_named(self):
        # ise rows are never projected; the attack stage stops the NaN
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(3), ("care", "ise"))
        batch.fin[ensemble._P22, 1, 1, 1] = np.nan  # P_psipsi of filter ise, run 1
        with pytest.raises(ValueError, match="non-finite attack information G'C'R~CG "
                                             "at k=1, run 1, filter ise"):
            batch.step(1)

    def test_default_run_count_comes_from_config(self):
        cfg = ScenarioConfig(horizon=30, seed=6, runs=2)
        ens = run_ensemble(cfg)
        assert ens.runs == 2
        assert ens.err_sq.shape == (2, 30)
        assert ens.x_hat is None
        assert ens.audit is None

    def test_projection_audit_counts_active_steps(self):
        cfg = ScenarioConfig(horizon=220, seed=20260819)
        ens = run_ensemble(cfg, runs=2, projection_audit=True)
        audit = ens.audit
        seq_state = seq_input = 0
        for i in range(2):
            fr = simulate(cfg, run_index=i, filters=("care",),
                          detector=False).filters["care"]
            seq_state += int((fr.state_active > 0).sum())
            seq_input += int((fr.input_active > 0).sum())
        assert audit["active_x"] == seq_state
        assert audit["active_d"] == seq_input
        assert audit["active_x"] > 0 and audit["active_d"] > 0
        assert audit["truth_infeasible_steps"] == 0
        # in the projection metric the projected error never beats the
        # tolerance, and the covariance trace always shrinks on activity
        assert audit["viol_x_weighted"] == 0
        assert audit["viol_d_weighted"] == 0
        assert audit["viol_trace_x"] == 0
        assert audit["viol_strict_d"] == 0
        assert audit["worst_x_weighted"] <= 1e-10

    @pytest.mark.parametrize("runs", [1, 3])
    def test_block_audit_equals_the_per_step_reference(self, runs):
        # horizons around the audit's block boundaries, and 100 + B, which
        # puts a block boundary inside the attack window that opens at k = 100
        B = ensemble._BLOCK
        audits = {}
        for horizon in (1, B - 1, B, B + 1, 2 * B + 3, 100 + B):
            cfg = ScenarioConfig(horizon=horizon, seed=7)
            on = run_ensemble(cfg, runs=runs, projection_audit=True, record_states=True)
            # the counts exactly; the worst margins up to the rounding of the
            # reference's own inverses
            assert on.audit == pytest.approx(audit_reference(cfg, runs), rel=1e-9, abs=1e-12), \
                horizon
            off = run_ensemble(cfg, runs=runs, record_states=True)
            assert np.array_equal(on.err_sq, off.err_sq)
            assert np.array_equal(on.x_hat, off.x_hat)
            audits[horizon] = on.audit
        # projections fire in the first block and again past it
        for key in ("active_d", "active_x"):
            assert 0 < audits[B][key] < audits[100 + B][key]

    def test_projection_audit_needs_the_constrained_filter(self):
        cfg = ScenarioConfig(horizon=5, seed=3)
        with pytest.raises(ValueError, match="projection_audit=True needs constrained=True"):
            run_ensemble(cfg, runs=2, constrained=False, projection_audit=True)

    def test_block_audit_compares_each_trace_with_its_own(self):
        # a one-run, one-step stub batch whose projection grows the attack
        # covariance's trace from 2 to 4 and shrinks the state covariance's
        # from 4 to 1: the attack's projected trace is set against its own
        # unprojected trace, not against the state's
        A_in, b_in, B_st, c_st = build_constraints((0.0, 0.0), VehicleParams())
        # care blocks (row, channel, step, run) of one step and one run
        fin, raw = np.zeros((2, ensemble._ROWS, 2, 1, 1))
        truth = np.array([10.0, 2.5, 10.0, 0.0]).reshape(2, 2, 1, 1)  # (x, y), (v, psi)
        fin[:2], raw[:2] = truth, truth + 1.0
        raw[ensemble._D] = 1.0
        fin[ensemble._PD], raw[ensemble._PD] = 2.0, 1.0
        fin[ensemble._P11:ensemble._P22 + 1], raw[ensemble._P11:ensemble._P22 + 1] = 0.25, 1.0
        batch = SimpleNamespace(d_true=np.zeros((1, 2)), A_in=A_in, b_in=b_in, B_st=B_st,
                                c_st=c_st)
        tally = defaultdict(int)
        ensemble._audit_block(tally, batch, 0, fin, raw, truth, np.ones((2, 1, 1), dtype=np.int64))
        assert tally["active_d"] == 1 and tally["active_x"] == 1
        assert tally["viol_trace_d"] == 1 and tally["viol_strict_d"] == 1
        assert tally["viol_trace_x"] == 0 and tally["viol_strict_x"] == 0



def box_pairs(E, V, P12, lo, hi, tol):
    """`ensemble._box_pairs` from the clip and the violated bounds that `_Batch._project`
    gives it: (each entry's active bounds, summed over channels, entries that left the face
    of their violated bounds)."""
    C = np.minimum(np.maximum(E, lo), hi)
    D = E - C
    F = np.abs(D) > tol
    left = ensemble._box_pairs(E, V, P12, C, D, F, lo, hi, tol, str)
    return F.sum(axis=(0, -2)), left


def channel_projection(e, P, lo, hi):
    """`ensemble._box_pairs` on one pair e, metric P^{-1} and box lo <= z <= hi,
    with the general projector's tolerance: (estimate, covariance, active count).
    The pair is channel 0 of the kernel's two; channel 1, unbounded, stays put."""
    bounds = np.concatenate([lo, hi])
    tol = _FEAS_REL * (1.0 + np.linalg.norm(e) + np.abs(bounds[np.isfinite(bounds)]).max())
    free = [1.0, 2.0], [3.0, 4.0], 0.5
    E, V = (np.stack([x, y], axis=1)[..., None] for x, y in zip((e, P.diagonal()), free))
    P12 = np.array([[P[0, 1]], [free[2]]])
    lo, hi = (np.stack([b, np.full(2, inf)], axis=1)[..., None] for b, inf in ((lo, -np.inf),
                                                                              (hi, np.inf)))
    count, _ = box_pairs(E, V, P12, lo, hi, np.array([tol]))
    assert (E[:, 1, 0].tolist(), V[:, 1, 0].tolist(), P12[1, 0]) == free
    return E[:, 0, 0], np.array([[V[0, 0, 0], P12[0, 0]], [P12[0, 0], V[1, 0, 0]]]), int(count[0])


def general_projection(e, P, lo, hi):
    """`project_state` on the same problem, its box as rows of A z <= b."""
    rows = [(sign * np.eye(2)[i], sign * bound) for i in range(2)
            for sign, bound in ((1.0, hi[i]), (-1.0, lo[i])) if np.isfinite(bound)]
    A, b = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    z, Pz, res = project_state(SimpleNamespace(x_hat=np.array(e, dtype=float), P_x=P), A, b)
    return z, Pz, len(res.active_set)


def _same(a, b):
    """Bit for bit: shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBlockRecord:
    """The drivers assemble their outputs from `ensemble._blocks`' record of
    _BLOCK steps at a time; a per-step reading of the kernel's properties
    gives the same numbers, bit for bit, around the block boundaries and the
    transient cutoff of the trace maxima."""

    B, T = ensemble._BLOCK, ensemble._TRANSIENT
    HORIZONS = (1, B - 1, B, B + 1, 2 * B + 3, T, T + 1, T + B)

    @pytest.mark.parametrize("detector", [True, False])
    @pytest.mark.parametrize("filters", [("care",), ("ise",), ("care", "ise")])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_harness_equals_the_per_step_reference(self, runs, filters, detector):
        names = [name for name in ("care", "ise") if name in filters]
        for horizon in self.HORIZONS:
            cfg = ScenarioConfig(horizon=horizon, seed=7)
            ref = step_reference(cfg, range(runs), filters, detector)
            sims = (monte_carlo(cfg, runs=runs, filters=filters) if detector else
                    [simulate(cfg, run_index=i, filters=filters, detector=False)
                     for i in range(runs)])
            for i, sim in enumerate(sims):
                assert _same(sim.x_true, ref["x_true"][i]), (horizon, i)
                for name in filters:
                    fr, col = sim.filters[name], names.index(name) * runs + i
                    for f in REF_FLOAT_FIELDS + REF_EXACT_FIELDS:
                        assert _same(getattr(fr, f), ref[f][col]), (horizon, i, name, f)
                    for f in ("max_mcg_dev", "max_trace_pxu"):
                        assert _same(getattr(fr.metrics, f), ref[f][col]), (horizon, i, name, f)
            if horizon > self.T:
                assert (ref["max_trace_pxu"] > 0.0).all()
            else:
                assert not ref["max_trace_pxu"].any()

    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_run_ensemble_equals_the_per_step_reference(self, runs, constrained):
        for horizon in self.HORIZONS:
            cfg = ScenarioConfig(horizon=horizon, seed=7)
            ref = ensemble_reference(cfg, runs, constrained)
            rec = run_ensemble(cfg, runs=runs, constrained=constrained, record_states=True)
            plain = run_ensemble(cfg, runs=runs, constrained=constrained)
            for f, want in ref.items():
                assert _same(getattr(rec, f), want), (horizon, f)
                if f not in ("x_hat", "d_hat", "x_true"):
                    assert _same(getattr(plain, f), want), (horizon, f)
            assert (ref["max_trace_pxu"] > 0.0) == (horizon > self.T), horizon

    def test_state_assembly_runs_per_block_not_per_step(self, monkeypatch):
        # the helpers that assemble state and attack rows and covariance
        # traces from the kernel's channel blocks each run a bounded number
        # of times per block, so their counts stay below the horizon
        K = 4 * self.B + 3
        blocks = -(-K // self.B)
        calls = Counter()

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        names = ("_states", "_attacks", "_traces")
        for name in names:
            counted = spy(name, getattr(ensemble, name))
            for module in (ensemble, harness):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        cfg = ScenarioConfig(horizon=K, seed=7)
        for study in (partial(monte_carlo, cfg, runs=2),
                      partial(run_ensemble, cfg, runs=2, record_states=True,
                              projection_audit=True)):
            calls.clear()
            study()
            for name in names:
                assert 0 < calls[name] <= 4 * blocks + 4 < K, calls


class TestChannelForm:
    """The kernel's closed forms against the general stages they replace."""

    @pytest.mark.parametrize("e, lo, hi, active", [
        # x alone is violated, and its face leaves the box through v >= 0:
        # the optimum is the corner (1, 0)
        ((2.0, 0.5), (0.0, 0.0), (1.0, 1.0), 2),
        # both are violated, but the corner's multiplier of v <= 1 is
        # negative: the optimum is the face of x <= 1 alone, at v = 0.6
        ((2.0, 1.5), (0.0, 0.0), (1.0, 1.0), 1),
        # x passes its bound by less than the tolerance: nothing moves
        ((1.0 + 5e-11, 0.5), (0.0, 0.0), (1.0, 1.0), 0),
    ])
    def test_pair_projection_cases(self, e, lo, hi, active):
        P = np.array([[1.0, 0.9], [0.9, 1.0]])
        got, ref = channel_projection(e, P, lo, hi), general_projection(e, P, lo, hi)
        assert got[2] == ref[2] == active
        np.testing.assert_allclose(got[0], ref[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=1e-12)
        if active == 0:
            assert np.array_equal(got[0], e) and np.array_equal(got[1], P)

    def test_entry_within_tolerance_stays_put_beside_a_projected_one(self):
        # in channel 0, entry 0 passes x <= 1 and is projected; entry 1 passes it
        # by less than the tolerance and keeps its estimate and covariance bit
        # for bit. Channel 1 is unbounded (coordinate, channel, entry)
        E = np.array([[[1.5, 1.0 + 5e-11], [1.0, 1.0]], [[0.8, 0.5], [2.0, 2.0]]])
        V, P12 = np.ones((2, 2, 2)), np.full((2, 2), 0.9)
        lo, hi = np.zeros((2, 2, 2)), np.ones((2, 2, 2))
        lo[:, 1], hi[:, 1] = -np.inf, np.inf
        tol = _FEAS_REL * (1.0 + np.sqrt((E * E).sum(axis=(0, 1))) + 1.0)
        kept = E[..., 1].copy(), V[..., 1].copy(), P12[:, 1].copy()
        count, left = box_pairs(E, V, P12, lo, hi, tol)
        assert count.tolist() == [1, 0] and left == 0
        for got, want in zip((E[..., 1], V[..., 1], P12[:, 1]), kept):
            assert _same(got, want)

    def test_each_estimate_row_keeps_its_own_tolerance(self):
        # one pass tests the rows (e1, e2, d), each at its own tolerance. Run 0's
        # acceleration passes its bound 3.5 by delta, over the attack's tolerance and under
        # the state's, and its y passes y <= 5 by the same delta: the attack is clipped
        # and y kept, bit for bit. Run 1's steering is far out, which lifts the attack's
        # tolerance over the state's, and its y passes by 2e-8, between the two: both
        # are projected. (row, channel, run) of the care filter, channels (x, v), (y, psi)
        E1, E2, D, P11, P22, P12, PD = (ensemble._E1, ensemble._E2, ensemble._D, ensemble._P11,
                                        ensemble._P22, ensemble._P12, ensemble._PD)
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(2), ("care",))
        fin, delta = batch.fin[:, 0], 2e-9
        fin[E1], fin[E2] = [[19.0, 19.0], [5.0 + delta, 5.0 + 2e-8]], [[21.0, 21.0], [0.1, 0.1]]
        fin[D] = [[3.5 + delta, 0.0], [0.0, 1000.0]]
        fin[P11], fin[P22], fin[P12], fin[PD] = 1.0, 2.0, 0.3, 0.5
        norm = np.sqrt((fin[[E1, E2]] ** 2).sum(axis=(0, 1)))
        tol_x = _FEAS_REL * (1.0 + norm + 22.0)
        tol_d = _FEAS_REL * (1.0 + np.sqrt((fin[D] ** 2).sum(axis=0)) + 3.5)
        assert tol_d[0] < delta < tol_x[0] and tol_x[1] < 2e-8 < tol_d[1]
        before = fin.copy()
        batch._project(1)
        assert batch_in_act(batch).tolist() == [1, 1] and batch_st_act(batch).tolist() == [0, 1]
        assert fin[D, 0, 0] == 3.5 and fin[PD, 0, 0] == 0.0
        assert fin[D, 1, 1] == 1.0472 and fin[PD, 1, 1] == 0.0
        assert _same(fin[[D, PD], 1, 0], before[[D, PD], 1, 0])
        assert _same(fin[[D, PD], 0, 1], before[[D, PD], 0, 1])
        assert _same(fin[:D, :, 0], before[:D, :, 0])
        assert _same(fin[P11:PD, :, 0], before[P11:PD, :, 0])
        # run 1's y is held at 5 and psi moves along the covariance, as `_face` has it
        assert fin[E1, 1, 1] == 5.0 and fin[P11, 1, 1] == 0.0 and fin[P12, 1, 1] == 0.0
        assert fin[E2, 1, 1] == 0.1 - 0.3 / 1.0 * (before[E1, 1, 1] - 5.0)
        assert fin[P22, 1, 1] == 2.0 - 0.3 * 0.3 / 1.0
        state = [E1, E2, P11, P22, P12]
        assert _same(fin[state, 0, 1], before[state, 0, 1])

    def test_active_counts_are_the_kept_faces(self, monkeypatch):
        # at step 3, the last, run 0's (x, v) is put at (40, 9) with unit variances and
        # covariance 0.9: its violated face x = 20 puts v at -9, off the box, so `_FACES`
        # keeps the corner (20, 0). The counts, the kernel's and `simulate`'s, are those of
        # the kept face, 2 held coordinates, not the 1 violated bound; y = 2.5 is in its box
        project = ensemble._Batch._project

        def injected(batch, k):
            if k == 3:
                fin = batch.fin[:, 0, :, 0]  # (row, channel) of care on run 0
                rows = [ensemble._E1, ensemble._E2, ensemble._P11, ensemble._P22, ensemble._P12]
                fin[rows, 0] = 40.0, 9.0, 1.0, 1.0, 0.9
                fin[ensemble._E1, 1] = 2.5
            project(batch, k)

        monkeypatch.setattr(ensemble._Batch, "_project", injected)
        cfg = ScenarioConfig(horizon=3, seed=3)
        batch = ensemble._Batch(cfg, range(2), ("care",))
        for k in range(1, 4):
            batch.step(k)
        assert batch.fallbacks == 1
        assert batch_st_act(batch)[0] == 2 and batch.x[0, [0, 3]].tolist() == [20.0, 0.0]
        fr = simulate(cfg, filters=("care",), detector=False).filters["care"]
        assert fr.state_active[2] == 2 and fr.x_hat[3, [0, 3]].tolist() == [20.0, 0.0]

    def test_pair_projection_matches_project_state(self):
        # random 2 x 2 metrics (correlation up to 0.99, variances over four
        # decades), boxes with an open side now and then, and estimates in,
        # near and far outside them
        rng = np.random.default_rng(20261020)
        moved = 0
        for draw in range(400):
            sd = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            rho = rng.uniform(-0.99, 0.99)
            P = np.outer(sd, sd) * np.array([[1.0, rho], [rho, 1.0]])
            lo = rng.uniform(-3.0, 0.0, size=2)
            hi = lo + rng.uniform(0.1, 4.0, size=2)
            lo[rng.random(2) < 0.15] = -np.inf
            hi[rng.random(2) < 0.15] = np.inf
            e = rng.uniform(-6.0, 6.0, size=2) * 10.0 ** rng.uniform(-1.0, 1.0)
            got, ref = channel_projection(e, P, lo, hi), general_projection(e, P, lo, hi)
            scale = 1.0 + np.abs(ref[0]).max()
            assert got[2] == ref[2], draw
            assert np.abs(got[0] - ref[0]).max() <= 1e-10 * scale, draw
            assert np.abs(got[1] - ref[1]).max() <= 1e-10 * np.abs(P).max(), draw
            moved += got[2] > 0
        assert moved > 100

    @pytest.mark.parametrize("field", ["Q", "R", "A_in", "B_st"])
    def test_batch_rejects_what_the_channel_form_cannot_hold(self, field, monkeypatch):
        # the kernel keeps two channels and a box of intervals; a coupled
        # noise covariance or a box row on two coordinates is refused where
        # it enters, by name
        def coupled(velocity, params):
            model = vehicle_model(velocity, params)
            M = (model.Q(0) if field == "Q" else model.R(1)).copy()
            M[0, 3] = M[3, 0] = 1e-4
            return dataclasses.replace(model, **{field: lambda k: M})

        def tilted(u, params):
            A_in, b_in, B_st, c_st = build_constraints(u, params)
            if field == "A_in":
                A_in = A_in + [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
            else:
                B_st = B_st.copy()
                B_st[0, 3] = 0.1
            return A_in, b_in, B_st, c_st

        if field in ("Q", "R"):
            monkeypatch.setattr(ensemble, "vehicle_model", coupled)
            message = f"^{field} must be diagonal"
        else:
            monkeypatch.setattr(ensemble, "build_constraints", tilted)
            message = f"^each row of {field} must have exactly one nonzero"
        with pytest.raises(ValueError, match=message):
            ensemble._Batch(ScenarioConfig(horizon=5), range(2), ("care",))
        # P0 = p0_scale I is diagonal for every config; the check it passes
        with pytest.raises(ValueError, match="^P0 must be diagonal"):
            ensemble._diagonal("P0", np.full((4, 4), 0.5))


def _write(path, text):
    path.write_text(text)
    return str(path)


BAD_CONFIG_VALUES = (
    "horizon = 0",
    "x0 = nan, 2.5, 0, 10",
    "p0_scale = inf",
    "control_delta = nan",
    "control_accel = inf",
    "l_f = nan",
    "l_r = inf",
    "t_s = nan",
    "p0_scale = 0",
    "t_s = -0.01",
    "l_f = 0",
    "l_r = 0",
    "seed = -1",
    "pd_window_start = -1",
    "alarm_start = -5",
    "alarm_start = 601",
)


class TestCli:
    def test_quantile_prints_the_table_value(self, capsys):
        assert main(["quantile", "--df", "2", "--alpha", "0.01"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("9.21034")

    def test_simulate_writes_three_files(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.txt", "horizon = 50\nseed = 11\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        traj = (out / "trajectories.csv").read_text().splitlines()
        assert len(traj) == 52  # header plus K+1 rows
        header = traj[0].split(",")
        assert header[:5] == ["k", "x_true", "y_true", "psi_true", "v_true"]
        assert "d_slip_care" in header and "d_slip_ise" in header
        last = traj[-1].split(",")
        assert last[0] == "50"
        assert last[-1] == "nan" and last[-6] == "nan"
        det = (out / "detector.csv").read_text().splitlines()
        assert len(det) == 52
        met = (out / "metrics.csv").read_text().splitlines()
        assert len(met) == 3

    def test_baseline_flag_limits_columns(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.txt", "horizon = 30\n")
        out = tmp_path / "care_only"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--baseline", "care"]) == 0
        capsys.readouterr()
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert "x_care" in header and "x_ise" not in header

    def test_identical_config_gives_identical_bytes(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.txt", "horizon = 40\nseed = 17\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        capsys.readouterr()
        for name in ("trajectories.csv", "metrics.csv", "detector.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_overrides_the_config(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.txt", "horizon = 40\nseed = 17\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b),
                     "--seed", "18"]) == 0
        capsys.readouterr()
        assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()

    def test_montecarlo_has_run_rows_and_mean_rows(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.txt", "horizon = 30\nruns = 5\n")
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--runs", "2"]) == 0
        capsys.readouterr()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 + 2  # header, 2 runs x 2 filters, 2 means
        assert lines[1].startswith("0,care,")
        assert lines[-2].startswith("mean,care,")
        assert lines[-1].startswith("mean,ise,")

    def test_montecarlo_columns_are_the_run_metrics(self, tmp_path, capsys):
        fields = ["sum_sq_state_err", "sum_sq_attack_err", "sum_trace_px", "sum_trace_pd",
                  "f_neg", "alarm_fraction", "sustained_alarm"]
        # at 150 steps every field is finite and the flag differs between the filters
        cfg = _write(tmp_path / "cfg.txt", "horizon = 150\nruns = 2\nseed = 5\n")
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].split(",") == ["run", "filter"] + fields
        results = monte_carlo(ScenarioConfig(horizon=150, runs=2, seed=5))
        for i, res in enumerate(results):
            for j, name in enumerate(("care", "ise")):
                metrics = res.filters[name].metrics
                assert metrics.as_row() == [float(getattr(metrics, f)) for f in fields]
                values = [f"{float(getattr(metrics, f)):.12g}" for f in fields]
                assert lines[1 + 2 * i + j].split(",") == [str(i), name] + values

    def test_validate_passes_on_the_default_scenario(self, capsys):
        assert main(["validate"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        pytest.param(text, id=name, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP.md item 6, still open: validate passes a config "
                                "whose run is unidentifiable"))
        for name, text in (("t_s_5", "t_s = 5"), ("l_r_1e-6", "l_r = 1e-6"))])
    def test_validated_config_simulates(self, tmp_path, capsys, text):
        # validate checks the model at the fixed speed x0[3] with a rank test;
        # the run fails at k=203 (closed-loop speed drift) and at k=1 (the
        # kernel's cond(N) <= 1e12) with AttackUnidentifiableError, exit 2
        cfg = _write(tmp_path / "cfg.txt", text + "\n")
        assert main(["validate", "--config", cfg]) != 0 or \
            main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_bad_config_value_exits_one(self, tmp_path, capsys):
        # one value outside its domain per case; each must fail as a config
        # error, not later as a runtime failure (exit 2) or silently
        for text in BAD_CONFIG_VALUES:
            cfg = _write(tmp_path / "bad.txt", text + "\n")
            assert main(["validate", "--config", cfg]) == 1, text
            assert "config error" in capsys.readouterr().err, text

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path / "bad.txt", "not_a_key = 3\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_memoryless_detector_is_a_valid_config(self, tmp_path, capsys):
        cfg = _write(tmp_path / "phi0.txt", "horizon = 30\nphi = 0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_plain_runtime_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # a RuntimeError that is no named error class, such as a search face
        # failing its KKT test, is a runtime failure too: one line, exit 2
        def failing(*args, **kwargs):
            raise RuntimeError("the active-set search's face fails its KKT test at k=3")

        monkeypatch.setattr(cli, "simulate", failing)
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: the active-set search's face fails its KKT test at k=3\n")

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        # zero initial speed leaves only one identifiable attack direction
        cfg = _write(tmp_path / "v0.txt", "horizon = 20\nx0 = 0, 2.5, 0, 0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
