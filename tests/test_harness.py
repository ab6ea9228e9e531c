import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from care_filter import ensemble, harness, projection
from care_filter.cli import main
from care_filter.config import ScenarioConfig
from care_filter.detector import DetectorConfig, DetectorState, cusum_update, detection_statistic
from care_filter.ensemble import run_ensemble
from care_filter.estimator import AttackUnidentifiableError, initial_state
from care_filter.harness import monte_carlo, simulate
from care_filter.model import NoiseSpec
from care_filter.projection import (
    ActiveSetLimitError,
    InfeasibleConstraintsError,
    _box_project,
    _ConstraintTable,
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

from oracles import audit_reference, pinv_care_step, transformed_dynamics

REF_FLOAT_FIELDS = ("x_hat", "x_hat_raw", "d_hat", "d_hat_raw", "trace_px",
                    "trace_px_raw", "trace_pd", "trace_pd_raw", "stats", "cusum")
REF_EXACT_FIELDS = ("input_active", "state_active", "alarms")


def scalar_reference(cfg, run_index, name):
    """One filter on one realization through the scalar general-LTV path.

    The oracle chain `pinv_care_step`, detection_statistic and cusum_update
    run once per step; the model is scheduled on the filter's own previous
    speed estimate and the plant on the true speed. Returns the truth, the
    per-step records and the running maxima of |M C G - I| and (for
    k > 100) trace P_x raw.
    """
    params = VehicleParams(l_f=cfg.l_f, l_r=cfg.l_r, T_s=cfg.t_s)
    K = cfg.horizon
    speeds = [cfg.x0[3]]
    model = vehicle_model(lambda k: speeds[k], params)
    constraints = vehicle_constraints(
        lambda k: (cfg.control_delta, cfg.control_accel), params)
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
        out = pinv_care_step(state, model, constraints, u, x + V[k],
                             unconstrained_baseline=name == "ise")
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

    @pytest.mark.parametrize("filters", [("care",), ("care", "ise")])
    def test_final_values_share_no_memory_with_the_raw_ones(self, filters):
        # x, P, d and Pd are views of the kernel's projection buffers; one
        # sharing memory with an unprojected value would let the projection
        # audit compare a projected value with itself and count no violation
        batch = ensemble._Batch(ScenarioConfig(horizon=160, seed=5), range(3), filters)
        active = 0
        for k in range(1, 161):
            batch.step(k)
            active += int(batch.in_act.sum() + batch.st_act.sum())
            for final in (batch.x, batch.P, batch.d, batch.Pd):
                for raw in (batch.x_raw, batch.P_raw, batch.d_raw, batch.Pd_raw):
                    assert not np.shares_memory(final, raw), k
        assert active > 0

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
            chunks[batch.noise_k0] = batch.w_chunk.shape[1]
            W[:, k - 1], V[:, k] = batch.w_chunk[:, j], batch.v_chunk[:, j]
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

    def test_covariance_self_check_names_the_run(self):
        # run 1 violates both rows and goes to the active-set projector,
        # which ends with row 0 alone active
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        b = np.array([1.0, 3.0])
        est = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        cov = np.tile(np.eye(2), (3, 1, 1))
        active = np.zeros((3, 2), dtype=bool)
        assert _box_project(est, cov, _ConstraintTable(A, b), 0, active, str) == 1
        np.testing.assert_allclose(est[1], [1.0, 0.0])
        assert active.tolist() == [[False, False], [True, False], [False, False]]
        # an asymmetric covariance makes the symmetric and the short
        # projected forms disagree, as in the scalar project_attack
        est[1] = [2.0, 0.0]
        cov[1] = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(RuntimeError, match="forms disagree at run 1"):
            _box_project(est, cov, _ConstraintTable(A, b), 0, active, lambda r: f"run {r}")

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
        # x <= 20 alone and is solved on the face of that row
        params = VehicleParams()
        B_st, c_st = build_constraints((0.0, 0.0), params)[2:]
        est = np.tile([10.0, 2.5, 0.0, 10.0], (3, 1))
        est[2, 0] = 21.0
        cov = np.tile(0.1 * np.eye(4), (3, 1, 1))
        cov[2, 1, 3] = 0.05
        active = np.zeros((3, len(B_st)), dtype=bool)
        with pytest.raises(RuntimeError, match="forms disagree at k=7, run 2"):
            _box_project(est, cov, _ConstraintTable(B_st, c_st), 0, active,
                         lambda r: f"k=7, run {r}")

    def test_vehicle_boxes_need_no_scalar_fallback(self):
        # every constraint set of the vehicle is a box, so runs violating
        # several rows are settled by the batched face solve
        cfg = ScenarioConfig(horizon=1000, seed=20260819)
        ens = run_ensemble(cfg, runs=20, projection_audit=True)
        assert ens.fallback_projections == 0
        audit = ens.audit
        assert audit["active_x"] > 0 and audit["active_d"] > 0
        for key in ("truth_infeasible_steps", "viol_x_weighted", "viol_d_weighted",
                    "viol_trace_x", "viol_trace_d", "viol_strict_x", "viol_strict_d"):
            assert audit[key] == 0, key

    def test_vehicle_runs_stop_at_their_violated_row_face(self, monkeypatch):
        # on the vehicle boxes the face of each run's own violated rows is
        # the optimum, so the scalar projector is never reached
        calls = []
        project_core = projection._project_core

        def counting(e, *args):
            calls.append(e.size)
            return project_core(e, *args)

        monkeypatch.setattr(projection, "_project_core", counting)
        cfg = ScenarioConfig(horizon=1000, seed=20260819)
        ens = run_ensemble(cfg, runs=20, projection_audit=True)
        assert calls == []
        assert ens.fallback_projections == 0
        assert ens.audit["active_x"] > 0 and ens.audit["active_d"] > 0

    def test_scalar_projector_errors_name_the_run(self, monkeypatch):
        # x + y <= -1 and x + y >= 1 is empty and no box
        A = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b = np.array([-1.0, -1.0])
        est = np.zeros((3, 2))
        cov = np.tile(np.eye(2), (3, 1, 1))
        active = np.zeros((3, len(A)), dtype=bool)
        with pytest.raises(InfeasibleConstraintsError, match="cannot be satisfied.* at k=4, run 0"):
            _box_project(est, cov, _ConstraintTable(A, b), 0, active, lambda r: f"k=4, run {r}")
        # a wedge that needs two active-set steps, under a budget of one:
        # run 2 violates row 0 alone, and its projection onto that row
        # violates row 1, so the batched face solve rejects it
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, 1.0])
        est[:] = [[0.0, 0.0], [0.0, 0.0], [3.0, -0.95]]
        cov[2] = [[1.0, -0.9], [-0.9, 1.0]]
        monkeypatch.setattr(projection, "_project_core",
                            partial(projection._project_core, max_iterations=1))
        with pytest.raises(ActiveSetLimitError, match="iteration cap at k=9, run 2") as info:
            _box_project(est, cov, _ConstraintTable(A, b), 0, active, lambda r: f"k=9, run {r}")
        assert info.value.active_set == (0,)
        assert info.value.max_violation > 0.0

    def test_non_finite_input_is_named(self):
        params = VehicleParams()
        B_st, c_st = build_constraints((0.0, 0.0), params)[2:]
        est = np.tile([21.0, 2.5, 0.0, 10.0], (3, 1))
        cov = np.tile(0.1 * np.eye(4), (3, 1, 1))
        active = np.zeros((3, len(B_st)), dtype=bool)
        est[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite estimate at k=3, run 1"):
            _box_project(est, cov, _ConstraintTable(B_st, c_st), 0, active,
                         lambda r: f"k=3, run {r}")
        # an all-NaN estimate violates no row outright and is caught too
        est[1] = np.nan
        with pytest.raises(ValueError, match="non-finite estimate at k=3, run 1"):
            _box_project(est, cov, _ConstraintTable(B_st, c_st), 0, active,
                         lambda r: f"k=3, run {r}")
        est[1] = est[0]
        cov[2, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite covariance at k=3, run 2"):
            _box_project(est, cov, _ConstraintTable(B_st, c_st), 0, active,
                         lambda r: f"k=3, run {r}")

    def test_stacked_projection_names_the_care_run(self):
        # care run 2's state estimate leaves the road through a large
        # measurement, and its state covariance turns non-finite; in the one
        # projection call its entry follows the four attack entries, and the
        # ise rows follow the care rows
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(4), ("care", "ise"))
        # row 0 of the first noise chunk is the measurement noise on y_1
        batch.v_chunk[2, 0, 0] = 1e3
        batch.r_outer = np.tile(batch.r_outer, (8, 1, 1))
        batch.r_outer[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite covariance at k=1, run 2, filter care"):
            batch.step(1)

    def test_non_finite_covariance_of_an_ise_row_is_named(self):
        # ise rows are never projected; the attack stage stops the NaN
        batch = ensemble._Batch(ScenarioConfig(horizon=5, seed=3), range(3), ("care", "ise"))
        batch.P[3 + 1, 2, 2] = np.nan
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
        B = ensemble._AUDIT_BLOCK
        audits = {}
        for horizon in (1, B - 1, B, B + 1, 2 * B + 3, 100 + B):
            cfg = ScenarioConfig(horizon=horizon, seed=7)
            on = run_ensemble(cfg, runs=runs, projection_audit=True, record_states=True)
            assert on.audit == audit_reference(cfg, runs), horizon
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
        x_true = np.array([[10.0, 2.5, 0.0, 10.0]])
        batch = SimpleNamespace(
            run_indices=[0], d_true=np.zeros((1, 2)), A_in=A_in, b_in=b_in, B_st=B_st, c_st=c_st,
            d=np.zeros((1, 2)), d_raw=np.ones((1, 2)), Pd=2.0 * np.eye(2)[None],
            Pd_raw=np.eye(2)[None], x=x_true, x_raw=x_true + 1.0, P=0.25 * np.eye(4)[None],
            P_raw=np.eye(4)[None], x_true=x_true, in_act=np.ones(1), st_act=np.ones(1))
        audit = ensemble._BlockAudit(batch)
        audit.record(0)
        assert audit.tally["active_d"] == 1 and audit.tally["active_x"] == 1
        assert audit.tally["viol_trace_d"] == 1 and audit.tally["viol_strict_d"] == 1
        assert audit.tally["viol_trace_x"] == 0 and audit.tally["viol_strict_x"] == 0


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

    def test_validate_passes_on_the_default_scenario(self, capsys):
        assert main(["validate"]) == 0
        assert "all checks passed" in capsys.readouterr().out

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

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        # zero initial speed leaves only one identifiable attack direction
        cfg = _write(tmp_path / "v0.txt", "horizon = 20\nx0 = 0, 2.5, 0, 0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
