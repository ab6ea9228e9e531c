"""Acceptance gate: one test per numbered criterion.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. The heavy Monte-Carlo products are built once in session
fixtures and shared, so the whole gate runs in a couple of minutes on one
core. Criteria with their own runtime budgets time exactly the work the
budget covers.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, gammainc

from care_filter.config import ScenarioConfig
from care_filter.detector import chi2_cdf, chi2_quantile
from care_filter.ensemble import run_ensemble
from care_filter.estimator import (
    EstimatorState,
    estimate_attack,
    measurement_update,
    predict,
    time_update,
)
from care_filter.harness import monte_carlo
from care_filter.model import NoiseSpec, SystemModel
from care_filter.projection import project
from care_filter.vehicle import VehicleParams, attack_input, bicycle_matrices, slip_angle

from oracles import qp_oracle

# CARE/ISE ratio targets for the four error metrics (state error energy,
# attack error energy, state covariance trace sum, attack covariance trace
# sum); the acceptance band is [0.5, 1.5] times each target.
REFERENCE_RATIOS = (0.72, 0.65, 0.74, 0.67)

ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.5)


@pytest.fixture(scope="session")
def mc100():
    """The 100-run vehicle Monte-Carlo, both filters plus detector, timed."""
    t0 = time.perf_counter()
    results = monte_carlo(ScenarioConfig())
    return results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ensemble_audit():
    """Batched rerun of the same 100 seeds with the projection audit on."""
    return run_ensemble(ScenarioConfig(), projection_audit=True)


@pytest.fixture(scope="session")
def long_ensemble():
    """200 runs over 10,000 steps for the boundedness check, timed."""
    cfg = replace(ScenarioConfig(), horizon=10_000)
    t0 = time.perf_counter()
    res = run_ensemble(cfg, runs=200)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="session")
def lti_unbiasedness():
    """2000 constraint-free 50-step runs of the fixed-speed model.

    Truth and filter share the constant matrices, the initial estimate is
    exact, and no clamping or projection touches anything, so the
    unconstrained errors should be zero-mean with the covariance the filter
    reports. Per-run time averages keep the across-run samples independent.
    Run i draws its noise from NoiseSpec(seed, i), and all runs go through
    the filter's stage functions as one 2000-row batch.
    """
    params = VehicleParams()
    A, B, G, C = bicycle_matrices(10.0, params)
    model = SystemModel.constant(
        A, B, C, G, np.diag(params.q_diag), np.diag(params.r_diag))
    cfg = ScenarioConfig()
    u = np.array([slip_angle(cfg.control_delta, params), cfg.control_accel])
    K, R = 50, 2000
    # shift the attack schedule so the injected input is nonzero throughout
    d_true = np.array([attack_input(k + 100, params) for k in range(K)])
    noise = [NoiseSpec(cfg.seed, i).sample(model, K) for i in range(R)]
    W = np.stack([w for w, _ in noise])
    V = np.stack([v for _, v in noise])

    x = np.tile(np.array(cfg.x0, dtype=float), (R, 1))
    state = EstimatorState(x.copy(), np.tile(cfg.p0_scale * np.eye(4), (R, 1, 1)), 0)
    ex = np.empty((R, K, 4))
    ed = np.empty((R, K, 2))
    max_mcg = 0.0
    eye2 = np.eye(2)
    for k in range(1, K + 1):
        x = (A @ x[..., None])[..., 0] + B @ u + G @ d_true[k - 1] + W[:, k - 1]
        y = (C @ x[..., None])[..., 0] + V[:, k]
        pred = predict(state, model, u)
        atk = estimate_attack(pred, model, state.P_x, y)
        upd = measurement_update(time_update(pred, atk, model, state), atk, model, y)
        ex[:, k - 1] = upd.x_hat - x
        ed[:, k - 1] = atk.d_hat - d_true[k - 1]
        max_mcg = max(max_mcg, float(np.abs(atk.M @ C @ G - eye2).max()))
        state = EstimatorState(upd.x_hat, upd.P_x, k)
    return {
        "run_mean_x": ex.mean(axis=1),
        "run_mean_d": ed.mean(axis=1),
        "d_err_last": ed[:, -1],
        "pd_last": atk.P_d[-1],
        "max_mcg": max_mcg,
    }


def test_criterion_1_projection_matches_oracle():
    """200 random small QPs: active-set projector vs exhaustive KKT oracle."""
    rng = np.random.default_rng(314159)
    t0 = time.perf_counter()
    worst_est = 0.0
    worst_obj = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 7))
        F = rng.standard_normal((n, n))
        W = F @ F.T + 0.5 * np.eye(n)
        A = rng.standard_normal((q, n))
        interior = rng.standard_normal(n)
        b = A @ interior + rng.uniform(0.05, 1.0, q)
        e = interior + rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        res = project(e, W, A, b)
        z_ref = qp_oracle(e, W, A, b)
        obj = float((res.estimate - e) @ W @ (res.estimate - e))
        obj_ref = float((z_ref - e) @ W @ (z_ref - e))
        worst_est = max(worst_est, float(np.abs(res.estimate - z_ref).max()))
        worst_obj = max(worst_obj, abs(obj - obj_ref))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst estimate gap {worst_est:.2e}, "
          f"worst objective gap {worst_obj:.2e}, {elapsed:.2f}s")
    assert worst_est <= 1e-8
    assert worst_obj <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_projection_reduces_errors_and_covariances(
        ensemble_audit, mc100):
    """Error-norm and covariance-trace reduction at every audited step.

    Over the 100-run Monte-Carlo, at each step where the true state and
    attack lie in their feasible sets and a projection moved the estimate:
    the projected error is no larger than the unconstrained error, with the
    norm taken in the projection's own metric (weight = inverse of the
    unconstrained covariance, the metric the projection minimizes and the
    one in which the oblique projector contracts toward feasible points);
    and each covariance trace shrinks, strictly so on active steps. The
    Euclidean-norm tallies are printed for the record: an oblique projector
    is not a Euclidean contraction, so occasional tiny exceedances of that
    norm are expected and observed, while the weighted norm shows none.
    """
    audit = ensemble_audit.audit
    assert audit["truth_infeasible_steps"] == 0
    # the check must not pass vacuously: both projections fire often
    assert audit["active_x"] > 1000
    assert audit["active_d"] > 1000

    print(f"criterion 2: state projections {audit['active_x']}, "
          f"attack projections {audit['active_d']}; weighted-norm "
          f"violations x={audit['viol_x_weighted']} d={audit['viol_d_weighted']} "
          f"(worst margins {audit['worst_x_weighted']:.2e}, "
          f"{audit['worst_d_weighted']:.2e}); euclidean exceedances "
          f"x={audit['viol_x_euclid']} (worst {audit['worst_x_euclid']:.2e}) "
          f"d={audit['viol_d_euclid']}")

    assert audit["viol_x_weighted"] == 0
    assert audit["viol_d_weighted"] == 0
    assert audit["viol_trace_x"] == 0
    assert audit["viol_trace_d"] == 0
    assert audit["viol_strict_x"] == 0
    assert audit["viol_strict_d"] == 0

    # corroborate the trace claims on the sequential harness records
    for sim in mc100[0]:
        run = sim.filters["care"]
        assert (run.trace_px[1:] <= run.trace_px_raw[1:]).all()
        assert (run.trace_pd <= run.trace_pd_raw).all()
        st = run.state_active > 0
        assert (run.trace_px[1:][st] < run.trace_px_raw[1:][st]).all()
        ia = run.input_active > 0
        assert (run.trace_pd[ia] < run.trace_pd_raw[ia]).all()


def test_criterion_3_constrained_filter_beats_baseline(mc100):
    """Per-run ordering and mean ratios of the four error metrics."""
    results, elapsed = mc100
    care = np.array([r.filters["care"].metrics.as_row()[:4] for r in results])
    ise = np.array([r.filters["ise"].metrics.as_row()[:4] for r in results])
    wins = int((care < ise).all(axis=1).sum())
    ratios = care.mean(axis=0) / ise.mean(axis=0)
    print(f"criterion 3: all-four-smaller in {wins}/100 runs, "
          f"mean ratios {np.round(ratios, 3)}, MC elapsed {elapsed:.1f}s")
    assert wins >= 95
    for got, ref in zip(ratios, REFERENCE_RATIOS):
        assert 0.5 * ref <= got <= 1.5 * ref
    assert elapsed < 120.0


def test_criterion_4_detection_improvement(mc100):
    """False-negative ordering per run and sustained CUSUM alarms."""
    results, _ = mc100
    fn_care = np.array([r.filters["care"].metrics.f_neg for r in results])
    fn_ise = np.array([r.filters["ise"].metrics.f_neg for r in results])
    sustained = sum(r.filters["care"].metrics.sustained_alarm for r in results)
    print(f"criterion 4: mean F_neg care {fn_care.mean():.3f} vs "
          f"ise {fn_ise.mean():.3f}; sustained alarms {sustained}/100")
    # measured, not gated: the steps before the attack starts, in F_neg's alignment (the
    # statistic of step k tests row k - 1 of d_true), where any exceedance is a false alarm
    pre = int(np.any(results[0].d_true != 0.0, axis=1).argmax())
    quantile = chi2_quantile(2, results[0].config.alpha)
    for name in ("care", "ise"):
        runs = [r.filters[name] for r in results]
        over = np.mean([run.stats[1:pre + 1] > quantile for run in runs])
        alarm = np.mean([run.alarms[1:pre + 1] for run in runs])
        print(f"criterion 4: {name} before the attack (k <= {pre}): statistic over the "
              f"chi-square quantile on {over:.1%} of steps, CUSUM alarm on {alarm:.1%}")
    # measured, not gated: F_neg with each filter's threshold set to the same empirical
    # false-alarm rate, a percentile of its statistics at k > 100 over runs without attack
    calm = monte_carlo(replace(results[0].config, attack="none", seed=results[0].config.seed + 1))
    attacked = np.any(results[0].d_true != 0.0, axis=1)
    for fa in (0.01, 0.05):
        f_neg = {}
        for name in ("care", "ise"):
            cut = np.quantile(np.concatenate([r.filters[name].stats[101:] for r in calm]), 1 - fa)
            f_neg[name] = np.mean([r.filters[name].stats[1:][attacked] <= cut for r in results])
        print(f"criterion 4: at an equal false-alarm rate of {fa:.0%} without attack, "
              f"F_neg care {f_neg['care']:.3f} vs ise {f_neg['ise']:.3f}")
    assert np.isfinite(fn_care).all() and np.isfinite(fn_ise).all()
    assert (fn_care <= fn_ise).all()
    assert fn_ise.mean() > 0.4
    assert sustained >= 95


def test_criterion_5_unconstrained_estimates_unbiased(lti_unbiasedness):
    """Zero-mean errors within 4 standard errors; covariance match."""
    data = lti_unbiasedness
    for key in ("run_mean_x", "run_mean_d"):
        s = data[key]
        m = s.mean(axis=0)
        se = s.std(axis=0, ddof=1) / np.sqrt(s.shape[0])
        print(f"criterion 5: {key} mean/4se = {np.round(np.abs(m) / (4 * se), 3)}")
        assert (np.abs(m) <= 4.0 * se).all()
    # error covariance of the final-step attack estimate across runs; the
    # errors are zero-mean, so compare second moments about zero
    d_err = data["d_err_last"]
    emp = d_err.T @ d_err / d_err.shape[0]
    ref = data["pd_last"]
    rel = float(np.linalg.norm(emp - ref) / np.linalg.norm(ref))
    print(f"criterion 5: covariance relative error {rel:.4f}")
    assert rel <= 0.10


def test_criterion_6_long_horizon_boundedness(long_ensemble):
    """Decile test of the error energy plus a covariance-size bound."""
    res, elapsed = long_ensemble
    avg = res.err_sq.mean(axis=0)
    deciles = avg.reshape(10, -1).mean(axis=1)
    ratio = float(deciles[-1] / deciles[4])
    print(f"criterion 6: decile means {np.round(deciles, 4)}, "
          f"last/fifth {ratio:.3f}, max covariance trace "
          f"{res.max_cov_trace:.3e}, elapsed {elapsed:.1f}s")
    assert ratio <= 1.5
    # every tracked covariance is PSD, so its largest eigenvalue is
    # bounded by its trace
    assert res.max_cov_trace < 1e6
    assert elapsed < 300.0


def _gamma_inversion_quantile(df, alpha):
    """Bisection on the regularized lower incomplete gamma, 40 digits."""
    mp.dps = 40
    target = mp.mpf(1) - mp.mpf(alpha)
    half_df = mp.mpf(df) / 2
    lo, hi = mp.mpf(0), mp.mpf(400)
    for _ in range(160):
        mid = (lo + hi) / 2
        if gammainc(half_df, 0, mid / 2, regularized=True) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_criterion_7_chi2_quantile_round_trip():
    """CDF(quantile) round trip plus an independent high-precision check."""
    worst = 0.0
    for df in range(1, 11):
        for a in ALPHAS:
            q = chi2_quantile(df, a)
            worst = max(worst, abs(chi2_cdf(q, df) - (1.0 - a)))
    q_201 = chi2_quantile(2, 0.01)
    oracle = _gamma_inversion_quantile(2, 0.01)
    print(f"criterion 7: worst round-trip error {worst:.2e}, "
          f"quantile(2, 0.01) = {q_201:.10f} vs oracle {oracle:.10f}")
    assert worst <= 1e-8
    assert abs(q_201 - oracle) <= 1e-4
    assert abs(q_201 - 9.21034) <= 1e-4


def test_criterion_8_estimator_identities(
        mc100, ensemble_audit, long_ensemble, lti_unbiasedness):
    """M C G = I on every acceptance run; gain optimality by perturbation."""
    results, _ = mc100
    worst = 0.0
    for sim in results:
        for run in sim.filters.values():
            worst = max(worst, run.metrics.max_mcg_dev)
    worst = max(worst, ensemble_audit.max_mcg_dev,
                long_ensemble[0].max_mcg_dev, lti_unbiasedness["max_mcg"])
    print(f"criterion 8: worst |M C G - I| entry {worst:.2e}")
    assert worst <= 1e-8

    rng = np.random.default_rng(271828)
    params = VehicleParams()
    R = np.diag(params.r_diag)
    worst_drop = -np.inf
    for _ in range(50):
        v = float(rng.uniform(1.0, 20.0))
        A, B, G, C = bicycle_matrices(v, params)
        model = SystemModel.constant(
            A, B, C, G, np.diag(params.q_diag), R)
        F = rng.standard_normal((4, 4))
        state = EstimatorState(rng.standard_normal(4) * 5.0,
                               F @ F.T + 0.5 * np.eye(4), 0)
        u = rng.standard_normal(2)
        y = rng.standard_normal(4) * 3.0
        pred = predict(state, model, u)
        atk = estimate_attack(pred, model, state.P_x, y)
        tu = time_update(pred, atk, model, state)
        upd = measurement_update(tu, atk, model, y)
        GMR = G @ atk.M @ R

        def posterior_trace(L):
            ImLC = np.eye(4) - L @ C
            t1 = ImLC @ GMR @ L.T
            return float(np.trace(t1 + t1.T + ImLC @ tu.P_x @ ImLC.T
                                  + L @ R @ L.T))

        base = float(np.trace(upd.P_x))
        assert abs(posterior_trace(upd.L) - base) <= 1e-9 * (1.0 + abs(base))
        for i in range(4):
            for j in range(4):
                for sign in (1.0, -1.0):
                    Lp = upd.L.copy()
                    Lp[i, j] += sign * 1e-4
                    worst_drop = max(worst_drop, base - posterior_trace(Lp))
    print(f"criterion 8: largest trace decrease under gain perturbation "
          f"{worst_drop:.2e}")
    assert worst_drop <= 1e-10
