"""Detector tests.

The quantile reference values below were generated with mpmath at 60 decimal
digits (bisection on the regularized incomplete gamma function, upper-tail
convention), then frozen here. Regeneration snippet:

    from mpmath import mp, mpf, gammainc
    mp.dps = 60
    a, target = mpf(df)/2, 1 - mpf(alpha)
    f = lambda q: gammainc(a, 0, q/2, regularized=True) - target
    # bisect f on [0, hi] to 200 iterations
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import gammainc, mp

from care_filter.config import ScenarioConfig
from care_filter.detector import (
    DetectorConfig,
    DetectorState,
    _cusum,
    chi2_cdf,
    chi2_quantile,
    cusum_update,
    detection_statistic,
    false_negative_rate,
)
from care_filter.harness import monte_carlo

ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.5)

# rows: df 1..10, columns: ALPHAS (upper-tail quantiles, mpmath oracle)
QUANTILE_TABLE = {
    1: (10.827566170662732, 6.6348966010212151, 3.841458820694126, 2.7055434540954146, 0.45493642311957275),
    2: (13.815510557964274, 9.2103403719761827, 5.991464547107982, 4.6051701859880914, 1.3862943611198906),
    3: (16.266236196238131, 11.344866730144372, 7.81472790325118, 6.2513886311703232, 2.3659738843753383),
    4: (18.466826952903171, 13.276704135987625, 9.4877290367811568, 7.7794403397348581, 3.3566939800333213),
    5: (20.515005652432878, 15.08627246938899, 11.070497693516354, 9.2363568997811185, 4.3514601910955273),
    6: (22.457744484825325, 16.811893829770931, 12.591587243743979, 10.64464067566842, 5.3481206274471206),
    7: (24.321886347856855, 18.475306906582364, 14.067140449340169, 12.017036623780529, 6.3458111955215175),
    8: (26.124481558376141, 20.090235029663233, 15.507313055865454, 13.361566136511727, 7.3441214977017922),
    9: (27.877164871256573, 21.665994333461926, 16.91897760462045, 14.683656573259838, 8.3428326922529538),
    10: (29.588298445074419, 23.20925115895436, 18.307038053275147, 15.987179172105261, 9.3418177655919674),
}


class TestQuantile:
    def test_headline_values(self):
        assert abs(chi2_quantile(2, 0.01) - 9.2103403719761827) < 1e-8
        assert abs(chi2_quantile(1, 0.05) - 3.8414588206941260) < 1e-8

    def test_against_frozen_oracle_table(self):
        for df, row in QUANTILE_TABLE.items():
            for alpha, expected in zip(ALPHAS, row):
                got = chi2_quantile(df, alpha)
                assert abs(got - expected) < 1e-8, (df, alpha)

    def test_roundtrip_through_cdf(self):
        for df in range(1, 11):
            for alpha in ALPHAS:
                q = chi2_quantile(df, alpha)
                assert abs(chi2_cdf(q, df) - (1.0 - alpha)) < 1e-8

    def test_scipy_crosscheck(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 4, 7, 10):
            for alpha in ALPHAS:
                ref = scipy_stats.chi2.ppf(1.0 - alpha, df)
                assert chi2_quantile(df, alpha) == pytest.approx(ref, abs=1e-9)

    def test_df2_is_minus_twice_the_log_of_alpha_in_the_far_tail(self):
        # for two degrees of freedom the tail is exp(-q/2), so q = -2 ln(alpha)
        for alpha in np.logspace(-300, math.log10(0.5), 200):
            expected = -2.0 * math.log(alpha)
            assert abs(chi2_quantile(2, alpha) - expected) <= 1e-13 * expected, alpha

    def test_against_mpmath_at_alpha_1e_12(self):
        # 40-digit bisection on the upper regularized incomplete gamma
        for df in range(1, 11):
            with mp.workdps(40):
                lo, hi = mp.mpf(0), mp.mpf(200)
                for _ in range(140):
                    mid = (lo + hi) / 2
                    if gammainc(mp.mpf(df) / 2, mid / 2, mp.inf, regularized=True) > 1e-12:
                        lo = mid
                    else:
                        hi = mid
                expected = float((lo + hi) / 2)
            assert abs(chi2_quantile(df, 1e-12) - expected) <= 1e-12 * expected, df

    def test_alpha_near_one_gives_vanishing_quantile(self):
        assert chi2_quantile(2, 1.0 - 1e-12) < 1e-8

    def test_rejects_bad_arguments(self):
        for alpha in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(2, alpha)
        for df in (0, -1, 2.5):
            with pytest.raises(ValueError):
                chi2_quantile(df, 0.05)


class TestCdf:
    def test_df2_closed_form(self):
        # For two degrees of freedom the CDF is 1 - exp(-x/2) exactly.
        for x in (0.01, 0.5, 1.0, 3.3, 9.2103403719761827, 40.0):
            assert abs(chi2_cdf(x, 2) - (1.0 - math.exp(-0.5 * x))) < 1e-14

    def test_edges_and_monotonicity(self):
        assert chi2_cdf(0.0, 3) == 0.0
        assert chi2_cdf(-1.0, 3) == 0.0
        xs = np.linspace(0.01, 60.0, 200)
        vals = [chi2_cdf(x, 5) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1.0 - 1e-9


class TestDetectionStatistic:
    def test_matches_exact_inverse_when_well_conditioned(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(1, 5)
            d = rng.normal(size=n)
            root = rng.normal(size=(n, n))
            P = root @ root.T + 0.5 * np.eye(n)
            exact = float(d @ np.linalg.solve(P, d))
            assert detection_statistic(d, P) == pytest.approx(exact, rel=1e-9)

    def test_boundary_pinned_component_counts_as_evidence(self):
        # variance collapsed along the second axis, estimate pinned there
        P = np.array([[1.0, 0.0], [0.0, 0.0]])
        d = np.array([0.0, 1.0])
        floored = detection_statistic(d, P)
        assert np.isfinite(floored)
        assert floored > 1e10

    def test_zero_estimate(self):
        assert detection_statistic(np.zeros(2), np.eye(2)) == 0.0

    def test_batch_matches_single_calls(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=(6, 2))
        d[2] = 0.0
        root = rng.normal(size=(6, 2, 2))
        P = root @ root.transpose(0, 2, 1)
        P[4] = [[1.0, 0.0], [0.0, 0.0]]
        got = detection_statistic(d, P)
        assert got.shape == (6,)
        for i in range(6):
            assert got[i] == pytest.approx(detection_statistic(d[i], P[i]), rel=1e-12)
        assert got[2] == 0.0 and got[4] > 1e10
        with pytest.raises(ValueError):
            detection_statistic(d, P[:5])

    def test_diagonal_variances_give_the_full_statistic_bit_for_bit(self):
        # P of d's shape holds each covariance's diagonal: its closed form is
        # the eigh path on the diagonal matrices bit for bit, also at zero
        # variances, zero estimates, equal variances and variances below the floor
        rng = np.random.default_rng(11)
        n = 20_000
        d = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 4, size=(n, 2))
        v = rng.exponential(size=(n, 2)) * 10.0 ** rng.integers(-16, 3, size=(n, 2))
        pick = rng.random((n, 2))
        v[pick < 0.1], d[pick > 0.9], d[:50] = 0.0, 0.0, 0.0
        v[50:100, 1] = v[50:100, 0]
        v[100:150] = 1e-30
        diag = detection_statistic(d, v)
        assert diag.tobytes() == detection_statistic(d, v[..., None] * np.eye(2)).tobytes()
        assert (diag[:50] == 0.0).all() and (diag > 1e10).any()
        for i in range(0, n, 997):
            assert detection_statistic(d[i], v[i]) == detection_statistic(d[i], np.diag(v[i]))

    def test_shape_matching_neither_form_is_rejected(self):
        d = np.ones((6, 2))
        for P in (np.ones((6, 3)), np.ones((5, 2)), np.ones((6, 2, 3)), np.ones(2)):
            with pytest.raises(ValueError, match="^covariance shape does not match the estimate$"):
                detection_statistic(d, P)
        with pytest.raises(ValueError, match="^covariance shape does not match the estimate$"):
            detection_statistic(np.ones(2), np.ones(3))


class TestCusum:
    def test_trivial_steps(self):
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        state, alarm = cusum_update(DetectorState(), 0.0, cfg)
        assert state.S == 0.0 and not alarm
        state, _ = cusum_update(DetectorState(S=10.0, step=4), 2.0, cfg)
        assert state.S == pytest.approx(3.5)
        assert state.step == 5

    def test_constant_statistic_limit_matches_quantile_threshold(self):
        # S converges to c/(1-phi), so the alarm fires iff c exceeds the quantile
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        for factor, expect_alarm in ((1.01, True), (0.99, False)):
            c = factor * cfg.quantile
            state = DetectorState()
            alarms = []
            for _ in range(500):
                state, alarm = cusum_update(state, c, cfg)
                alarms.append(alarm)
            assert state.S == pytest.approx(c / (1.0 - cfg.phi), rel=1e-12)
            assert alarms[-1] is expect_alarm

    def test_rejects_negative_statistic(self):
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        with pytest.raises(ValueError):
            cusum_update(DetectorState(), -0.1, cfg)
        with pytest.raises(ValueError):
            cusum_update(DetectorState(S=np.zeros(2)), np.array([1.0, -0.1]), cfg)

    def test_negative_statistic_names_the_step_and_the_run(self):
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        with pytest.raises(ValueError, match="test statistic must be nonnegative at k=5, run 1$"):
            cusum_update(DetectorState(S=np.zeros(3), step=4), np.array([1.0, -0.1, -0.2]), cfg)
        with pytest.raises(ValueError, match="test statistic must be nonnegative at k=1$"):
            cusum_update(DetectorState(), -0.1, cfg)
        # a block names its earliest step holding a negative statistic
        stats = np.array([[1.0, 2.0, -1.0], [1.0, -0.5, -1.0]])
        with pytest.raises(ValueError, match="nonnegative at step 1 of run 1$"):
            _cusum(np.zeros(2), stats, cfg, lambda j, i: f"step {j} of run {i}")

    def test_nan_statistic_is_rejected_not_accumulated(self):
        # a NaN statistic would leave S at NaN, which compares false with the
        # threshold: no alarm, then or ever after
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        with pytest.raises(ValueError, match="test statistic must be nonnegative at k=1$"):
            cusum_update(DetectorState(), np.nan, cfg)
        with pytest.raises(ValueError, match="test statistic must be nonnegative at k=3, run 2$"):
            cusum_update(DetectorState(S=np.zeros(3), step=2), np.array([1.0, 2.0, np.nan]), cfg)
        stats = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, np.nan, 4.0]])
        with pytest.raises(ValueError, match="nonnegative at step 2 of run 1$"):
            _cusum(np.zeros(2), stats, cfg, lambda j, i: f"step {j} of run {i}")

    def test_nan_accumulator_is_rejected(self):
        with pytest.raises(ValueError, match="CUSUM accumulator must be nonnegative"):
            DetectorState(S=np.nan)
        with pytest.raises(ValueError, match="CUSUM accumulator must be nonnegative"):
            DetectorState(S=np.array([0.0, np.nan]))

    def test_block_pass_is_the_loop_of_single_steps(self):
        # on monte_carlo's own statistics, care and ise rows of two runs
        # through the attack window, the block pass equals the loop of
        # cusum_update bit for bit, at phi = 0 and at the config's phi,
        # whose block is what monte_carlo records
        cfg = ScenarioConfig(horizon=300, seed=11)
        sims = monte_carlo(cfg, runs=2)
        recs = [sim.filters[name] for sim in sims for name in ("care", "ise")]
        stats = np.array([rec.stats[1:] for rec in recs])
        for phi in (0.0, cfg.phi):
            det = DetectorConfig.from_parameters(cfg.alpha, 2, phi)
            acc, alarms = _cusum(np.zeros(len(stats)), stats, det, None)
            state = DetectorState(S=np.zeros(len(stats)))
            for k in range(stats.shape[1]):
                state, alarm = cusum_update(state, stats[:, k], det)
                assert np.array_equal(acc[:, k], state.S), (phi, k)
                assert np.array_equal(alarms[:, k], alarm), (phi, k)
            assert alarms.any() and not alarms.all(), phi
        assert np.array_equal(acc, [rec.cusum[1:] for rec in recs])
        assert np.array_equal(alarms, [rec.alarms[1:] for rec in recs])

    def test_batch_accumulators_step_independently(self):
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        state = DetectorState(S=np.array([0.0, 10.0, 20.0]))
        stat = np.array([1.0, 2.0, 12.0])
        state, alarm = cusum_update(state, stat, cfg)
        for i, s0 in enumerate((0.0, 10.0, 20.0)):
            single, single_alarm = cusum_update(DetectorState(S=s0), float(stat[i]), cfg)
            assert state.S[i] == single.S and alarm[i] == single_alarm
        assert alarm.tolist() == [False, False, True]

    def test_zero_forgetting_rate_is_the_memoryless_test(self):
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.0)
        assert cfg.threshold == cfg.quantile
        state = DetectorState(S=50.0)
        state, alarm = cusum_update(state, 0.5 * cfg.quantile, cfg)
        assert state.S == 0.5 * cfg.quantile and not alarm
        _, alarm = cusum_update(state, 1.01 * cfg.quantile, cfg)
        assert alarm
        with pytest.raises(ValueError):
            DetectorConfig.from_parameters(0.01, 2, -0.1)

    def test_config_invariants(self):
        cfg = DetectorConfig.from_parameters(0.01, 2, 0.15)
        assert cfg.quantile == pytest.approx(9.2103403719761827, abs=1e-8)
        assert cfg.threshold == pytest.approx(cfg.quantile / 0.85, rel=1e-13)
        # the quantile and the threshold are derived, never set
        direct = DetectorConfig(alpha=0.01, df=2, phi=0.15)
        assert direct == cfg and direct.quantile == chi2_quantile(2, 0.01)
        assert direct.threshold == direct.quantile / 0.85
        with pytest.raises(TypeError):
            DetectorConfig(alpha=0.01, df=2, phi=0.15, quantile=9.21)
        for alpha, df in ((1.0, 2), (0.01, 0), (0.01, 2.5)):
            with pytest.raises(ValueError):
                DetectorConfig(alpha=alpha, df=df, phi=0.15)
        with pytest.raises(ValueError):
            DetectorConfig.from_parameters(0.01, 2, 1.5)
        with pytest.raises(ValueError):
            DetectorState(S=-1.0)


@pytest.fixture(scope="module")
def no_attack_stats():
    """Each filter's statistics at k > 100 over 20 runs without an attack,
    and the chi-square quantile they are compared with."""
    cfg = ScenarioConfig(attack="none")
    runs = monte_carlo(cfg, runs=20)
    stats = {name: np.concatenate([run.filters[name].stats[101:] for run in runs])
             for name in ("care", "ise")}
    return stats, DetectorConfig.from_parameters(cfg.alpha, 2, cfg.phi)


class TestFalseAlarms:
    # without an attack a calibrated statistic exceeds the 1 - alpha quantile
    # on about alpha of the steps; the band alpha/2 .. 2 alpha allows for the
    # correlation of a run's steps
    def test_ise_exceeds_the_quantile_at_about_alpha(self, no_attack_stats):
        stats, det = no_attack_stats
        share = np.mean(stats["ise"] > det.quantile)
        assert det.alpha / 2 <= share <= 2 * det.alpha

    @pytest.mark.xfail(strict=True, reason="ROADMAP.md item 9, still open: a clipped attack "
                                           "coordinate's floored variance inflates the "
                                           "statistic, about 12% of steps over the quantile")
    def test_care_exceeds_the_quantile_at_about_alpha(self, no_attack_stats):
        stats, det = no_attack_stats
        share = np.mean(stats["care"] > det.quantile)
        assert det.alpha / 2 <= share <= 2 * det.alpha


class TestFalseNegativeRate:
    def test_spec_examples(self):
        truth = [np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.zeros(2)]
        assert false_negative_rate([10.0, 5.0, 0.0], 9.21, truth) == pytest.approx(0.5)
        assert false_negative_rate([10.0, 11.0, 0.0], 9.21, truth) == 0.0
        assert false_negative_rate([1.0, 2.0, 0.0], 9.21, truth) == 1.0

    def test_undefined_without_attacked_steps(self):
        with pytest.raises(ValueError):
            false_negative_rate([1.0, 2.0], 9.21, [np.zeros(2), np.zeros(2)])

    def test_length_mismatch(self):
        # one row of truth per statistic: one 2-D attack step is one row, not
        # two scalar steps
        for stats, truth in (([1.0], [np.ones(2), np.ones(2)]), ([10.0, 1.0], [[3.5, 0.0]])):
            with pytest.raises(ValueError, match="must have equal length"):
                false_negative_rate(stats, 9.21, truth)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_statistics(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        stats = rng.uniform(0.0, 20.0, size=n)
        truth = rng.integers(0, 2, size=(n, 2)).astype(float)
        if not truth.any():
            truth[0, 0] = 1.0
        q = 9.21
        base = false_negative_rate(stats, q, truth)
        bumped = false_negative_rate(stats + rng.uniform(0.0, 5.0, size=n), q, truth)
        assert bumped <= base + 1e-12
