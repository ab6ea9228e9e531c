"""Estimator pipeline tests.

Expected values come from independent routes: hand-computed scalar chains,
a weighted least-squares oracle solved by QR (lstsq), a textbook Kalman
update, a vectorized Monte Carlo of the error propagation, and a 50-digit
mpmath evaluation of the filter equations. The implementation's own
formulas are never used to generate expectations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from care_filter.estimator import (
    AttackEstimate,
    AttackUnidentifiableError,
    EstimatorState,
    Prediction,
    _require_identifiable,
    care_step,
    estimate_attack,
    initial_state,
    measurement_update,
    predict,
    time_update,
)
from care_filter.model import ConstraintSet, SystemModel
from care_filter.projection import InfeasibleConstraintsError


def spd(rng, n, spread=1.0):
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return V @ np.diag(np.exp(spread * rng.uniform(-1, 1, n))) @ V.T


def random_setup(rng, m=3, n_d=1, n_y=3, n_u=1):
    """Model plus a consistent filter state; CG is kept well conditioned."""
    while True:
        A = 0.5 * rng.normal(size=(m, m))
        B = rng.normal(size=(m, n_u))
        G = rng.normal(size=(m, n_d))
        C = rng.normal(size=(n_y, m))
        s = np.linalg.svd(C @ G, compute_uv=False)
        if s[-1] > 0.3:
            break
    model = SystemModel.constant(A, B, C, G, spd(rng, m), spd(rng, n_y))
    state = EstimatorState(rng.normal(size=m), spd(rng, m), k=0)
    u = rng.normal(size=n_u)
    y = rng.normal(size=n_y)
    return model, state, u, y


def run_pipeline(model, state, u, y):
    pred = predict(state, model, u)
    atk = estimate_attack(pred, model, state.P_x, y)
    tu = time_update(pred, atk, model, state)
    upd = measurement_update(tu, atk, model, y)
    return pred, atk, tu, upd


SCALAR = SystemModel.constant(
    A=[[1.0]], B=[[0.0]], C=[[1.0]], G=[[1.0]], Q=[[0.0]], R=[[1.0]],
)


class TestPredict:
    def test_scalar_hand_values(self):
        model = SystemModel.constant([[2.0]], [[0.0]], [[1.0]], [[1.0]],
                                     [[0.5]], [[1.0]])
        state = EstimatorState(np.array([3.0]), np.array([[1.0]]), k=0)
        pred = predict(state, model, np.array([0.0]))
        assert pred.x_hat[0] == pytest.approx(6.0)
        assert pred.P_x[0, 0] == pytest.approx(4.5)
        assert pred.k == 1

    def test_matches_looped_oracle(self):
        rng = np.random.default_rng(11)
        model, state, u, _ = random_setup(rng, m=4, n_u=2)
        pred = predict(state, model, u)

        A, B, Q = model.A(0), model.B(0), model.Q(0)
        m = 4
        x_oracle = np.zeros(m)
        for i in range(m):
            x_oracle[i] = sum(A[i, j] * state.x_hat[j] for j in range(m))
            x_oracle[i] += sum(B[i, j] * u[j] for j in range(2))
        P_oracle = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                P_oracle[i, j] = Q[i, j] + sum(
                    A[i, a] * state.P_x[a, b] * A[j, b]
                    for a in range(m) for b in range(m)
                )
        np.testing.assert_allclose(pred.x_hat, x_oracle, atol=1e-12)
        np.testing.assert_allclose(pred.P_x, P_oracle, atol=1e-12)


class TestAttackEstimate:
    def test_matches_wls_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model, state, u, y = random_setup(rng, m=4, n_d=2, n_y=4)
            pred = predict(state, model, u)
            atk = estimate_attack(pred, model, state.P_x, y)

            C, G, R = model.C(1), model.G(0), model.R(1)
            S = C @ pred.P_x @ C.T + R
            w, V = np.linalg.eigh(np.linalg.inv(S))
            half = V @ np.diag(np.sqrt(w)) @ V.T  # sqrt of the weight
            design = half @ C @ G
            resid = half @ (y - C @ pred.x_hat)
            d_oracle = np.linalg.lstsq(design, resid, rcond=None)[0]
            cov_oracle = np.linalg.inv(design.T @ design)

            np.testing.assert_allclose(atk.d_hat, d_oracle, atol=1e-9)
            np.testing.assert_allclose(atk.P_d, cov_oracle, atol=1e-8)

    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model, _, _, _ = random_setup(rng, m=3, n_d=2, n_y=4)
            m = 3
            x_prev = rng.normal(size=m)
            d_true = rng.normal(size=2)
            u = np.array([0.4])
            state = EstimatorState(x_prev, np.zeros((m, m)), k=0)
            x_next = model.A(0) @ x_prev + model.B(0) @ u + model.G(0) @ d_true
            y = model.C(1) @ x_next
            pred = predict(state, model, u)
            atk = estimate_attack(pred, model, state.P_x, y)
            np.testing.assert_allclose(atk.d_hat, d_true, atol=1e-10)

    def test_gain_left_inverts_cg(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            model, state, u, y = random_setup(
                rng, m=4, n_d=int(rng.integers(1, 3)), n_y=4)
            pred = predict(state, model, u)
            atk = estimate_attack(pred, model, state.P_x, y)
            prod = atk.M @ model.C(1) @ model.G(0)
            np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-8)

    def test_unobservable_attack_raises(self):
        model = SystemModel.constant(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            G=np.zeros((2, 1)), Q=np.eye(2), R=np.eye(2),
        )
        state = initial_state(np.zeros(2))
        pred = predict(state, model, [0.0])
        with pytest.raises(AttackUnidentifiableError):
            estimate_attack(pred, model, state.P_x, np.zeros(2))

    def test_ill_conditioned_attack_raises(self):
        G = np.array([[1.0, 1.0], [0.0, 1e-9]])
        model = SystemModel.constant(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            G=G, Q=np.eye(2), R=np.eye(2),
        )
        state = initial_state(np.zeros(2), P0=np.eye(2))
        pred = predict(state, model, [0.0])
        with pytest.raises(AttackUnidentifiableError):
            estimate_attack(pred, model, state.P_x, np.zeros(2))

    def test_condition_number_at_the_limit_is_identifiable(self):
        # only a condition number above 1e12 is refused: at exactly 1e12 the
        # information passes, and one rounding step above it does not
        _require_identifiable(np.array([1.0]), np.array([1e12]), str)
        with pytest.raises(AttackUnidentifiableError, match="condition number exceeds 1e12"):
            _require_identifiable(np.array([1.0]), np.array([np.nextafter(1e12, np.inf)]), str)


class TestTimeUpdate:
    def test_scalar_chain_hand_values(self):
        state = EstimatorState(np.array([1.0]), np.array([[0.0]]), k=0)
        y = np.array([2.0])
        pred = predict(state, SCALAR, [0.0])
        atk = estimate_attack(pred, SCALAR, state.P_x, y)
        assert atk.d_hat[0] == pytest.approx(1.0)
        assert atk.P_d[0, 0] == pytest.approx(1.0)
        assert atk.M[0, 0] == pytest.approx(1.0)

        tu = time_update(pred, atk, SCALAR, state)
        assert tu.x_hat[0] == pytest.approx(2.0)
        assert tu.P_x[0, 0] == pytest.approx(1.0)
        assert tu.R_star[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_forced_zero_attack_decouples(self):
        rng = np.random.default_rng(5)
        model, state, u, y = random_setup(rng)
        pred = predict(state, model, u)
        n_d, n_y, m = 1, 3, 3
        atk = AttackEstimate(
            d_hat=np.zeros(n_d), P_d=np.zeros((n_d, n_d)),
            P_xd=np.zeros((m, n_d)), M=np.zeros((n_d, n_y)),
            R_tilde=np.eye(n_y), k=pred.k,
        )
        tu = time_update(pred, atk, model, state)
        np.testing.assert_allclose(tu.x_hat, pred.x_hat, atol=1e-14)
        expected = model.A(0) @ state.P_x @ model.A(0).T + model.Q(0)
        np.testing.assert_allclose(tu.P_x, expected, atol=1e-12)

    def test_covariance_matches_monte_carlo(self):
        rng = np.random.default_rng(2026)
        model, _, u, _ = random_setup(rng, m=3, n_d=1, n_y=2)
        m, n_d = 3, 1
        P_prev = spd(rng, m)
        state = EstimatorState(np.zeros(m), P_prev, k=0)
        d_true = np.array([0.7])

        A, B, C, G = model.A(0), model.B(0), model.C(1), model.G(0)
        Q, R = model.Q(0), model.R(1)
        pred_center = predict(state, model, u)
        atk_center = estimate_attack(pred_center, model, P_prev,
                                     np.zeros(2))
        M = atk_center.M

        n = 1_000_000
        Lp = np.linalg.cholesky(P_prev)
        Lq = np.linalg.cholesky(Q)
        Lr = np.linalg.cholesky(R)
        x_tilde = rng.standard_normal((n, m)) @ Lp.T
        w = rng.standard_normal((n, m)) @ Lq.T
        v = rng.standard_normal((n, 2)) @ Lr.T

        # the estimator's algebra applied to each sampled realization
        x_hat_prev = x_tilde  # truth at the origin
        x_true = (B @ u + G @ d_true) + w
        y = x_true @ C.T + v
        x_minus = x_hat_prev @ A.T + B @ u
        d_hat = (y - x_minus @ C.T) @ M.T
        x_star = x_minus + d_hat @ G.T

        err_d = d_hat - d_true
        err_x = x_star - x_true
        emp_Pd = err_d.T @ err_d / n - np.outer(err_d.mean(0), err_d.mean(0))
        emp_Px = err_x.T @ err_x / n - np.outer(err_x.mean(0), err_x.mean(0))

        tu = time_update(pred_center, atk_center, model, state)
        se_x = np.sqrt((np.outer(np.diag(tu.P_x), np.diag(tu.P_x))
                        + tu.P_x ** 2) / n)
        assert np.all(np.abs(emp_Px - tu.P_x) <= 3.0 * se_x)
        se_d = np.sqrt((np.outer(np.diag(atk_center.P_d), np.diag(atk_center.P_d))
                        + atk_center.P_d ** 2) / n)
        assert np.all(np.abs(emp_Pd - atk_center.P_d) <= 3.0 * se_d)
        # the attack estimate should also be unbiased
        assert np.all(np.abs(err_d.mean(0))
                      <= 4.0 * np.sqrt(np.diag(atk_center.P_d) / n))

    def test_step_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        model, state, u, y = random_setup(rng)
        pred = predict(state, model, u)
        atk = estimate_attack(pred, model, state.P_x, y)
        stale = EstimatorState(state.x_hat, state.P_x, k=5)
        with pytest.raises(ValueError):
            time_update(pred, atk, model, stale)


class TestMeasurementUpdate:
    def test_scalar_chain_gain_vanishes(self):
        state = EstimatorState(np.array([1.0]), np.array([[0.0]]), k=0)
        y = np.array([2.0])
        pred = predict(state, SCALAR, [0.0])
        atk = estimate_attack(pred, SCALAR, state.P_x, y)
        tu = time_update(pred, atk, SCALAR, state)
        upd = measurement_update(tu, atk, SCALAR, y)
        assert upd.L[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert upd.x_hat[0] == pytest.approx(2.0)
        assert upd.P_x[0, 0] == pytest.approx(1.0)

    def test_reduces_to_kalman_when_attack_ignored(self):
        rng = np.random.default_rng(21)
        model, state, u, y = random_setup(rng)
        pred = predict(state, model, u)
        m, n_d, n_y = 3, 1, 3
        atk = AttackEstimate(
            d_hat=np.zeros(n_d), P_d=np.zeros((n_d, n_d)),
            P_xd=np.zeros((m, n_d)), M=np.zeros((n_d, n_y)),
            R_tilde=np.eye(n_y), k=pred.k,
        )
        tu = time_update(pred, atk, model, state)
        upd = measurement_update(tu, atk, model, y)

        C, R = model.C(1), model.R(1)
        P = tu.P_x
        K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
        x_kalman = tu.x_hat + K @ (y - C @ tu.x_hat)
        J = np.eye(m) - K @ C
        P_kalman = J @ P @ J.T + K @ R @ K.T  # Joseph form

        np.testing.assert_allclose(upd.L, K, atol=1e-9)
        np.testing.assert_allclose(upd.x_hat, x_kalman, atol=1e-9)
        np.testing.assert_allclose(upd.P_x, P_kalman, atol=1e-9)

    def test_gain_minimizes_posterior_trace(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            model, state, u, y = random_setup(rng, m=3, n_d=1, n_y=3)
            pred, atk, tu, upd = run_pipeline(model, state, u, y)
            C, R = model.C(1), model.R(1)
            G = model.G(0)
            GMR = G @ atk.M @ R
            m = 3

            def trace_of(Lmat):
                ImLC = np.eye(m) - Lmat @ C
                t1 = ImLC @ GMR @ Lmat.T
                P = t1 + t1.T + ImLC @ tu.P_x @ ImLC.T + Lmat @ R @ Lmat.T
                return np.trace(P)

            base = trace_of(upd.L)
            assert base == pytest.approx(np.trace(upd.P_x), rel=1e-10)
            for i in range(m):
                for j in range(3):
                    for sign in (1.0, -1.0):
                        Lpert = upd.L.copy()
                        Lpert[i, j] += sign * 1e-4
                        assert trace_of(Lpert) >= base - 1e-10

    def test_step_mismatch_rejected(self):
        rng = np.random.default_rng(40)
        model, state, u, y = random_setup(rng)
        pred, atk, tu, _ = run_pipeline(model, state, u, y)
        stale = AttackEstimate(atk.d_hat, atk.P_d, atk.P_xd, atk.M,
                               atk.R_tilde, k=9)
        with pytest.raises(ValueError):
            measurement_update(tu, stale, model, y)


def random_ltv_setup(rng, cond=None):
    """A two-step LTV model with C != I, p >= m outputs per attack input,
    rank(C_1 G_0) = m with condition number at most 1e3, and
    non-diagonal SPD Q_k and R_k, plus a consistent filter state.

    With cond given, G_0 is rescaled along the right singular vectors of
    C_1 G_0 so that its singular values fall geometrically from the largest
    to the largest / cond."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n + 1))
    p = int(rng.integers(m, 6))
    while True:
        A, G = 0.5 * rng.normal(size=(2, n, n)), rng.normal(size=(2, n, m))
        C = rng.normal(size=(2, p, n))
        s = np.linalg.svd(C[1] @ G[0], compute_uv=False)
        if s[-1] > 0.0 and s[0] <= 1e3 * s[-1]:
            break
    if cond is not None:
        _, s, Vt = np.linalg.svd(C[1] @ G[0], full_matrices=False)
        target = s[0] * float(cond) ** -np.linspace(0.0, 1.0, m)
        G[0] = G[0] @ Vt.T @ np.diag(target / s) @ Vt
    B = rng.normal(size=(2, n, 1))
    Q = np.array([spd(rng, n) for _ in range(2)])
    R = np.array([spd(rng, p) for _ in range(2)])
    model = SystemModel(n, 1, m, p, lambda k: A[k], lambda k: B[k], lambda k: C[k],
                        lambda k: G[k], lambda k: Q[k], lambda k: R[k])
    state = EstimatorState(rng.normal(size=n), spd(rng, n), k=0)
    return model, state, rng.normal(size=1), rng.normal(size=p)


class TestClosedFormIdentities:
    """The identities behind the closed-form measurement updates (the gain
    L = H S~^{-1} of `measurement_update`, and x = y - R W nu, P = R - R W R
    of the batched kernel for C = I): with S = C P^- C' + R and
    R~ = S^{-1}, R* equals S - CG P_d G'C', R~ is a generalized inverse of
    R*, and H = P* C' - GMR equals P^- C' (I - CGM)', which vanishes on
    null(R*). So L R* = H, the stationarity condition of the posterior
    trace, and P = P* - L H' equals the Joseph form."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_identities_hold_on_random_ltv_systems(self, seed):
        model, state, u, y = random_ltv_setup(np.random.default_rng(seed))
        pred = predict(state, model, u)
        atk = estimate_attack(pred, model, state.P_x, y)
        tu = time_update(pred, atk, model, state)
        upd = measurement_update(tu, atk, model, y)
        C, G, R = model.C(1), model.G(0), model.R(1)
        S = C @ pred.P_x @ C.T + R
        CG = C @ G
        PC, GMR, CGM = pred.P_x @ C.T, G @ atk.M @ R, CG @ atk.M
        H, L = tu.P_x @ C.T - GMR, upd.L
        ImLC = np.eye(C.shape[1]) - L @ C
        t1 = ImLC @ GMR @ L.T
        joseph = t1 + t1.T + ImLC @ tu.P_x @ ImLC.T + L @ R @ L.T
        # gaps relative to the size of the terms, since either side may
        # vanish (R* = 0 and P^- C' (I - CGM)' = 0 when p = m)
        gaps = [
            (tu.R_star - (S - CG @ atk.P_d @ CG.T), np.abs(S).max()),
            (tu.R_star @ atk.R_tilde @ tu.R_star - tu.R_star,
             np.abs(S).max() ** 2 * np.abs(atk.R_tilde).max()),
            (tu.P_x @ C.T - GMR - PC @ (np.eye(C.shape[0]) - CGM).T,
             max(np.abs(tu.P_x @ C.T).max(), np.abs(GMR).max(),
                 np.abs(PC).max() * (1.0 + np.abs(CGM).max()))),
            (L @ tu.R_star - H, max(np.abs(tu.P_x @ C.T).max(), np.abs(GMR).max(),
                                    np.abs(L).max() * np.abs(S).max())),
            (upd.P_x - joseph,
             max(np.abs(tu.P_x).max() * (1.0 + np.abs(L @ C).max()) ** 2,
                 np.abs(GMR).max() * np.abs(L).max() * (1.0 + np.abs(L @ C).max()),
                 np.abs(R).max() * np.abs(L).max() ** 2)),
        ]
        for i, (gap, size) in enumerate(gaps):
            assert np.abs(gap).max() <= 1e-8 * size, i


def mp_unprojected_step(model, state, u, y):
    """One unprojected step in 50-digit arithmetic, rounded to floats.

    The filter equations in their textbook forms: the time update as the
    propagated error covariance (I - GMC) P^- (I - GMC)' + G M R M' G', the
    gain L = (P* C' - G M R) R*^+ through a 50-digit eigendecomposition of
    R* (eigenvalues below 1e-30 of the norm of C P^- C' + R, the size of
    the terms R* sums, dropped), and the Joseph-form posterior covariance. Returns the Prediction and AttackEstimate of the
    step and the posterior x_hat and P_x.
    """
    with mp.workdps(50):
        def mat(X):
            return mp.matrix(np.atleast_2d(X).tolist())

        def flt(X):
            return np.array(X.tolist(), dtype=float)

        A, B, Q = mat(model.A(0)), mat(model.B(0)), mat(model.Q(0))
        C, G, R = mat(model.C(1)), mat(model.G(0)), mat(model.R(1))
        x, P = mat(state.x_hat).T, mat(state.P_x)
        u, y = mat(u).T, mat(y).T
        eye = mp.eye(A.rows)
        x_m = A * x + B * u
        P_m = A * P * A.T + Q
        R_tilde = (C * P_m * C.T + R) ** -1
        CG = C * G
        P_d = (CG.T * R_tilde * CG) ** -1
        M = P_d * CG.T * R_tilde
        d = M * (y - C * x_m)
        x_s = x_m + G * d
        J = eye - G * M * C
        GMR = G * M * R
        P_s = J * P_m * J.T + GMR * M.T * G.T
        R_s = C * P_s * C.T - C * GMR - GMR.T * C.T + R
        w, V = mp.eigsy(R_s)
        cutoff = mp.mpf(10) ** -30 * mp.mnorm(C * P_m * C.T + R, 1)
        R_pinv = mp.zeros(R_s.rows)
        for i in range(R_s.rows):
            if abs(w[i]) > cutoff:
                R_pinv += V[:, i] * V[:, i].T / w[i]
        L = (P_s * C.T - GMR) * R_pinv
        x_u = x_s + L * (y - C * x_s)
        ImLC = eye - L * C
        t1 = ImLC * GMR * L.T
        P_u = t1 + t1.T + ImLC * P_s * ImLC.T + L * R * L.T
        pred = Prediction(flt(x_m).ravel(), flt(P_m), 1)
        atk = AttackEstimate(flt(d).ravel(), flt(P_d), flt(-P * A.T * C.T * M.T), flt(M),
                             flt(R_tilde), 1)
        return pred, atk, flt(x_u).ravel(), flt(P_u)


def ill_conditioned_draws(seed, count):
    """random_ltv_setup draws with cond(C_1 G_0) log-uniform in [30, 1e3]
    and at least two attack inputs."""
    rng = np.random.default_rng(seed)
    while count:
        draw = random_ltv_setup(rng, cond=10.0 ** rng.uniform(np.log10(30.0), 3.0))
        if draw[0].G(0).shape[1] >= 2:  # one attack input has cond(C_1 G_0) = 1
            count -= 1
            yield draw


def rel_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestAgainstHighPrecision:
    """The unprojected step against `mp_unprojected_step`. A Moore-Penrose
    gain of R* fails here: rounding leaves R*'s structural null eigenvalues
    near eps cond(C_1 G_0)^2, above any fixed cutoff once cond(C_1 G_0)
    nears 1e3, and inverting them put x_hat off by up to 1.5e-5."""

    def test_update_stages_from_50_digit_inputs(self):
        worst = 0.0
        for model, state, u, y in ill_conditioned_draws(20261018, 40):
            pred, atk, x_ref, P_ref = mp_unprojected_step(model, state, u, y)
            upd = measurement_update(time_update(pred, atk, model, state), atk, model, y)
            worst = max(worst, rel_gap(upd.x_hat, x_ref), rel_gap(upd.P_x, P_ref))
        assert worst <= 1e-9, worst

    def test_unprojected_step(self):
        # the attack estimate inverts G'C'R~CG, whose condition number is
        # about cond(C_1 G_0)^2; near cond 1e3 that leaves errors of about
        # 1e-9 in M and a few 1e-9 in x_hat. The bound leaves room for
        # that, not for the pseudoinverse's 1e-6
        worst = 0.0
        for model, state, u, y in ill_conditioned_draws(20261019, 40):
            out = care_step(state, model, None, u, y)
            _, _, x_ref, P_ref = mp_unprojected_step(model, state, u, y)
            worst = max(worst, rel_gap(out.state.x_hat, x_ref), rel_gap(out.state.P_x, P_ref))
        assert worst <= 1e-7, worst


class TestCareStep:
    def test_stages_take_a_stack_of_estimates(self):
        rng = np.random.default_rng(56)
        model, _, u, _ = random_setup(rng, m=4, n_d=2, n_y=4)
        X = rng.normal(size=(5, 4))
        P = np.array([spd(rng, 4) for _ in range(5)])
        Y = rng.normal(size=(5, 4))
        stack = run_pipeline(model, EstimatorState(X, P, k=0), u, Y)
        for i in range(5):
            rows = run_pipeline(model, EstimatorState(X[i], P[i], k=0), u, Y[i])
            for got, want in zip(stack, rows):
                for field in ("x_hat", "P_x", "d_hat", "P_d", "P_xd", "M", "R_star", "L"):
                    if hasattr(want, field):
                        np.testing.assert_allclose(getattr(got, field)[i], getattr(want, field),
                                                   rtol=1e-12, atol=1e-12, err_msg=field)

    def test_attack_stage_is_batch_exact(self):
        # with a general C, row 0 of a stack of three gets the attack
        # estimate and the gain it gets alone, bit for bit
        rng = np.random.default_rng(57)
        for draw in range(100):
            model, _, _, _ = random_setup(rng, m=4, n_d=2, n_y=4)
            X = rng.normal(size=(3, 4))
            P = np.array([spd(rng, 4) for _ in range(3)])
            Y = rng.normal(size=(3, 4))
            atk = estimate_attack(Prediction(X, P, k=1), model, P, Y)
            alone = estimate_attack(Prediction(X[:1], P[:1], k=1), model, P[:1], Y[:1])
            assert np.array_equal(atk.d_hat[0], alone.d_hat[0]), draw
            assert np.array_equal(atk.M[0], alone.M[0]), draw

    def test_composes_the_stages(self):
        rng = np.random.default_rng(55)
        model, state, u, y = random_setup(rng)
        cons = ConstraintSet.unconstrained(attack_dim=1, state_dim=3)
        out = care_step(state, model, cons, u, y)
        pred, atk, tu, upd = run_pipeline(model, state, u, y)
        np.testing.assert_array_equal(out.prediction.x_hat, pred.x_hat)
        np.testing.assert_array_equal(out.attack.d_hat, atk.d_hat)
        np.testing.assert_array_equal(out.time_updated.P_x, tu.P_x)
        np.testing.assert_array_equal(out.update.x_hat, upd.x_hat)
        assert out.state.k == 1

    def test_no_constraints_leaves_estimates_unchanged(self):
        rng = np.random.default_rng(60)
        model, state, u, y = random_setup(rng)
        cons = ConstraintSet.unconstrained(attack_dim=1, state_dim=3)
        out = care_step(state, model, cons, u, y)
        np.testing.assert_array_equal(out.d_hat, out.attack.d_hat)
        np.testing.assert_array_equal(out.state.x_hat, out.update.x_hat)
        assert out.input_projection.active_set == ()
        assert out.state_projection.active_set == ()

    def test_baseline_flag_skips_projection(self):
        rng = np.random.default_rng(61)
        model, state, u, y = random_setup(rng)
        cons = ConstraintSet.constant(
            input_matrix=[[1.0]], input_bound=[-10.0],  # forces a big clip
            state_matrix=None, state_dim=3,
        )
        assert care_step(state, model, cons, u, y).input_projection.active_set
        # constraints=None is the unconstrained baseline: no projection at all
        out = care_step(state, model, None, u, y)
        assert out.input_projection is None
        assert out.state_projection is None
        np.testing.assert_array_equal(out.d_hat, out.attack.d_hat)
        np.testing.assert_array_equal(out.state.x_hat, out.update.x_hat)

    def test_active_constraints_clip_and_shrink(self):
        rng = np.random.default_rng(62)
        model, state, u, y = random_setup(rng)
        # pin the attack estimate well below its unconstrained value
        pred, atk, _, upd = run_pipeline(model, state, u, y)
        bound = atk.d_hat[0] - 1.0
        cons = ConstraintSet.constant(
            input_matrix=[[1.0]], input_bound=[bound],
            state_matrix=[[1.0, 0.0, 0.0]], state_bound=[upd.x_hat[0] - 0.5],
        )
        out = care_step(state, model, cons, u, y)
        assert out.input_projection.active_set == (0,)
        assert out.d_hat[0] <= bound + 1e-8
        assert np.trace(out.P_d) < np.trace(out.attack.P_d)
        assert out.state_projection.active_set == (0,)
        assert out.state.x_hat[0] <= upd.x_hat[0] - 0.5 + 1e-8
        assert np.trace(out.state.P_x) < np.trace(out.update.P_x)

    def test_non_finite_measurement_is_named(self):
        rng = np.random.default_rng(63)
        model, state, u, y = random_setup(rng)
        cons = ConstraintSet.unconstrained(attack_dim=1, state_dim=3)
        state = EstimatorState(state.x_hat, state.P_x, k=6)
        for bad in (np.nan, np.inf):
            y_bad = y.copy()
            y_bad[1] = bad
            with pytest.raises(ValueError, match="non-finite measurement y at k=7"):
                care_step(state, model, cons, u, y_bad)

    def test_non_finite_state_is_named(self):
        model = SystemModel.constant(np.eye(2), np.zeros((2, 1)), np.eye(2),
                                     [[1.0], [0.5]], np.eye(2), np.eye(2))
        cons = ConstraintSet.unconstrained(attack_dim=1, state_dim=2)
        with pytest.raises(ValueError, match="non-finite state estimate x_hat at k=0"):
            care_step(initial_state([np.nan, 0.0]), model, cons, [0.0], [0.0, 0.0])
        P = np.eye(2)
        P[1, 0] = np.nan
        state = EstimatorState(np.zeros(2), P, k=4)
        with pytest.raises(ValueError, match="non-finite state covariance P_x at k=4"):
            care_step(state, model, None, [0.0], [0.0, 0.0])
        # the stage itself names the step of a non-finite information matrix
        pred = Prediction(np.zeros(2), P, k=5)
        with pytest.raises(ValueError, match="non-finite attack information G'C'R~CG at k=5"):
            estimate_attack(pred, model, np.eye(2), [0.0, 0.0])

    def test_projection_errors_name_the_step(self):
        # x_0 <= -1 and x_0 >= 1 is empty; a ConstraintSet built directly
        # skips the emptiness probe of ConstraintSet.constant
        rng = np.random.default_rng(64)
        model, state, u, y = random_setup(rng)
        Bx = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        cons = ConstraintSet(lambda k: np.zeros((0, 1)), lambda k: np.zeros(0),
                             lambda k: Bx, lambda k: -np.ones(2))
        state = EstimatorState(state.x_hat, state.P_x, k=2)
        with pytest.raises(InfeasibleConstraintsError, match="at k=3, state estimate$"):
            care_step(state, model, cons, u, y)

    def test_covariances_symmetric_and_near_psd(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            model, state, u, y = random_setup(rng, m=4, n_d=2, n_y=4)
            cons = ConstraintSet.unconstrained(attack_dim=2, state_dim=4)
            out = care_step(state, model, cons, u, y)
            for P in (out.prediction.P_x, out.attack.P_d, out.time_updated.P_x,
                      out.update.P_x, out.P_d, out.state.P_x):
                np.testing.assert_array_equal(P, P.T)
                floor = -1e-8 * (1.0 + abs(np.trace(P)))
                assert np.linalg.eigvalsh(P)[0] >= floor


def test_initial_state_defaults():
    st = initial_state([1.0, 2.0])
    np.testing.assert_array_equal(st.P_x, 10.0 * np.eye(2))
    assert st.k == 0
