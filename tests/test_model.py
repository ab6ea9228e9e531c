"""System description and validation tests."""

from dataclasses import replace

import numpy as np
import pytest

from care_filter import projection
from care_filter.model import (
    ConstraintSet,
    NoiseSpec,
    SystemModel,
    ValidationReport,
    _draw_noise,
    validate,
)
from care_filter.projection import ActiveSetLimitError, InfeasibleConstraintsError


def identity_model(m=2, n_d=1):
    return SystemModel.constant(
        A=np.eye(m),
        B=np.zeros((m, 1)),
        C=np.eye(m),
        G=np.eye(m)[:, :n_d],
        Q=np.eye(m),
        R=np.eye(m),
    )


class TestValidate:
    def test_identity_system_passes(self):
        model = identity_model()
        cons = ConstraintSet.unconstrained(attack_dim=1, state_dim=2)
        rep = validate(model, cons, horizon=20)
        assert rep.ok
        assert rep.issues == []
        assert str(rep) == "all checks passed"

    def test_zero_measurement_noise_is_flagged(self):
        model = identity_model()
        model = SystemModel.constant(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            G=np.eye(2)[:, :1], Q=np.eye(2), R=np.zeros((2, 2)),
        )
        rep = validate(model, ConstraintSet.unconstrained(1, 2), horizon=3)
        assert not rep.ok
        assert any("R" in msg and "not positive definite" in msg for msg in rep.issues)

    def test_full_rank_state_constraints_flagged(self):
        model = identity_model()
        cons = ConstraintSet.constant(
            state_matrix=np.eye(2), state_bound=np.ones(2), attack_dim=1,
        )
        rep = validate(model, cons, horizon=2)
        assert any("rank" in msg for msg in rep.issues)

    def test_indefinite_q_flagged_with_step(self):
        def Q(k):
            return np.diag([1.0, -1.0]) if k == 3 else np.eye(2)

        base = identity_model()
        model = SystemModel(2, 1, 1, 2, base.A, base.B, base.C, base.G, Q, base.R)
        rep = validate(model, ConstraintSet.unconstrained(1, 2), horizon=5)
        assert any("Q(3)" in msg for msg in rep.issues)

    def test_rank_deficient_cg_flagged(self):
        model = SystemModel.constant(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            G=np.zeros((2, 1)), Q=np.eye(2), R=np.eye(2),
        )
        rep = validate(model, ConstraintSet.unconstrained(1, 2), horizon=2)
        assert any("attack dimension" in msg for msg in rep.issues)

    def test_nondeterministic_provider_flagged(self):
        calls = iter(range(10**6))

        def A(k):
            return np.eye(2) * (1.0 + 1e-9 * next(calls))

        base = identity_model()
        model = SystemModel(2, 1, 1, 2, A, base.B, base.C, base.G, base.Q, base.R)
        rep = validate(model, ConstraintSet.unconstrained(1, 2), horizon=2)
        assert any("deterministic" in msg for msg in rep.issues)

    def test_shape_mismatch_flagged(self):
        base = identity_model()
        model = SystemModel(2, 1, 1, 2, base.A, lambda k: np.zeros((3, 1)),
                            base.C, base.G, base.Q, base.R)
        rep = validate(model, ConstraintSet.unconstrained(1, 2), horizon=1)
        assert any("B(0)" in msg and "shape" in msg for msg in rep.issues)

    def test_empty_feasible_set_flagged(self):
        cons = ConstraintSet(
            input_matrix=lambda k: np.array([[1.0], [-1.0]]),
            input_bound=lambda k: np.array([-1.0, -1.0]),
            state_matrix=lambda k: np.zeros((0, 2)),
            state_bound=lambda k: np.zeros(0),
        )
        rep = validate(identity_model(), cons, horizon=1)
        assert any("empty" in msg for msg in rep.issues)

    def test_non_finite_constraint_data_flagged_with_step(self):
        cons = ConstraintSet(
            input_matrix=lambda k: np.array([[1.0], [-1.0]]),
            input_bound=lambda k: np.array([1.0, np.inf if k == 2 else 1.0]),
            state_matrix=lambda k: np.array([[np.nan if k == 3 else 1.0, 0.0]]),
            state_bound=lambda k: np.array([np.nan if k == 1 else 5.0]),
        )
        rep = validate(identity_model(), cons, horizon=3)
        assert rep.issues == [
            "state constraints at k=1: constraint bound must be finite",
            "input constraints at k=2: constraint bound must be finite",
            "state constraints at k=3: constraint matrix must be finite",
        ]

    @pytest.mark.parametrize("name, bad", [
        ("A", np.array([[np.nan, 0.0], [0.0, 1.0]])),
        ("R", np.diag([1.0, np.nan])),
        ("Q", np.diag([1.0, np.inf])),
        ("C", np.array([[np.nan, 0.0], [0.0, 1.0]])),
    ])
    def test_non_finite_model_matrix_flagged_with_step(self, name, bad):
        # NaN != NaN once read as a nondeterministic provider, an infinite
        # Q passed every check, and a NaN C crashed the rank check
        base = identity_model()
        fields = {field: getattr(base, field) for field in "ABCGQR"}
        good = fields[name]
        fields[name] = lambda k: bad if k == 1 else good(k)
        model = SystemModel(2, 1, 1, 2, **fields)
        rep = validate(model, ConstraintSet.unconstrained(1, 2), horizon=2)
        assert rep.issues == [f"{name}(1) has non-finite entries"]

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            validate(identity_model(), ConstraintSet.unconstrained(1, 2), horizon=0)


class TestConstraintSet:
    def test_constant_probes_feasibility(self):
        with pytest.raises(InfeasibleConstraintsError):
            ConstraintSet.constant(
                input_matrix=[[1.0], [-1.0]], input_bound=[-2.0, -2.0], state_dim=2,
            )

    def test_empty_set_message_names_the_set(self, monkeypatch):
        # the probe's own point and metric stay out of the message
        with pytest.raises(InfeasibleConstraintsError,
                           match="^state constraint set is empty: no point meets all of its rows$"):
            ConstraintSet.constant(attack_dim=1, state_matrix=[[1.0, 0.0], [-1.0, 0.0]],
                                   state_bound=[-1.0, -1.0])

        def capped(*args):
            raise ActiveSetLimitError("active-set projection exceeded its iteration cap")

        monkeypatch.setattr(projection, "_project_core", capped)
        with pytest.raises(InfeasibleConstraintsError, match="^input constraint set looks empty: "
                                                             "the projection onto it did not converge$"):
            ConstraintSet.constant(input_matrix=[[1.0], [-1.0]], input_bound=[-2.0, -2.0],
                                   state_dim=2)

    def test_unconstrained_has_zero_rows(self):
        cons = ConstraintSet.unconstrained(attack_dim=2, state_dim=4)
        assert cons.input_matrix(0).shape == (0, 2)
        assert cons.state_matrix(7).shape == (0, 4)
        assert cons.input_bound(0).size == 0

    def test_constant_round_trip(self):
        cons = ConstraintSet.constant(
            input_matrix=[[1.0, 0.0], [-1.0, 0.0]], input_bound=[1.0, 1.0],
            state_matrix=[[0.0, 1.0]], state_bound=[5.0],
        )
        np.testing.assert_array_equal(cons.input_matrix(3), [[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(cons.state_bound(11), [5.0])


class TestNoiseSpec:
    def test_bit_reproducible(self):
        model = identity_model()
        W1, V1 = NoiseSpec(seed=123, run_index=4).sample(model, 50)
        W2, V2 = NoiseSpec(seed=123, run_index=4).sample(model, 50)
        assert np.array_equal(W1, W2)
        assert np.array_equal(V1, V2)

    def test_run_index_changes_draws(self):
        model = identity_model()
        W1, _ = NoiseSpec(seed=123, run_index=0).sample(model, 50)
        W2, _ = NoiseSpec(seed=123, run_index=1).sample(model, 50)
        assert not np.allclose(W1, W2)

    @pytest.mark.parametrize("field, bad", [("seed", -1), ("seed", 1.5), ("seed", True),
                                            ("run_index", -1), ("run_index", 1.5),
                                            ("run_index", "0")])
    def test_bad_seed_or_run_index_is_named(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a nonnegative integer"):
            NoiseSpec(**{"seed": 3, field: bad})

    def test_numpy_integers_are_accepted(self):
        W1, _ = NoiseSpec(seed=np.uint32(3), run_index=np.int64(2)).sample(identity_model(), 5)
        W2, _ = NoiseSpec(seed=3, run_index=2).sample(identity_model(), 5)
        assert np.array_equal(W1, W2)

    def test_prefix_stability(self):
        model = identity_model()
        W_long, V_long = NoiseSpec(seed=7).sample(model, 80)
        W_short, V_short = NoiseSpec(seed=7).sample(model, 30)
        assert np.array_equal(W_long[:30], W_short)
        assert np.array_equal(V_long[:31], V_short)
        # non-diagonal constant covariances, one factor for every step, on
        # horizons far apart
        rng = np.random.default_rng(5)
        M, N = rng.standard_normal((2, 4, 4))
        model = replace(identity_model(4), Q=lambda k, Q=M @ M.T + np.eye(4): Q,
                        R=lambda k, R=N @ N.T + np.eye(4): R)
        W_long, V_long = NoiseSpec(seed=11).sample(model, 3000)
        for h in (1, 2, 30):
            W, V = NoiseSpec(seed=11).sample(model, h)
            assert np.array_equal(W_long[:h], W), h
            assert np.array_equal(V_long[:h + 1], V), h

    def test_first_measurement_row_zero(self):
        _, V = NoiseSpec(seed=9).sample(identity_model(), 10)
        assert np.array_equal(V[0], np.zeros(2))

    def test_covariance_matches_spec(self):
        q = np.diag([4.0, 0.25])
        model = SystemModel.constant(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            G=np.eye(2)[:, :1], Q=q, R=np.eye(2),
        )
        W, _ = NoiseSpec(seed=31).sample(model, 20000)
        emp = W.T @ W / W.shape[0]
        assert np.allclose(emp, q, atol=0.15)

    def test_singular_q_uses_clamped_factor(self):
        q = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        model = SystemModel.constant(
            A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2),
            G=np.eye(2)[:, :1], Q=q, R=np.eye(2),
        )
        W, _ = NoiseSpec(seed=5).sample(model, 4000)
        assert np.allclose(W[:, 0], W[:, 1], atol=1e-10)
        assert np.isfinite(W).all()

    def test_time_varying_q_matches_a_per_step_draw(self):
        # Q(k) switches every three steps between two non-diagonal
        # matrices; W[k] is the Cholesky factor of Q(k), V[k+1] that of
        # R(k+1), applied to step k's draw
        Qs = (np.array([[4.0, 1.0], [1.0, 0.5]]), np.array([[0.25, -0.1], [-0.1, 2.0]]))
        model = replace(identity_model(), Q=lambda k: Qs[k // 3 % 2],
                        R=lambda k: (1.0 + 0.1 * k) * np.eye(2))
        spec = NoiseSpec(seed=41, run_index=2)
        W, V = spec.sample(model, 30)
        z = spec.generator().standard_normal((30, 4))
        for k in range(30):
            np.testing.assert_allclose(W[k], np.linalg.cholesky(model.Q(k)) @ z[k, :2],
                                       rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(V[k + 1], np.linalg.cholesky(model.R(k + 1)) @ z[k, 2:],
                                       rtol=1e-13, atol=1e-15)

    def test_constant_diagonal_q_scales_the_draw_exactly(self):
        q, r = np.array([4.0, 0.25]), np.array([0.5, 9.0])
        model = replace(identity_model(), Q=lambda k, Q=np.diag(q): Q,
                        R=lambda k, R=np.diag(r): R)
        spec = NoiseSpec(seed=17, run_index=3)
        W, V = spec.sample(model, 40)
        z = spec.generator().standard_normal((40, 4))
        assert np.array_equal(W, np.sqrt(q) * z[:, :2])
        assert np.array_equal(V[1:], np.sqrt(r) * z[:, 2:])

    def test_constant_non_diagonal_q_matches_a_per_step_draw(self):
        Q = np.array([[4.0, 1.0], [1.0, 0.5]])
        model = replace(identity_model(), Q=lambda k: Q)
        spec = NoiseSpec(seed=43)
        W, _ = spec.sample(model, 30)
        z = spec.generator().standard_normal((30, 4))
        L = np.linalg.cholesky(Q)
        for k in range(30):
            np.testing.assert_allclose(W[k], L @ z[k, :2], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_chunks_are_the_stream_of_sample(self, diagonal):
        # a constant diagonal Q and R are applied as their diagonals, full
        # ones as products; either way each chunk the kernel draws is its
        # piece of sample's stream, and equals the products L z
        rng = np.random.default_rng(7)
        M, N = rng.standard_normal((2, 4, 4))
        Q, R = (np.diag([0.3, 2.0, 0.7, 1.1]), np.diag([1.5, 0.2, 0.9, 4.0])) if diagonal \
            else (M @ M.T + np.eye(4), N @ N.T + np.eye(4))
        model = replace(identity_model(4), Q=lambda k: Q, R=lambda k: R)
        spec = NoiseSpec(seed=53, run_index=2)
        W, V = spec.sample(model, 40)
        gen = spec.generator()
        Lq, Lr = np.linalg.cholesky(Q), np.linalg.cholesky(R)
        for k0, c in ((0, 9), (9, 25), (34, 6)):
            z = np.empty((1, c, 8, 1))
            Wc, Vc = _draw_noise([gen], model, k0, z)
            assert np.array_equal(Wc[0], W[k0:k0 + c]), k0
            assert np.array_equal(Vc[0], V[k0 + 1:k0 + c + 1]), k0
            assert np.array_equal(Wc, (Lq @ z[:, :, :4])[..., 0]), k0
            assert np.array_equal(Vc, (Lr @ z[:, :, 4:])[..., 0]), k0

    def test_fresh_equal_arrays_draw_what_one_array_draws(self):
        # a provider that builds a new array at every k is factored per step,
        # one that returns the same object once; the draws agree
        Q = np.array([[4.0, 1.0], [1.0, 0.5]])
        R = np.array([[2.0, -0.3], [-0.3, 1.0]])
        shared = replace(identity_model(), Q=lambda k: Q, R=lambda k: R)
        fresh = replace(identity_model(), Q=lambda k: Q.copy(), R=lambda k: R.copy())
        W1, V1 = NoiseSpec(seed=47, run_index=1).sample(shared, 25)
        W2, V2 = NoiseSpec(seed=47, run_index=1).sample(fresh, 25)
        np.testing.assert_allclose(W1, W2, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(V1, V2, rtol=1e-13, atol=1e-15)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            NoiseSpec(seed=1).sample(identity_model(), 0)

    def test_wrong_shape_named(self):
        model = replace(identity_model(), Q=lambda k: np.eye(3))
        with pytest.raises(ValueError, match=r"Q\(0\) has shape \(3, 3\), expected \(2, 2\)"):
            NoiseSpec(seed=1).sample(model, 5)

    @pytest.mark.parametrize("name, bad", [("Q", np.nan), ("R", np.inf)])
    def test_non_finite_covariance_named_with_its_step(self, name, bad):
        # the bad matrix appears from k = 3 on, after a good one
        good = np.eye(2)
        worse = np.array([[1.0, 0.0], [0.0, bad]])
        model = replace(identity_model(), **{name: lambda k: worse if k >= 3 else good})
        with pytest.raises(ValueError, match=rf"{name}\(3\) has non-finite entries"):
            NoiseSpec(seed=1).sample(model, 6)


def test_report_str_lists_issues():
    rep = ValidationReport()
    rep.add("first problem")
    rep.add("second problem")
    assert "first problem" in str(rep)
    assert not rep.ok
