"""Projection tests: active-set search against the brute-force KKT oracle,
plus the algebraic identities the constrained update relies on."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from care_filter import projection
from care_filter.projection import (
    ActiveSetLimitError,
    InfeasibleConstraintsError,
    ProjectionResult,
    _project_core,
    _sym_inv,
    project,
    project_attack,
    project_state,
)

from conftest import feasible_sample, objective, random_projection_instance
from oracles import qp_oracle, range_qp_oracle


class _Duck:
    """Minimal stand-in for estimator outputs (d_hat/P_d or x_hat/P_x)."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _search(e, P, A, b):
    """The active-set search alone, under the tolerance `project_state`
    gives it, and a plain solve on the face of the rows it returns:
    (estimate, covariance, active rows)."""
    dist = np.abs(b) / np.linalg.norm(A, axis=1)
    tol = projection._FEAS_REL * (1.0 + np.linalg.norm(e) + dist.max())
    act = _project_core(e, P, A, b, tol)
    Aw = A[act]
    G = P @ Aw.T @ np.linalg.inv(Aw @ P @ Aw.T)
    shrink = np.eye(e.size) - G @ Aw
    return e - G @ (Aw @ e - b[act]), shrink @ P @ shrink.T, act


class TestOracleEquivalence:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(12345)
        for trial in range(60):
            e, W, A, b, _ = random_projection_instance(rng)
            res = project(e, W, A, b)
            ref = qp_oracle(e, W, A, b)
            scale = 1.0 + float(np.linalg.norm(ref))
            assert np.max(np.abs(res.estimate - ref)) <= 1e-8 * scale, trial
            obj_gap = abs(objective(res.estimate, e, W) - objective(ref, e, W))
            assert obj_gap <= 1e-8 * (1.0 + objective(ref, e, W)), trial

    def test_oracle_against_cvxpy(self):
        # one-off cross-validation of the oracle itself through a third route
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(20):
            e, W, A, b, _ = random_projection_instance(rng)
            if A.shape[0] == 0:
                continue
            ref = qp_oracle(e, W, A, b)
            z = cp.Variable(e.size)
            constraints = [A @ z <= b]
            prob = cp.Problem(cp.Minimize(cp.quad_form(z - e, cp.psd_wrap(W))), constraints)
            prob.solve()
            assert prob.status in ("optimal", "optimal_inaccurate")
            gap = abs(objective(ref, e, W) - objective(z.value, e, W))
            assert gap <= 1e-5 * (1.0 + objective(ref, e, W))
            checked += 1
        assert checked >= 10

    def test_oracle_against_scipy(self):
        # the instances of the cvxpy cross-check through scipy's SLSQP, so
        # the oracle keeps an independent check where cvxpy is absent
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(20):
            e, W, A, b, z0 = random_projection_instance(rng)
            if A.shape[0] == 0:
                continue
            ref = qp_oracle(e, W, A, b)
            sol = optimize.minimize(
                lambda z: objective(z, e, W), z0, jac=lambda z: 2.0 * W @ (z - e),
                method="SLSQP",
                constraints=[{"type": "ineq", "fun": lambda z: b - A @ z,
                              "jac": lambda z: -A}],
                options={"ftol": 1e-12, "maxiter": 500})
            assert sol.success, sol.message
            assert np.max(A @ sol.x - b) <= 1e-8 * (1.0 + np.max(np.abs(b)))
            gap = abs(objective(ref, e, W) - objective(sol.x, e, W))
            assert gap <= 1e-8 * (1.0 + objective(ref, e, W))
            checked += 1
        assert checked >= 10

    def test_oracle_accepts_a_far_optimum(self):
        # x + y >= 1 and x + (1 - 2e-4) y <= 0 meet only from y = 5e3 on, so
        # the optimum (-4999, 5000) lies about 7e3 from e; the KKT solve's
        # rounding there leaves A z - b near 5e-9, which a bound-only
        # tolerance of 1e-9 (1 + max|b|) called infeasible
        A = np.array([[-1.0, -1.0], [1.0, 1.0 - 2e-4]])
        b = np.array([-1.0, 0.0])
        ref = qp_oracle(np.zeros(2), np.eye(2), A, b)
        np.testing.assert_allclose(ref, [-4999.0, 5000.0], rtol=1e-8)
        res = project(np.zeros(2), np.eye(2), A, b)
        assert res.active_set == (0, 1)
        assert np.abs(res.estimate - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())

    def test_nearly_parallel_rows_keep_their_exact_vertex(self):
        # both rows are active at the optimum (1 - 1/eps, 1/eps), where the
        # gain has entries near 1/eps and A_bar P A_bar' a condition number
        # near 16/eps^2: one refinement step brings the face solve back
        # onto the vertex, and no covariance check rejects it
        for eps in (1e-3, 1.2e-4, 1e-4, 9e-5, 5e-5, 2e-5, 1e-5, 6e-6, 5e-6):
            A = np.array([[-1.0, -1.0], [1.0, 1.0 - eps]])
            b = np.array([-1.0, 0.0])
            res = project(np.zeros(2), np.eye(2), A, b)
            assert res.active_set == (0, 1), eps
            np.testing.assert_allclose(res.estimate, [1.0 - 1.0 / eps, 1.0 / eps], rtol=1e-10)
            assert np.abs(res.covariance).max() <= 1e-10, eps
        ref = qp_oracle(np.zeros(2), np.eye(2), A, b)
        assert np.abs(res.estimate - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())

    def test_nearly_dependent_rows_give_the_vertex_or_a_named_error(self):
        # past eps = 5e-6 the vertex face's condition number passes the face
        # solve's limit; row 1 must then count as dependent on row 0, or the
        # search steps onto a face that fails its KKT test
        for eps in (4e-6, 3e-6, 1e-6, 1e-7):
            A = np.array([[-1.0, -1.0], [1.0, 1.0 - eps]])
            b = np.array([-1.0, 0.0])
            try:
                res = project(np.zeros(2), np.eye(2), A, b)
            except InfeasibleConstraintsError:
                continue
            np.testing.assert_allclose(res.estimate, [1.0 - 1.0 / eps, 1.0 / eps], rtol=1e-8)

    def test_oracle_is_accurate_at_large_multipliers(self):
        # multipliers near 1e8: a plain least-squares KKT solve lands 1.5e-8
        # relative from the vertex (1 - 1/eps, 1/eps), one refinement step
        # about 1e-13
        eps = 1.4e-4
        A = np.array([[-1.0, -1.0], [1.0, 1.0 - eps]])
        b = np.array([-1.0, 0.0])
        ref = qp_oracle(np.zeros(2), np.eye(2), A, b)
        exact = np.array([1.0 - 1.0 / eps, 1.0 / eps])
        assert np.abs(ref - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_oracle_judges_a_row_at_any_scale(self):
        # 1e-11 x <= 1e-11 is x <= 1; (3, 0) misses it by 2e-11 in a z - b,
        # below a tolerance on a z - b itself, but by 2 per unit row norm
        for s in (1e-11, 1.0, 1e8):
            ref = qp_oracle([3.0, 0.0], np.eye(2), [[s, 0.0]], [s])
            np.testing.assert_allclose(ref, [1.0, 0.0], atol=1e-12)

    def test_oracle_row_limit(self):
        with pytest.raises(ValueError):
            qp_oracle(np.zeros(2), np.eye(2), np.zeros((21, 2)), np.ones(21))


class TestBasicBehaviour:
    def test_no_constraints_passthrough(self):
        e = np.array([1.0, -2.0])
        res = project(e, np.eye(2), np.zeros((0, 2)), np.zeros(0))
        assert np.array_equal(res.estimate, e)
        assert res.active_set == ()
        assert res.multipliers.size == 0
        assert res.gain.shape == (2, 0)
        np.testing.assert_allclose(res.covariance, np.eye(2))

    def test_feasible_input_untouched(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([5.0, 5.0])
        res = project(np.array([1.0, 2.0]), np.eye(2), A, b)
        assert res.active_set == ()
        np.testing.assert_array_equal(res.estimate, [1.0, 2.0])

    def test_box_clip_with_diagonal_weight(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([20.0, 0.0, 5.0, 0.0])
        res = project(np.array([25.0, -3.0]), np.diag([2.0, 0.5]), A, b)
        np.testing.assert_allclose(res.estimate, [20.0, 0.0], atol=1e-12)
        assert res.active_set == (0, 3)
        assert np.all(res.multipliers > 0)
        # both coordinates pinned: no remaining variance anywhere
        np.testing.assert_allclose(res.covariance, np.zeros((2, 2)), atol=1e-12)

    def test_row_scale_does_not_change_the_projection(self):
        # 1e-11 x <= 1e-11 and 1e8 x <= 1e8 are x <= 1: rows far from unit
        # norm, whose raw violation a z - b is far below or above the
        # distance beyond the hyperplane that the tolerance bounds
        for s in (1e-11, 1e8):
            res = project([3.0, 0.0], np.eye(2), [[s, 0.0]], [s])
            np.testing.assert_allclose(res.estimate, [1.0, 0.0], atol=1e-12)
            assert res.active_set == (0,)
        # random sets with each row scaled by 1e-11 or 1e8, the oracle on the
        # same scaled sets
        rng = np.random.default_rng(2718)
        for trial in range(60):
            e, W, A, b, _ = random_projection_instance(rng)
            norms = np.linalg.norm(A, axis=1)
            scale = rng.choice([1e-11, 1e8], size=len(b)) / norms
            A, b = scale[:, None] * A, scale * b
            ref = qp_oracle(e, W, A, b)
            res = project(e, W, A, b)
            assert np.abs(res.estimate - ref).max(initial=0.0) <= 1e-8 * (1.0 + np.linalg.norm(ref)), trial

    def test_weight_must_be_spd(self):
        with pytest.raises(ValueError):
            project(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((0, 2)), np.zeros(0))

    def test_zero_row_handling(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = project(np.array([3.0, 0.0]), np.eye(2), A, np.array([1.0, 1.0]))
        np.testing.assert_allclose(res.estimate, [1.0, 0.0])
        assert res.active_set == (1,)
        with pytest.raises(InfeasibleConstraintsError):
            project(np.zeros(2), np.eye(2), np.array([[0.0, 0.0]]), np.array([-1.0]))


class TestFailureModes:
    def test_antiparallel_certificate(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-1.0, -2.0])  # x <= -1 and x >= 2
        with pytest.raises(InfeasibleConstraintsError):
            project(np.array([0.0]), np.eye(1), A, b)

    def test_empty_wedge_detected_through_dual_step(self):
        # three outward normals 120 degrees apart: empty intersection with
        # no antiparallel pair, caught when the dual step comes back unbounded
        s = np.sqrt(3.0) / 2.0
        A = np.array([[1.0, 0.0], [-0.5, s], [-0.5, -s]])
        b = -np.ones(3)
        with pytest.raises(InfeasibleConstraintsError):
            project(np.zeros(2), np.eye(2), A, b)

    def test_iteration_cap_carries_diagnostics(self, monkeypatch):
        # x <= 1, 2x <= 3 and y <= 0 from (5, 1): the face of all three rows
        # is singular, so the active-set search runs, and it needs two adds;
        # a budget of one trips the cap
        monkeypatch.setattr(projection, "_project_core",
                            partial(projection._project_core, max_iterations=1))
        A = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 3.0, 0.0])
        with pytest.raises(ActiveSetLimitError, match="iteration cap at the estimate") as err:
            project(np.array([5.0, 1.0]), np.eye(2), A, b)
        assert err.value.max_violation > 0
        assert err.value.active_set == (0,)
        # the box corner also needs two adds of the search, but the face of
        # its two violated rows is the optimum, so the budget is never spent
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([20.0, 0.0, 5.0, 0.0])
        res = project(np.array([25.0, -3.0]), np.eye(2), A, b)
        assert res.active_set == (0, 3)
        np.testing.assert_allclose(res.estimate, [20.0, 0.0], atol=1e-12)

    def test_a_wrong_search_face_is_rejected(self, monkeypatch):
        # the search's rows are judged by the face solve's KKT test: on
        # either row alone the vertex problem's point misses the other row
        A = np.array([[-1.0, -1.0], [1.0, 1.0 - 1e-4]])
        b = np.array([-1.0, 0.0])
        for rows in ([0], [1]):
            monkeypatch.setattr(projection, "_project_core", lambda *args: np.array(rows))
            with pytest.raises(RuntimeError, match="fails its KKT test at entry 1$"):
                project_state(_Duck(x_hat=np.zeros(2), P_x=np.eye(2)), A, b, where="entry 1")

    def test_non_finite_constraint_data_is_rejected(self):
        # an infinite bound used to switch every row off, a NaN bound to
        # read as an empty feasible set
        for bound in ([1.0, np.inf], [1.0, np.nan]):
            with pytest.raises(ValueError, match="constraint bound must be finite"):
                project(np.array([5.0, 0.0]), np.eye(2), np.eye(2), bound)
        with pytest.raises(ValueError, match="constraint matrix must be finite"):
            project(np.array([5.0, 0.0]), np.eye(2), [[1.0, np.nan]], [1.0])

    def test_non_finite_estimate_or_covariance_is_named(self):
        A, b = np.eye(2), np.ones(2)
        with pytest.raises(ValueError, match="non-finite estimate") as err:
            project(np.array([np.nan, 0.0]), np.eye(2), A, b)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="weight matrix must be finite"):
            project(np.array([5.0, 0.0]), np.diag([1.0, np.nan]), A, b)
        upd = _Duck(x_hat=np.array([5.0, 0.0]), P_x=np.diag([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite covariance") as err:
            project_state(upd, A, b)
        assert type(err.value) is ValueError


class TestIdentities:
    @staticmethod
    def _active_instances(count, seed):
        rng = np.random.default_rng(seed)
        produced = 0
        while produced < count:
            e, W, A, b, z0 = random_projection_instance(rng)
            if A.shape[0] == 0:
                continue
            res = project(e, W, A, b)
            if not res.active_set:
                continue
            produced += 1
            yield e, W, A, b, z0, res

    def test_gain_identity_and_complementary_slackness(self):
        for e, W, A, b, _, res in self._active_instances(40, 101):
            Ab = A[list(res.active_set)]
            np.testing.assert_allclose(Ab @ res.gain, np.eye(len(res.active_set)), atol=1e-8)
            np.testing.assert_allclose(Ab @ res.estimate, b[list(res.active_set)], atol=1e-7)
            assert np.all(res.multipliers >= 0.0)

    def test_multipliers_are_in_the_callers_rows(self):
        # z = e - P A_O' lam on the caller's rows, so lam = (A_O P A_O')^{-1}
        # (A_O e - b_O) there: on random instances, and on rows of norms 3
        # and 1e8, reached by the face solve under I and by the search under
        # a skewed covariance
        cases = [(e, np.linalg.inv(W), A, b, res) for e, W, A, b, _, res
                 in self._active_instances(40, 808)]
        A = np.array([[3.0, 0.0], [0.0, 1e8]])
        b = np.array([3.0, 1e8])
        for P, e in ((np.eye(2), [2.0, 2.5]), (np.array([[1.0, -0.9], [-0.9, 1.0]]), [2.0, 0.5])):
            e = np.array(e)
            z, _, res = project_state(_Duck(x_hat=e, P_x=P), A, b)
            assert res.active_set == (0, 1)
            cases.append((e, P, A, b, res))
        for e, P, A, b, res in cases:
            Ab, bb = A[list(res.active_set)], b[list(res.active_set)]
            lam = np.linalg.solve(Ab @ P @ Ab.T, Ab @ e - bb)
            np.testing.assert_allclose(res.multipliers, lam, rtol=1e-8)
            np.testing.assert_allclose(e - P @ Ab.T @ res.multipliers, res.estimate,
                                       atol=1e-8 * (1.0 + np.abs(e).max()))

    def test_weighted_orthogonality(self):
        # (I - gain A_bar)' W (gain A_bar) = 0: the correction is W-orthogonal
        # to what survives of the estimate
        for e, W, A, b, _, res in self._active_instances(40, 202):
            Ab = A[list(res.active_set)]
            proj = res.gain @ Ab
            resid = (np.eye(e.size) - proj).T @ W @ proj
            assert np.max(np.abs(resid)) <= 1e-7 * (1.0 + np.max(np.abs(W)))

    def test_error_decomposition(self):
        # (I - gain A_bar)(z - f) equals (I - gain A_bar)(e - f) for any f
        rng = np.random.default_rng(303)
        for e, W, A, b, _, res in self._active_instances(40, 404):
            Ab = A[list(res.active_set)]
            shrink = np.eye(e.size) - res.gain @ Ab
            f = rng.normal(size=e.size)
            lhs = shrink @ (res.estimate - f)
            rhs = shrink @ (e - f)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_covariance_trace_strictly_decreases(self):
        for e, W, A, b, _, res in self._active_instances(40, 505):
            P = np.linalg.inv(W)
            assert np.trace(res.covariance) < np.trace(P) - 1e-12

    def test_objective_beats_random_feasible_points(self):
        rng = np.random.default_rng(606)
        for e, W, A, b, z0, res in self._active_instances(10, 707):
            best = objective(res.estimate, e, W)
            for _ in range(1000):
                cand = feasible_sample(rng, z0, A, b)
                assert best <= objective(cand, e, W) + 1e-10

    def test_idempotence(self):
        for e, W, A, b, _, res in self._active_instances(30, 808):
            again = project(res.estimate, W, A, b)
            np.testing.assert_allclose(again.estimate, res.estimate, atol=1e-9)
            assert again.active_set == () or np.all(again.multipliers <= 1e-7)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_feasibility_of_output(self, seed):
        rng = np.random.default_rng(seed)
        e, W, A, b, _ = random_projection_instance(rng)
        res = project(e, W, A, b)
        if A.shape[0]:
            norms = np.linalg.norm(A, axis=1)
            ok = norms > 0
            viol = (A[ok] @ res.estimate - b[ok]) / norms[ok]
            assert viol.max(initial=0.0) <= 1e-8 * (1.0 + np.abs(b).max())


def _random_box(rng, n):
    """Rows of a one- or two-sided box on one to three of n coordinates,
    each row scaled by a random positive factor, in random order, and
    the box's lower and upper bound per coordinate (+-inf when open)."""
    coords = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    rows, bounds = [], []
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    for j in coords:
        mid, half = rng.normal(), 0.1 + abs(rng.normal())
        for side in ((1.0, -1.0), (1.0,), (-1.0,))[int(rng.integers(3))]:
            scale = rng.uniform(0.5, 2.0)
            row = np.zeros(n)
            row[j] = side * scale
            rows.append(row)
            bounds.append(scale * (half + side * mid))
            if side > 0:
                hi[j] = mid + half
            else:
                lo[j] = mid - half
    order = rng.permutation(len(rows))
    return np.array(rows)[order], np.array(bounds)[order], coords, lo, hi


def _rank_deficient_instance(rng):
    """Projection instance under a covariance P of rank r < n.

    The random rows keep an interior point in e + range(P), so the
    restricted problem is well posed within the oracle's tolerances.
    Some rows lie in null(P), where the estimate cannot move, and some
    repeat the row before them, scaled by +-[0.5, 2], plus a null(P)
    component, which makes them parallel or antiparallel to it in the metric
    of P. Both kinds get a random bound, so e + range(P) can miss the
    feasible set.
    """
    n = int(rng.integers(2, 5))
    r = int(rng.integers(1, n))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    U, N = V[:, :r], V[:, r:]
    P = U @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, size=r)) @ U.T
    e = 2.0 * rng.normal(size=n)
    z0 = e + U @ (2.0 * rng.normal(size=r))
    q = int(rng.integers(1, 6))
    A = rng.normal(size=(q, n))
    b = A @ z0 + np.abs(rng.normal(size=q)) + 0.05
    for i in range(q):
        kind = rng.random()
        if kind < 0.15:
            A[i] = N @ rng.normal(size=n - r)
            b[i] = A[i] @ e + rng.normal()
        elif i and kind < 0.45:
            scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            A[i] = scale * A[i - 1] + N @ rng.normal(size=n - r)
            b[i] = A[i] @ z0 + rng.normal()
    return e, P, A, b


class TestRankDeficientMetric:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_oracle_within_range_of_P(self, seed):
        e, P, A, b = _rank_deficient_instance(np.random.default_rng(seed))
        upd = _Duck(x_hat=e, P_x=P)
        try:
            ref = range_qp_oracle(e, P, A, b)
        except InfeasibleConstraintsError:
            with pytest.raises(InfeasibleConstraintsError, match=r"no point of e \+ range\(P\)"):
                project_state(upd, A, b)
            return
        x_hat, P_x, _ = project_state(upd, A, b)
        assert np.abs(x_hat - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())
        assert np.trace(P_x) <= np.trace(P) + 1e-12

    @pytest.mark.xfail(strict=True, raises=InfeasibleConstraintsError,
                       reason="ROADMAP.md item 4, still open: the active-set search reads an "
                              "ill-conditioned vertex as an infeasible set")
    def test_ill_conditioned_vertex_is_not_reported_infeasible(self):
        # a rank-1 P whose row 1 is about 7.6e-5 times row 0 plus a null(P)
        # part: the oracle finds a feasible point near 5e15, and the
        # search's dependence test calls row 1 unsatisfiable
        e, P, A, b = _rank_deficient_instance(np.random.default_rng(30221206))
        ref = range_qp_oracle(e, P, A, b)
        assert np.abs(ref).max() > 1e15
        x_hat, _, _ = project_state(_Duck(x_hat=e, P_x=P), A, b)
        assert np.abs(x_hat - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())


def _violating_runs(rng, n, A, b, z0, box, runs):
    """Estimates violating one to three rows each, and their covariances.

    On a box (lo, hi, coords) each run pushes one to three bounded
    coordinates past a bound and keeps the others inside; on any other set
    each run is a random point around the interior point z0 that violates
    one to three rows. Each covariance is scaled by 1e-13, 1 or 1e13, a
    factor the projected estimate does not depend on, so the runs differ in
    scale by up to 26 decades. Returns est, P and the scales.
    """
    est = np.empty((runs, n))
    P = np.empty((runs, n, n))
    scale = 10.0 ** rng.choice([-13.0, 0.0, 0.0, 13.0], size=runs)
    for r in range(runs):
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        P[r] = scale[r] * (V @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, size=n)) @ V.T)
        if box is not None:
            lo, hi, coords = box
            est[r] = rng.normal(size=n)
            for j in coords:
                est[r, j] = np.clip(rng.normal(), lo[j] + 0.01, hi[j] - 0.01)
            for j in rng.choice(coords, size=int(rng.integers(1, min(coords.size, 3) + 1)),
                                replace=False):
                out = 0.05 + 2.0 * abs(rng.normal())
                up = np.isinf(lo[j]) or (np.isfinite(hi[j]) and rng.random() < 0.5)
                est[r, j] = hi[j] + out if up else lo[j] - out
            continue
        while True:
            est[r] = z0 + 3.0 * rng.normal(size=n)
            viol = A @ est[r] - b
            if 1 <= (viol > 0.0).sum() <= 3 and np.abs(viol).min() > 1e-6:
                break
    return est, P, scale


class TestBatchedBoxProjection:
    """A batch of runs on one box, each run projected on its own."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_oracle_and_scalar_projector(self, seed):
        # every bounded coordinate of each run pushed past one of its bounds,
        # so a run may violate up to four rows
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        A, b, coords, lo, hi = _random_box(rng, n)
        runs = 8
        P = np.empty((runs, n, n))
        est = rng.normal(size=(runs, n))
        for r in range(runs):
            V = np.linalg.qr(rng.normal(size=(n, n)))[0]
            P[r] = V @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, size=n)) @ V.T
            for j in coords:
                out = 0.05 + 2.0 * abs(rng.normal())
                up = np.isinf(lo[j]) or (np.isfinite(hi[j]) and rng.random() < 0.5)
                est[r, j] = hi[j] + out if up else lo[j] - out
        for r in range(runs):
            z, cov, res = project_state(_Duck(x_hat=est[r], P_x=P[r]), A, b)
            W = np.linalg.inv(P[r])
            ref = qp_oracle(est[r], W, A, b)
            assert np.abs(z - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max()), r
            obj = objective(ref, est[r], W)
            assert abs(objective(z, est[r], W) - obj) <= 1e-8 * (1.0 + obj), r
            x, P_x, act = _search(est[r], P[r], A, b)
            assert np.abs(z - x).max() <= 1e-8 * (1.0 + np.abs(ref).max()), r
            assert len(res.active_set) == len(act), r
            assert np.abs(cov - P_x).max() <= 1e-9, r


class TestOneEntryRoutes:
    """Each route of the projector: an estimate within its set's tolerance
    keeps its value, a face of violated rows that passes its KKT test is the
    result, and any other estimate goes to the active-set search."""

    @staticmethod
    def _spy_on_search(monkeypatch):
        calls = []
        project_core = projection._project_core

        def spy(e, *args):
            calls.append(e.copy())
            return project_core(e, *args)

        monkeypatch.setattr(projection, "_project_core", spy)
        return calls

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_violated_rows_match_the_oracle_and_the_search(self, seed, box):
        # estimates violating one to three rows of a box or of a random
        # polytope, whichever route each takes
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        if box:
            A, b, coords, lo, hi = _random_box(rng, n)
            z0, bounds = None, (lo, hi, coords)
        else:
            q = int(rng.integers(2, 7))
            z0 = rng.normal(size=n)
            A = rng.normal(size=(q, n))
            b = A @ z0 + np.abs(rng.normal(size=q)) + 0.05
            bounds = None
        est, P, scale = _violating_runs(rng, n, A, b, z0, bounds, 8)
        for r in range(len(est)):
            z, cov, res = project_state(_Duck(x_hat=est[r], P_x=P[r]), A, b)
            W = np.linalg.inv(P[r] / scale[r])
            ref = qp_oracle(est[r], W, A, b)
            tol = 1e-8 * (1.0 + np.abs(ref).max())
            assert np.abs(z - ref).max() <= tol, r
            obj = objective(ref, est[r], W)
            assert abs(objective(z, est[r], W) - obj) <= 1e-8 * (1.0 + obj), r
            x, P_x, act = _search(est[r], P[r], A, b)
            assert np.abs(z - x).max() <= tol, r
            assert np.abs(cov - P_x).max() <= 1e-9 * scale[r], r
            assert len(res.active_set) == len(act), r

    def test_each_route_is_taken_where_it_applies(self, monkeypatch):
        # on the box z <= 1: an estimate over row 0 by less than its
        # tolerance, 1e-10 (1 + |e| + 1), keeps its value, and one over it by
        # 1e-9 does not; the face of row 0 is the optimum of (2, 0.5) under
        # I, but leaves the box through row 1 under a skewed covariance, so
        # the search runs
        calls = self._spy_on_search(monkeypatch)
        A, b = np.eye(2), np.ones(2)
        e = np.array([1.0 + 5e-11, 0.5])
        z, P_z, res = project_state(_Duck(x_hat=e, P_x=np.eye(2)), A, b)
        assert np.array_equal(z, e) and np.array_equal(P_z, np.eye(2)) and res.active_set == ()
        z, _, res = project_state(_Duck(x_hat=np.array([1.0 + 1e-9, 0.5]), P_x=np.eye(2)), A, b)
        assert res.active_set == (0,) and z[0] == 1.0
        z, _, res = project_state(_Duck(x_hat=np.array([2.0, 0.5]), P_x=np.eye(2)), A, b)
        np.testing.assert_allclose(z, [1.0, 0.5], atol=1e-15)
        assert res.active_set == (0,) and calls == []
        skew = np.array([[1.0, -0.9], [-0.9, 1.0]])
        z, _, res = project_state(_Duck(x_hat=np.array([2.0, 0.5]), P_x=skew), A, b)
        assert len(calls) == 1 and res.active_set == (0, 1)
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)

    def test_four_violated_rows_stop_at_their_face(self, monkeypatch):
        # a 4-coordinate box left through all four coordinates: the face of
        # the four violated rows is the optimum, and the search never runs
        calls = self._spy_on_search(monkeypatch)
        V = np.linalg.qr(np.random.default_rng(41).normal(size=(4, 4)))[0]
        P4 = V @ np.diag([0.5, 1.0, 2.0, 4.0]) @ V.T
        A, b = np.vstack([np.eye(4), -np.eye(4)]), np.ones(8)
        e = np.array([2.0, -3.0, 1.5, -2.0])
        z, _, res = project_state(_Duck(x_hat=e, P_x=P4), A, b)
        assert calls == [] and res.active_set == (0, 2, 5, 7)
        ref = qp_oracle(e, np.linalg.inv(P4), A, b)
        assert np.abs(z - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())
        np.testing.assert_allclose(z, [1.0, -1.0, 1.0, -1.0], atol=1e-12)

    def test_faces_at_the_edges_of_the_first_tier_need_no_search(self, monkeypatch):
        # the near-vertex {-x - y <= -1, x + (1 - t) y <= 0} at t = 1e-5 and
        # 4.1e-6, where A_O P A_O' has condition number 1.6e11 and 9.5e11,
        # under the 1e12 limit, and the one-shot point misses the face by
        # over 1e-7, so the face passes after its refinement step; a face of
        # one row whose a P a' of 5e-15 lies twice the null floor, and one of
        # two rows 2.5% above it
        calls = self._spy_on_search(monkeypatch)
        for t, e in ((1e-5, [0.5, 0.0]), (4.1e-6, [0.2, 0.3])):
            A, b = np.array([[-1.0, -1.0], [1.0, 1.0 - t]]), np.array([-1.0, 0.0])
            e = np.array(e)
            one_shot = e - A.T @ np.linalg.solve(A @ A.T, A @ e - b)
            assert np.abs(A @ one_shot - b).max() > 1e-7, t
            z, _, res = project_state(_Duck(x_hat=e, P_x=np.eye(2)), A, b)
            assert res.active_set == (0, 1), t
            np.testing.assert_allclose(z, [1.0 - 1.0 / t, 1.0 / t], rtol=1e-10)
        z, _, res = project_state(_Duck(x_hat=np.array([2.0, 0.5]), P_x=np.diag([2e-14, 1.0])),
                                  np.eye(2), np.ones(2))
        assert res.active_set == (0,)
        np.testing.assert_allclose(z, [1.0, 0.5], atol=1e-12)
        z, _, res = project_state(_Duck(x_hat=np.array([0.3, 2.0, 3.0]),
                                        P_x=np.diag([1.0, 2.05e-14, 2.05e-14])),
                                  np.eye(3)[1:], np.ones(2))
        assert res.active_set == (0, 1) and calls == []
        np.testing.assert_allclose(z, [0.3, 1.0, 1.0], atol=1e-12)

    def test_parallel_violated_rows_go_to_the_search(self, monkeypatch):
        # x <= 1, 2x <= 3 and y <= 0 from (5, 1): the first two rows are
        # parallel, so the face of all three has a singular A_O P A_O'; the
        # face solve rejects it instead of raising, and the search finds
        # the optimum on rows 0 and 2
        calls = self._spy_on_search(monkeypatch)
        A, b = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 3.0, 0.0])
        e = np.array([5.0, 1.0])
        res = project(e, np.eye(2), A, b)
        assert len(calls) == 1
        ref = qp_oracle(e, np.eye(2), A, b)
        assert np.abs(res.estimate - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())
        np.testing.assert_allclose(res.estimate, [1.0, 0.0], atol=1e-12)
        assert res.active_set == (0, 2)

    def test_ill_conditioned_metric_goes_to_the_search(self, monkeypatch):
        # covariances of condition number 1e13 and 2e12 on the bounded
        # coordinates, beyond the 1e12 the face solve accepts; under I the
        # same estimate stops at its face
        calls = self._spy_on_search(monkeypatch)
        A, b = np.eye(2), np.ones(2)
        e = np.array([2.0, 3.0])
        for P in (np.diag([1.0, 1e-13]), np.diag([1.0, 5e-13])):
            ref, _, act = _search(e, P, A, b)
            z, _, res = project_state(_Duck(x_hat=e, P_x=P), A, b)
            assert res.active_set == tuple(act)
            np.testing.assert_allclose(z, ref, atol=1e-12)
        assert len(calls) == 2
        z, _, res = project_state(_Duck(x_hat=e, P_x=np.eye(2)), A, b)
        assert len(calls) == 2 and res.active_set == (0, 1)
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)

    def test_singular_metric_projects_within_its_range(self, monkeypatch):
        # the covariance has no variance along (1, -1): the projection moves
        # along (1, 1) only, and one row suffices
        calls = self._spy_on_search(monkeypatch)
        upd = _Duck(x_hat=np.array([2.0, 3.0]), P_x=np.ones((2, 2)))
        z, P_z, res = project_state(upd, np.eye(2), np.ones(2))
        assert len(calls) == 1 and len(res.active_set) == 1
        np.testing.assert_allclose(z, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(P_z, np.zeros((2, 2)), atol=1e-12)

    def test_zero_variance_coordinate_is_not_moved(self):
        # the second coordinate has no variance, so no point of e + range(P)
        # satisfies z_2 <= 1
        upd = _Duck(x_hat=np.array([2.0, 3.0]), P_x=np.diag([1.0, 0.0]))
        with pytest.raises(InfeasibleConstraintsError, match="cannot be satisfied.* at k=5, run 0"):
            project_state(upd, np.eye(2), np.ones(2), where="k=5, run 0")

    def test_row_in_the_null_space_of_P_is_not_solved_on_its_face(self):
        # P has variance along (cos 1.5, sin 1.5) alone, and the row
        # (-sin 1.5, cos 1.5) lies in null(P): its a'P a of 7e-20 is rounding
        # alone. The face solve does not take that for a face, and the
        # search finds that no point of e + range(P) meets the row
        t = 1.5
        u = np.array([np.cos(t), np.sin(t)])
        upd = _Duck(x_hat=np.zeros(2), P_x=np.outer(u, u))
        with pytest.raises(InfeasibleConstraintsError,
                           match=r"no point of e \+ range\(P\) is feasible at the state estimate"):
            project_state(upd, [[-np.sin(t), np.cos(t)]], [-1.0])

def test_small_symmetric_inverse_matches_lapack():
    rng = np.random.default_rng(31)
    for n in range(1, 5):
        M = rng.normal(size=(3, 5, n, n))
        S = M @ M.swapaxes(-1, -2) + 0.1 * np.eye(n)
        ref = np.linalg.inv(S)
        np.testing.assert_allclose(_sym_inv(S), ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(_sym_inv(S[1, 2]), ref[1, 2], rtol=1e-10, atol=1e-10)
        if n == 2:
            # the closed form reads the upper triangle only
            lower = np.tril(rng.normal(size=(n, n)), -1)
            np.testing.assert_array_equal(_sym_inv(S + lower), _sym_inv(S))


def test_symmetric_inverse_of_a_singular_member_is_nan():
    # LAPACK cannot invert member 1; it comes back NaN and the others get
    # LAPACK's own inverse, matrix by matrix
    M = np.random.default_rng(7).normal(size=(4, 3, 3))
    S = M @ M.swapaxes(-1, -2) + 0.1 * np.eye(3)
    S[1] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(S)
    inv = _sym_inv(S)
    assert np.isnan(inv[1]).all()
    for i in (0, 2, 3):
        np.testing.assert_array_equal(inv[i], np.linalg.inv(S[i]))
    assert np.isnan(_sym_inv(S[1])).all()


class TestEstimatorFacingWrappers:
    def test_project_attack_returns_projected_pair(self):
        P = np.array([[0.3, 0.02], [0.02, 1.1]])
        atk = _Duck(d_hat=np.array([0.1, 4.4]), P_d=P)
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0472, 1.0472, 3.5, 3.5])
        d_hat, P_d, res = project_attack(atk, A, b)
        assert res.active_set == (2,)
        assert d_hat[1] == pytest.approx(3.5)
        # short-form identity: (I - gain A_bar) P equals the factored form
        shrink = np.eye(2) - res.gain @ A[[2]]
        np.testing.assert_allclose(P_d, shrink @ P, atol=1e-10)
        assert np.trace(P_d) < np.trace(P)

    def test_project_attack_with_singular_covariance(self):
        # a previous full projection can leave a rank-deficient covariance
        P = np.array([[0.5, 0.0], [0.0, 0.0]])
        atk = _Duck(d_hat=np.array([2.0, 0.0]), P_d=P)
        A = np.array([[1.0, 0.0]])
        b = np.array([1.0])
        d_hat, P_d, res = project_attack(atk, A, b)
        assert d_hat[0] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.isfinite(P_d))

    def test_project_state_returns_reduction(self):
        upd = _Duck(x_hat=np.array([21.0, 2.0, 0.0, 9.0]), P_x=0.01 * np.eye(4))
        B = np.zeros((2, 4))
        B[0, 0] = 1.0
        B[1, 0] = -1.0
        c = np.array([20.0, 0.0])
        x_hat, P_x, res = project_state(upd, B, c)
        assert x_hat[0] == pytest.approx(20.0)
        np.testing.assert_allclose(x_hat[1:], [2.0, 0.0, 9.0])
        assert res.active_set == (0,)
        assert np.trace(P_x) < np.trace(upd.P_x)

    def test_asymmetric_covariance_fails_the_self_check(self):
        # the wrappers are where a covariance enters the projector, so they
        # reject a lopsided one, naming where it came from
        P = np.eye(3)
        P[1, 2] = 0.5
        atk = _Duck(d_hat=np.array([2.0, 0.0, 0.0]), P_d=P)
        A, b = np.array([[1.0, 0.0, 0.0]]), np.array([1.0])
        with pytest.raises(ValueError, match="^asymmetric covariance at the attack estimate$"):
            project_attack(atk, A, b)
        with pytest.raises(ValueError, match="^asymmetric covariance at k=2, state$"):
            project_state(_Duck(x_hat=atk.d_hat, P_x=P), A, b, where="k=2, state")

    def test_wrappers_passthrough_without_violation(self):
        upd = _Duck(x_hat=np.array([1.0, 1.0]), P_x=np.eye(2))
        x_hat, P_x, res = project_state(upd, np.array([[1.0, 0.0]]), np.array([5.0]))
        np.testing.assert_array_equal(x_hat, upd.x_hat)
        np.testing.assert_allclose(P_x, np.eye(2))
        assert res.active_set == ()
