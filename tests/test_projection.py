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
    _box_project,
    _check_forms,
    _ConstraintTable,
    _project_core,
    _sym_inv,
    project,
    project_attack,
    project_state,
)
from care_filter.vehicle import VehicleParams, build_constraints

from conftest import feasible_sample, objective, random_projection_instance
from oracles import qp_oracle, range_qp_oracle


class _Duck:
    """Minimal stand-in for estimator outputs (d_hat/P_d or x_hat/P_x)."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def _search(e, P, A, b):
    """The active-set search alone, under the tolerance `_box_project`
    gives it: (estimate, covariance, active rows)."""
    dist = np.abs(b) / np.linalg.norm(A, axis=1)
    tol = projection._FEAS_REL * (1.0 + np.linalg.norm(e) + dist.max())
    return _project_core(e, P, A, b, tol)


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
        # with 1e-4 in place of 2e-4 the optimum (-9999, 10000) has both rows
        # active and a gain with entries near 1e4; the covariance self-check
        # scales its bound with GA = gain A_bar and accepts the exact vertex
        A = np.array([[-1.0, -1.0], [1.0, 1.0 - 1e-4]])
        b = np.array([-1.0, 0.0])
        res = project(np.zeros(2), np.eye(2), A, b)
        assert res.active_set == (0, 1)
        np.testing.assert_allclose(res.estimate, [-9999.0, 10000.0], rtol=1e-10)
        assert np.abs(res.covariance).max() <= 1e-10
        ref = qp_oracle(np.zeros(2), np.eye(2), A, b)
        assert np.abs(res.estimate - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())

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


def _violating_runs(rng, n, A, b, z0, box, runs):
    """Estimates violating one to three rows each, and their covariances.

    On a box (lo, hi, coords) each run pushes one to three bounded
    coordinates past a bound and keeps the others inside; on any other set
    each run is a random point around the interior point z0 that violates
    one to three rows. Each covariance is scaled by 1e-13, 1 or 1e13, a
    factor the projected estimate does not depend on, so runs of one batch
    differ in scale by up to 26 decades. Returns est, P and the scales.
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


def _project_recording_route(est, P, A, b, width=None):
    """`_box_project` on copies of est and P, recording for each run whether
    it reached the scalar projector. Returns (estimate, covariance, active
    counts, counter, scalar-projector mask)."""
    z, cov = est.copy(), P.copy()
    active = np.zeros((len(est), len(A)), dtype=bool)
    scalar = np.zeros(len(est), dtype=bool)
    own = np.full(len(est), est.shape[1]) if width is None else width
    project_core = projection._project_core

    def core_spy(e, *args):
        scalar[(est[:, :e.size] == e).all(axis=1) & (own == e.size)] = True
        return project_core(e, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_project_core", core_spy)
        counter = _box_project(z, cov, _ConstraintTable(A, b, width), 0, active, str)
    return z, cov, active.sum(axis=1), counter, scalar


def _stack_sets(sets, order):
    """One `_box_project` input for the runs of several sets.

    sets holds (A, b, est, P) per set, est and P holding its runs. The sets'
    rows are stacked in one matrix padded with zero columns to the widest
    set; each entry carries its set's bounds and +inf on the other sets'
    rows, and its estimate and covariance padded with zeros. Entry h is run
    order[h] in the sets' run order. Returns (est, P, A, b, width, set of
    each entry).
    """
    n = max(A.shape[1] for A, *_ in sets)
    A_all = np.vstack([np.pad(A, ((0, 0), (0, n - A.shape[1]))) for A, *_ in sets])
    start = np.cumsum([0] + [len(b) for _, b, *_ in sets])
    runs = [(s, i) for s, (*_, est, _) in enumerate(sets) for i in range(len(est))]
    H = len(runs)
    est_all, P_all = np.zeros((H, n)), np.zeros((H, n, n))
    b_all = np.full((H, len(A_all)), np.inf)
    width, which = np.empty(H, dtype=int), np.empty(H, dtype=int)
    for h, j in enumerate(order):
        s, i = runs[j]
        A, b, est, P = sets[s]
        w = width[h] = A.shape[1]
        which[h] = s
        est_all[h, :w], P_all[h, :w, :w] = est[i], P[i]
        b_all[h, start[s]:start[s + 1]] = b
    return est_all, P_all, A_all, b_all, width, which


class TestBatchedBoxProjection:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_oracle_and_scalar_projector(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        A, b, coords, lo, hi = _random_box(rng, n)
        runs = 8
        P = np.empty((runs, n, n))
        est = rng.normal(size=(runs, n))
        for r in range(runs):
            V = np.linalg.qr(rng.normal(size=(n, n)))[0]
            P[r] = V @ np.diag(10.0 ** rng.uniform(-2.0, 2.0, size=n)) @ V.T
            # push every bounded coordinate past one of its bounds
            for j in coords:
                out = 0.05 + 2.0 * abs(rng.normal())
                up = np.isinf(lo[j]) or (np.isfinite(hi[j]) and rng.random() < 0.5)
                est[r, j] = hi[j] + out if up else lo[j] - out
        z, cov, active, counter, scalar = _project_recording_route(est, P, A, b)
        assert counter == scalar.sum()
        for r in range(runs):
            W = np.linalg.inv(P[r])
            ref = qp_oracle(est[r], W, A, b)
            assert np.abs(z[r] - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max()), r
            obj = objective(ref, est[r], W)
            assert abs(objective(z[r], est[r], W) - obj) <= 1e-8 * (1.0 + obj), r
            x, P_x, act = _search(est[r], P[r], A, b)
            assert np.abs(z[r] - x).max() <= 1e-8 * (1.0 + np.abs(ref).max()), r
            assert active[r] == len(act), r
            assert np.abs(cov[r] - P_x).max() <= 1e-9, r

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_violated_row_face_matches_oracle_alone_and_in_a_batch(self, seed, box):
        # runs violating one to three rows of a box or of a random polytope;
        # a run's route and result do not depend on its batch, bit for bit
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
        z, cov, active, counter, scalar = _project_recording_route(est, P, A, b)
        assert counter == scalar.sum()
        for r in range(len(est)):
            ref = qp_oracle(est[r], np.linalg.inv(P[r] / scale[r]), A, b)
            tol = 1e-8 * (1.0 + np.abs(ref).max())
            assert np.abs(z[r] - ref).max() <= tol, r
            x, P_x, act = _search(est[r], P[r], A, b)
            assert np.abs(z[r] - x).max() <= tol, r
            assert np.abs(cov[r] - P_x).max() <= 1e-9 * scale[r], r
            assert active[r] == len(act), r
            alone = _project_recording_route(est[r:r + 1], P[r:r + 1], A, b)
            assert alone[4][0] == scalar[r], r
            assert alone[2][0] == active[r], r
            assert np.array_equal(alone[0][0], z[r]), r
            assert np.array_equal(alone[1][0], cov[r]), r

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_stacked_sets_match_each_set_alone(self, seed):
        # boxes and non-box sets on two to four coordinates in one call, their
        # runs interleaved; the first two sets always send their run past the
        # face solve to the scalar projector: on a box and on a wedge, the face
        # of row 0 leaves the set through row 1
        rng = np.random.default_rng(seed)
        skew = np.array([[[1.0, -0.9], [-0.9, 1.0]]])
        sets = [(np.eye(2), np.ones(2), np.array([[2.0, 0.5]]), skew),
                (np.array([[1.0, 0.5], [0.5, 1.0]]), np.ones(2), np.array([[3.0, -0.95]]), skew)]
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                A, b, coords, lo, hi = _random_box(rng, n)
                est, P, _ = _violating_runs(rng, n, A, b, None, (lo, hi, coords), 3)
            else:
                z0 = rng.normal(size=n)
                A = rng.normal(size=(int(rng.integers(2, 7)), n))
                b = A @ z0 + np.abs(rng.normal(size=len(A))) + 0.05
                est, P, _ = _violating_runs(rng, n, A, b, z0, None, 3)
            sets.append((A, b, est, P))
        order = rng.permutation(sum(len(est) for *_, est, _ in sets))
        est, P, A_all, b_all, width, which = _stack_sets(sets, order)
        z, cov, active, counter, scalar = _project_recording_route(
            est, P, A_all, b_all, width)
        assert scalar.any()
        total = 0
        for h, w in enumerate(width):
            A, b = sets[which[h]][:2]
            alone = _project_recording_route(est[h:h + 1, :w], P[h:h + 1, :w, :w], A, b)
            total += alone[3]
            assert alone[4][0] == scalar[h], h
            assert alone[2][0] == active[h], h
            zh, ch = z[h, :w], cov[h, :w, :w]
            assert np.abs(alone[0][0] - zh).max() <= 1e-12 * (1.0 + np.abs(zh).max()), h
            scale = np.abs(P[h]).max()
            assert np.abs(alone[1][0] - ch).max() <= 1e-12 * (scale + np.abs(ch).max()), h
            # the padding stays zero
            assert not z[h, w:].any() and not cov[h, w:].any() and not cov[h, :, w:].any(), h
        assert counter == total

    def test_four_violated_rows_stop_at_their_face(self, monkeypatch):
        # a 4-coordinate box left through all four coordinates, stacked next
        # to a 2-wide entry with one violated row: each entry is solved on
        # its own violated rows, the vertex of four and the face of one, and
        # neither reaches the scalar projector
        V = np.linalg.qr(np.random.default_rng(41).normal(size=(4, 4)))[0]
        P4 = V @ np.diag([0.5, 1.0, 2.0, 4.0]) @ V.T
        box = (np.vstack([np.eye(4), -np.eye(4)]), np.ones(8),
               np.array([[2.0, -3.0, 1.5, -2.0]]), P4[None])
        side = (np.eye(2), np.ones(2), np.array([[2.0, 0.5]]), np.eye(2)[None])
        est, P, A, b, width, _ = _stack_sets([box, side], [1, 0])
        assert width.tolist() == [2, 4]
        calls = []
        project_core = projection._project_core

        def counting(e, P, A, *args):
            calls.append((e.size, A.shape))
            return project_core(e, P, A, *args)

        monkeypatch.setattr(projection, "_project_core", counting)
        z, cov = est.copy(), P.copy()
        active = np.zeros((2, len(A)), dtype=bool)
        assert _box_project(z, cov, _ConstraintTable(A, b, width), 0, active, str) == 0
        assert calls == []
        assert active.sum(axis=1).tolist() == [1, 4]
        for h, (A_h, b_h, *_) in enumerate((side, box)):
            w = width[h]
            z1, c1 = est[h:h + 1, :w].copy(), P[h:h + 1, :w, :w].copy()
            act1 = np.zeros((1, len(A_h)), dtype=bool)
            assert _box_project(z1, c1, _ConstraintTable(A_h, b_h), 0, act1, str) == 0
            assert act1.sum() == active[h].sum(), h
            assert np.abs(z1[0] - z[h, :w]).max() <= 1e-12 * (1.0 + np.abs(z1).max()), h
            assert np.abs(c1[0] - cov[h, :w, :w]).max() <= 1e-12 * (1.0 + np.abs(c1).max()), h
        ref = qp_oracle(box[2][0], np.linalg.inv(P4), *box[:2])
        assert np.abs(z[1] - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())
        np.testing.assert_allclose(z[1], [1.0, -1.0, 1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(z[0, :2], [1.0, 0.5], atol=1e-12)
        # the 2-wide entry's padding stays zero
        assert not z[0, 2:].any() and not cov[0, 2:].any() and not cov[0, :, 2:].any()

    def test_parallel_violated_rows_go_to_the_scalar_projector(self):
        # x <= 1, 2x <= 3 and y <= 0 from (5, 1): the first two rows are
        # parallel, so the face of all three has a singular A_O P A_O'; the
        # face solve rejects it instead of raising, and the scalar projector
        # finds the optimum on rows 0 and 2
        A, b = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 3.0, 0.0])
        est, cov = np.array([[5.0, 1.0]]), np.eye(2)[None]
        z, P = est.copy(), cov.copy()
        active = np.zeros((1, 3), dtype=bool)
        assert _box_project(z, P, _ConstraintTable(A, b), 0, active, str) == 1
        ref = qp_oracle(est[0], np.eye(2), A, b)
        assert np.abs(z[0] - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())
        np.testing.assert_allclose(z[0], [1.0, 0.0], atol=1e-12)
        assert active[0].tolist() == [True, False, True]

    def test_ill_conditioned_metric_goes_to_the_scalar_projector(self):
        # run 0's covariance has condition number 1e13 on the bounded
        # coordinates, beyond what the batched face solve accepts
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 1.0])
        est = np.array([[2.0, 3.0], [2.0, 3.0]])
        cov = np.array([np.diag([1.0, 1e-13]), np.eye(2)])
        ref, _, act = _search(est[0], cov[0], A, b)
        active = np.zeros((2, 2), dtype=bool)
        assert _box_project(est, cov, _ConstraintTable(A, b), 0, active, str) == 1
        np.testing.assert_allclose(est[0], ref, atol=1e-12)
        np.testing.assert_allclose(est[1], [1.0, 1.0], atol=1e-12)
        assert np.flatnonzero(active[0]).tolist() == list(act)
        assert active[1].all()

    def test_singular_metric_projects_within_its_range(self):
        # run 0's covariance has no variance along (1, -1): the projection
        # moves along (1, 1) only, and one row suffices
        A, b = np.eye(2), np.ones(2)
        est = np.array([[2.0, 3.0], [2.0, 3.0]])
        cov = np.array([[[1.0, 1.0], [1.0, 1.0]], np.eye(2)])
        active = np.zeros((2, 2), dtype=bool)
        assert _box_project(est, cov, _ConstraintTable(A, b), 0, active,
                            lambda r: f"k=5, run {r}") == 1
        np.testing.assert_allclose(est, [[0.0, 1.0], [1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(cov[0], np.zeros((2, 2)), atol=1e-12)
        assert active.sum(axis=1).tolist() == [1, 2]

    def test_zero_variance_coordinate_is_not_moved(self):
        # the second coordinate of run 0 has no variance, so no point of
        # e + range(P) satisfies z_2 <= 1
        A, b = np.eye(2), np.ones(2)
        est = np.array([[2.0, 3.0], [2.0, 3.0]])
        cov = np.array([np.diag([1.0, 0.0]), np.eye(2)])
        active = np.zeros((2, 2), dtype=bool)
        with pytest.raises(InfeasibleConstraintsError, match="cannot be satisfied.* at k=5, run 0"):
            _box_project(est, cov, _ConstraintTable(A, b), 0, active, lambda r: f"k=5, run {r}")

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

    def test_each_route_in_one_call_matches_its_one_entry_call(self, monkeypatch):
        # three entries on the box z <= 1: entry 0 lies over row 0 by less
        # than its tolerance, entry 1's face of row 0 is its optimum, and
        # entry 2's face leaves the box through row 1 under a skewed
        # covariance, so it goes to the scalar projector
        A, b = np.eye(2), np.ones(2)
        skew = np.array([[1.0, -0.9], [-0.9, 1.0]])
        est = np.array([[1.0 + 5e-11, 0.5], [2.0, 0.5], [2.0, 0.5]])
        cov = np.array([np.eye(2), np.eye(2), skew])
        calls = []
        project_core = projection._project_core

        def counting(e, *args):
            calls.append(e.copy())
            return project_core(e, *args)

        monkeypatch.setattr(projection, "_project_core", counting)
        z, P = est.copy(), cov.copy()
        active = np.zeros((3, 2), dtype=bool)
        assert _box_project(z, P, _ConstraintTable(A, b), 0, active, str) == 1
        assert len(calls) == 1 and np.array_equal(calls[0], est[2])
        assert np.array_equal(z[0], est[0]) and np.array_equal(P[0], cov[0])
        for h in (1, 2):
            z1, P1 = est[h:h + 1].copy(), cov[h:h + 1].copy()
            act1 = np.zeros((1, 2), dtype=bool)
            assert _box_project(z1, P1, _ConstraintTable(A, b), 0, act1, str) == h - 1
            assert np.array_equal(z1[0], z[h]) and np.array_equal(P1[0], P[h]), h
            assert np.array_equal(act1[0], active[h]), h
        np.testing.assert_allclose(z[1], [1.0, 0.5], atol=1e-15)
        assert active.tolist() == [[False, False], [True, False], [True, True]]

    def test_merged_check_names_the_entry_not_its_stack_position(self):
        # entries 0, 2 and 3 leave the box z <= 1 through one row each and
        # pass; entry 1 leaves it through both under a lopsided covariance,
        # which its face solve accepts (the 2x2 inverse reads the upper
        # triangle) and on which the covariance forms then disagree. The
        # accepted entries are checked together, width 1 before width 2,
        # so entry 1 sits last in that stack and first among its width
        A, b = np.eye(2), np.ones(2)
        est = np.array([[2.0, 0.5], [2.0, 2.0], [0.5, 3.0], [1.5, 0.0]])
        cov = np.tile(np.eye(2), (4, 1, 1))
        cov[1] = [[1.0, 0.0], [0.5, 1.0]]
        active = np.zeros((4, 2), dtype=bool)
        with pytest.raises(RuntimeError, match="forms disagree at entry 1;"):
            _box_project(est, cov, _ConstraintTable(A, b), 0, active, lambda h: f"entry {h}")
        assert active.sum(axis=1).tolist() == [1, 2, 1, 1]

    def test_unsorted_widths_each_get_their_one_entry_result(self, monkeypatch):
        # flagged entries arriving in width order [2, 1, within tolerance, 2,
        # face-rejected, 1] on the box z <= 1: each width is solved once, and
        # every entry ends as it would alone, bit for bit
        A, b = np.eye(2), np.ones(2)
        skew = np.array([[1.0, -0.9], [-0.9, 1.0]])
        est = np.array([[2.0, 3.0], [2.0, 0.5], [1.0 + 5e-11, 0.5], [3.0, 1.5], [2.0, 0.5],
                        [0.2, 4.0]])
        cov = np.array([np.eye(2), np.eye(2), np.eye(2), 2.0 * np.eye(2), skew,
                        [[1.0, 0.3], [0.3, 2.0]]])
        widths = []
        face_solve = projection._face_solve

        def spy(e, P, A, b, rows, *args):
            widths.append(rows.shape[1])
            return face_solve(e, P, A, b, rows, *args)

        monkeypatch.setattr(projection, "_face_solve", spy)
        z, P = est.copy(), cov.copy()
        active = np.zeros((6, 2), dtype=bool)
        assert _box_project(z, P, _ConstraintTable(A, b), 0, active, str) == 1
        assert widths == [1, 2]
        assert active.sum(axis=1).tolist() == [2, 1, 0, 2, 2, 1]
        for h in range(6):
            z1, P1 = est[h:h + 1].copy(), cov[h:h + 1].copy()
            act1 = np.zeros((1, 2), dtype=bool)
            assert _box_project(z1, P1, _ConstraintTable(A, b), 0, act1, str) == int(h == 4), h
            assert np.array_equal(z1[0], z[h]) and np.array_equal(P1[0], P[h]), h
            assert np.array_equal(act1[0], active[h]), h
        assert np.array_equal(z[2], est[2]) and np.array_equal(P[2], cov[2])

    def test_mixed_widths_pay_the_fixed_costs_once(self, monkeypatch):
        # entries violating one row and two rows: one face solve per width,
        # but one self-check and one floating-point error state per call
        calls = {"check": 0, "errstate": 0, "face": 0}
        check_forms, face_solve = projection._check_forms, projection._face_solve
        errstate = np.errstate

        def counting_check(*args):
            calls["check"] += 1
            return check_forms(*args)

        def counting_face(*args):
            calls["face"] += 1
            return face_solve(*args)

        def counting_errstate(**kwargs):
            calls["errstate"] += 1
            return errstate(**kwargs)

        monkeypatch.setattr(projection, "_check_forms", counting_check)
        monkeypatch.setattr(projection, "_face_solve", counting_face)
        monkeypatch.setattr(np, "errstate", counting_errstate)
        est = np.array([[2.0, 0.5], [2.0, 2.0], [0.5, 3.0]])
        cov = np.tile(np.eye(2), (3, 1, 1))
        active = np.zeros((3, 2), dtype=bool)
        assert _box_project(est, cov, _ConstraintTable(np.eye(2), np.ones(2)), 0, active, str) == 0
        assert active.sum(axis=1).tolist() == [1, 2, 1]
        assert calls == {"check": 1, "errstate": 1, "face": 2}
        np.testing.assert_allclose(est, [[1.0, 0.5], [1.0, 1.0], [0.5, 1.0]], atol=1e-15)

    def test_zero_row_set_leaves_the_runs_untouched(self):
        # as `project` does for q = 0: nothing to violate, counter unchanged
        est = np.array([[2.0, 3.0], [-1.0, 0.5]])
        cov = np.array([np.eye(2), 2.0 * np.eye(2)])
        z, P = est.copy(), cov.copy()
        active = np.zeros((2, 0), dtype=bool)
        empty = _ConstraintTable(np.zeros((0, 2)), np.zeros(0))
        assert _box_project(z, P, empty, 3, active, str) == 3
        assert np.array_equal(z, est) and np.array_equal(P, cov)


class TestOneRoute:
    """`project_attack` and `project_state` are the batch of one of
    `_box_project`: an entry's result alone equals its result inside a
    larger call, bit for bit, in estimate, covariance and active rows."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_vehicle_boxes_alone_equal_the_stacked_call(self, seed):
        # the kernel's layout: attack entries in the leading two of four
        # coordinates, state entries in all four, on the stacked rows of
        # both boxes, interleaved
        rng = np.random.default_rng(seed)
        params = VehicleParams()
        A_in, b_in, B_st, c_st = build_constraints(rng.uniform(-0.5, 0.5, size=2), params)
        d_box = (np.array([-b_in[1], -b_in[3]]), np.array([b_in[0], b_in[2]]), np.arange(2))
        x_box = (np.array([0.0, 0.0, -np.inf, 0.0]),
                 np.array([params.x_max, params.y_max, np.inf, params.v_max]), np.array([0, 1, 3]))
        d_est, d_P, _ = _violating_runs(rng, 2, A_in, b_in, None, d_box, 4)
        x_est, x_P, _ = _violating_runs(rng, 4, B_st, c_st, None, x_box, 4)
        sets = [(A_in, b_in, d_est, d_P), (B_st, c_st, x_est, x_P)]
        est, P, A, b, width, which = _stack_sets(sets, rng.permutation(8))
        z, cov = est.copy(), P.copy()
        active = np.zeros((8, len(A)), dtype=bool)
        _box_project(z, cov, _ConstraintTable(A, b, width), 0, active, str)
        for h, w in enumerate(width):
            if which[h] == 0:
                e, P_e, res = project_attack(_Duck(d_hat=est[h, :w], P_d=P[h, :w, :w]), A_in, b_in)
                rows = np.flatnonzero(active[h])
            else:
                e, P_e, res = project_state(_Duck(x_hat=est[h], P_x=P[h]), B_st, c_st)
                rows = np.flatnonzero(active[h]) - len(b_in)
            assert np.array_equal(e, z[h, :w]), h
            assert np.array_equal(P_e, cov[h, :w, :w]), h
            assert res.active_set == tuple(rows.tolist()), h

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_polytopes_alone_equal_the_batch(self, seed):
        # runs violating one to three rows, several of them past the face
        # solve, next to runs inside the set
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        z0 = rng.normal(size=n)
        A = rng.normal(size=(int(rng.integers(2, 7)), n))
        b = A @ z0 + np.abs(rng.normal(size=len(A))) + 0.05
        est, P, _ = _violating_runs(rng, n, A, b, z0, None, 6)
        est[4] = z0
        z, cov = est.copy(), P.copy()
        active = np.zeros((6, len(A)), dtype=bool)
        _box_project(z, cov, _ConstraintTable(A, b), 0, active, str)
        for r in range(6):
            x_hat, P_x, res = project_state(_Duck(x_hat=est[r], P_x=P[r]), A, b)
            assert np.array_equal(x_hat, z[r]), r
            assert np.array_equal(P_x, cov[r]), r
            assert res.active_set == tuple(np.flatnonzero(active[r]).tolist()), r
            d_hat, P_d, _ = project_attack(_Duck(d_hat=est[r], P_d=P[r]), A, b)
            assert np.array_equal(d_hat, x_hat) and np.array_equal(P_d, P_x), r
        # the run inside the set is left as it is
        assert not active[4].any() and np.array_equal(z[4], z0)


class TestCheckForms:
    # on P = s I and the row (1, 0), the gain (1, delta)' is off the exact
    # oblique gain (1, 0)' by delta, and the two covariance forms then differ
    # by s delta at most; with max|gain A_bar| = 1 the full bound is
    # 1e-8 (1 + s) (1 + 1)
    s = 100.0
    Ab = np.array([[1.0, 0.0]])

    def forms(self, err):
        return self.s * np.eye(2), np.array([[1.0], [err / self.s]]), self.Ab

    def test_error_above_the_floor_within_the_scaled_bound_passes(self):
        # 1e-8 < 5e-7 <= 1e-8 (1 + s)
        P, gain, Ab = self.forms(5e-7)
        _check_forms(P, gain @ Ab)
        # and past 1e-8 (1 + s) while within the factor 1 + max|gain A_bar|
        P, gain, Ab = self.forms(1.5e-6)
        _check_forms(P, gain @ Ab)

    def test_error_beyond_the_full_bound_raises_and_names_the_entry(self):
        P, gain, Ab = self.forms(3e-6)
        with pytest.raises(RuntimeError, match="forms disagree"):
            _check_forms(P, gain @ Ab)
        (P0, g0, A0), (P1, g1, A1) = self.forms(5e-7), self.forms(3e-6)
        with pytest.raises(RuntimeError, match="forms disagree at entry 1;"):
            _check_forms(np.array([P0, P1]), np.array([g0 @ A0, g1 @ A1]),
                         lambda i: f"entry {i}")


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
        # the wrappers project with the caller's covariance as given: a
        # lopsided one stays lopsided off the active row, where the two
        # projected covariance forms then disagree
        P = np.eye(3)
        P[1, 2] = 0.5
        atk = _Duck(d_hat=np.array([2.0, 0.0, 0.0]), P_d=P)
        A, b = np.array([[1.0, 0.0, 0.0]]), np.array([1.0])
        with pytest.raises(RuntimeError, match="forms disagree at the attack estimate;"):
            project_attack(atk, A, b)
        with pytest.raises(RuntimeError, match="forms disagree at k=2, state;"):
            project_state(_Duck(x_hat=atk.d_hat, P_x=P), A, b, where="k=2, state")

    def test_wrappers_passthrough_without_violation(self):
        upd = _Duck(x_hat=np.array([1.0, 1.0]), P_x=np.eye(2))
        x_hat, P_x, res = project_state(upd, np.array([[1.0, 0.0]]), np.array([5.0]))
        np.testing.assert_array_equal(x_hat, upd.x_hat)
        np.testing.assert_allclose(P_x, np.eye(2))
        assert res.active_set == ()
