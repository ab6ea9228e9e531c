"""Reference routines the tests check the package against.

`qp_oracle` solves the projection QP by brute-force enumeration of active
subsets through the KKT system, an independent route to what `project`
computes; `range_qp_oracle` restricts it to e + range(P) for a positive
semidefinite P. `transformed_dynamics` is the closed-loop error transition of
the compensated filter, a stability diagnostic. `audit_reference` tallies
`run_ensemble`'s projection audit one step at a time; `step_reference` and
`ensemble_reference` record `simulate`/`monte_carlo`'s and `run_ensemble`'s
outputs one step at a time from the kernel's state, read through `x`,
`x_true`, the views `batch_x_raw` ... `batch_Pd_raw` and the counts and maxima
`batch_in_act`, `batch_st_act` and `batch_mcg_dev`, which the package does
not need. `pinv_care_step` is `care_step` through an independent
general-LTV chain: a time update with the estimate/attack cross covariance
P_xd and a measurement update with a Moore-Penrose gain.
"""

import numpy as np

from care_filter.detector import DetectorConfig, DetectorState, cusum_update, detection_statistic
from care_filter.ensemble import (
    _D,
    _P11,
    _P12,
    _P22,
    _PD,
    _TRANSIENT,
    _Batch,
    _attacks,
    _now,
    _states,
)
from care_filter.estimator import (
    AttackEstimate,
    EstimatorState,
    Prediction,
    StepOutput,
    TimeUpdated,
    UnconstrainedUpdate,
)
from care_filter.projection import (
    InfeasibleConstraintsError,
    _as_rows,
    project_attack,
    project_state,
)


def qp_oracle(estimate, W, A, b):
    """Brute-force reference solution of the projection QP.

    Enumerates every subset of constraint rows as a candidate active set,
    solves the KKT system by least squares with one step of iterative
    refinement, and keeps the feasible candidate with nonnegative
    multipliers and the smallest objective. Rows count as
    met to within 1e-9 (1 + max |A||z| + |b|), the size of the terms A z - b
    sums, so an optimum far from e is judged at its own scale. Rows are
    rescaled to unit norm first, so a row's scale changes neither which
    points meet it nor the conditioning of the KKT solves.
    Exponential in the row count; intended for verification on small
    instances only.
    """
    e = np.asarray(estimate, dtype=float).ravel()
    n = e.size
    W = np.asarray(W, dtype=float)
    A, b, _ = _as_rows(A, b, n)
    q = A.shape[0]
    if q > 20:
        raise ValueError("oracle enumeration is limited to 20 constraint rows")

    # a_i z <= b_i on unit rows, a_i / |a_i|: the same set, whose KKT solves
    # and tolerance do not depend on the rows' scale
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0.0] = 1.0
    A, b = A / norms[:, None], b / norms

    def tol(A, b, z):
        return 1e-9 * (1.0 + (np.abs(A) @ np.abs(z) + np.abs(b)).max())

    best_z = None
    best_obj = np.inf
    We = W @ e
    for mask in range(1 << q):
        rows = [i for i in range(q) if mask >> i & 1]
        k = len(rows)
        if k > n:
            continue
        if k == 0:
            z = e.copy()
        else:
            As = A[rows]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = W
            kkt[:n, n:] = As.T
            kkt[n:, :n] = As
            rhs = np.concatenate([We, b[rows]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            # one step of iterative refinement: lstsq's error grows with the
            # multipliers, which nearly parallel rows make large
            sol += np.linalg.lstsq(kkt, rhs - kkt @ sol, rcond=None)[0]
            z, mult = sol[:n], sol[n:]
            if np.max(np.abs(As @ z - b[rows])) > tol(As, b[rows], z):
                continue
            if mult.size and mult.min() < -1e-9:
                continue
        if q and np.max(A @ z - b) > tol(A, b, z):
            continue
        obj = float((z - e) @ W @ (z - e))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_z = z
    if best_z is None:
        raise InfeasibleConstraintsError("no KKT candidate satisfies all constraints")
    return best_z


def range_qp_oracle(estimate, P, A, b):
    """`qp_oracle` restricted to e + range(P), weighted by P^+.

    Writes z = e + U y over an orthonormal basis U of range(P), the
    eigenvectors whose eigenvalues exceed 1e-12 of the largest, and solves
    for y in the metric diag(1 / eigenvalue). Raises
    InfeasibleConstraintsError when e + range(P) misses the feasible set.
    """
    e = np.asarray(estimate, dtype=float).ravel()
    A, b, _ = _as_rows(A, b, e.size)
    eig, V = np.linalg.eigh(0.5 * (P + P.T))
    keep = eig > 1e-12 * eig[-1]
    U = V[:, keep]
    # a row in null(P) keeps only rounding in A U; it is the zero row it
    # stands for, not a direction for qp_oracle to rescale to unit norm
    AU = A @ U
    AU[np.linalg.norm(AU, axis=1) <= 1e-12 * np.linalg.norm(A, axis=1)] = 0.0
    y = qp_oracle(np.zeros(U.shape[1]), np.diag(1.0 / eig[keep]), AU, b - A @ e)
    return e + U @ y


def transformed_dynamics(A, C, G, M, gamma_bar):
    """Closed-loop error transition of the compensated filter.

    Returns (I - G M (C G M)^+ C) (I - G M C) A gamma_bar, or None when
    C G M is too ill conditioned to invert (condition number above 1e12),
    in which case the stability diagnostic is unavailable for that step.
    """
    CGM = C @ G @ M
    s = np.linalg.svd(CGM, compute_uv=False)
    if s[0] <= 0.0 or s[-1] <= 1e-12 * s[0]:
        return None
    inner = np.linalg.solve(CGM, C)
    A_bar = (np.eye(A.shape[0]) - G @ M @ C) @ A
    return (np.eye(A.shape[0]) - G @ M @ inner) @ A_bar @ gamma_bar


def _state_cov(blk):
    """The 4 x 4 covariances of a step's columns, zero off the channels."""
    var = _now(_states, blk[_P11:_P22 + 1])
    P = np.zeros((len(var), 4, 4))
    P[:, range(4), range(4)] = var
    P[:, [0, 3, 1, 2], [3, 0, 2, 1]] = np.repeat(blk[_P12].swapaxes(-1, -2).reshape(-1, 2), 2, 1)
    return P


def _attack_cov(var):
    """The diagonal 2 x 2 attack covariances of variances var (..., 2)."""
    return var[..., None] * np.eye(2)


# `_Batch`'s values of its last step beside its own x and x_true, one row per
# column, each a new array: the unprojected state, the final and unprojected
# attack estimates, and the covariances of all four
def batch_x_raw(batch):
    return _now(_states, batch.raw)


def batch_d(batch):
    return _now(_attacks, batch.fin[_D]).copy()


def batch_d_raw(batch):
    return _now(_attacks, batch.raw[_D]).copy()


def batch_P(batch):
    return _state_cov(batch.fin)


def batch_P_raw(batch):
    return _state_cov(batch.raw)


def batch_Pd(batch):
    return _attack_cov(_now(_attacks, batch.fin[_PD]))


def batch_Pd_raw(batch):
    return _attack_cov(_now(_attacks, batch.raw[_PD]))


# per column, the active bounds of the attack and of the state in `_Batch`'s mask, and the
# largest |M C G - I| of its dev, each a new array
def batch_in_act(batch):
    return np.count_nonzero(batch.mask[2], axis=1).reshape(-1)


def batch_st_act(batch):
    return np.count_nonzero(batch.mask[:2], axis=(0, 2)).reshape(-1)


def batch_mcg_dev(batch):
    return np.maximum(batch.dev[:, 0], batch.dev[:, 1]).reshape(-1)


def _tally(audit, which, e_con, e_unc, W, tr_pre, tr_post):
    """Add one step's comparisons of the entries of one constraint set."""
    m_w = np.sqrt(np.einsum('ri,rij,rj->r', e_con, W, e_con)) \
        - np.sqrt(np.einsum('ri,rij,rj->r', e_unc, W, e_unc))
    m_e = np.linalg.norm(e_con, axis=1) - np.linalg.norm(e_unc, axis=1)
    audit[f"active_{which}"] += len(e_con)
    audit[f"viol_{which}_weighted"] += int((m_w > 1e-10).sum())
    audit[f"viol_{which}_euclid"] += int((m_e > 1e-10).sum())
    audit[f"worst_{which}_weighted"] = max(audit[f"worst_{which}_weighted"], float(m_w.max()))
    audit[f"worst_{which}_euclid"] = max(audit[f"worst_{which}_euclid"], float(m_e.max()))
    audit[f"viol_trace_{which}"] += int((tr_post > tr_pre).sum())
    audit[f"viol_strict_{which}"] += int((tr_post >= tr_pre).sum())


def audit_reference(config, runs):
    """The projection audit of `run_ensemble(config, runs, projection_audit=True)`,
    tallied one step at a time.

    Steps the kernel's care batch and, after each step, compares every run
    whose projection was active and whose true value lies in that set: the
    projected against the unprojected error, in the projection metric (the
    inverse unprojected covariance, by `np.linalg.inv` of the assembled 2 x 2
    and 4 x 4 matrices, so no inverse is shared with the kernel's audit) and
    in the Euclidean one, and the covariance traces after against before. A
    true value outside its set counts once per run and step in
    truth_infeasible_steps.
    """
    batch = _Batch(config, range(runs), ("care",))
    audit = {"truth_infeasible_steps": 0}
    for which in ("x", "d"):
        audit.update({f"active_{which}": 0, f"viol_{which}_weighted": 0,
                      f"viol_{which}_euclid": 0, f"worst_{which}_weighted": -np.inf,
                      f"worst_{which}_euclid": -np.inf, f"viol_trace_{which}": 0,
                      f"viol_strict_{which}": 0})
    for k in range(1, config.horizon + 1):
        batch.step(k)
        d_true, x_true = batch.d_true[k - 1], batch.x_true
        d_feas = bool((batch.A_in @ d_true <= batch.b_in).all())
        x_feas = (x_true @ batch.B_st.T <= batch.c_st).all(axis=1)
        audit["truth_infeasible_steps"] += (0 if d_feas else runs) + int((~x_feas).sum())
        ar = np.flatnonzero((batch_in_act(batch) > 0) & d_feas)
        if ar.size:
            _tally(audit, "d", batch_d(batch)[ar] - d_true, batch_d_raw(batch)[ar] - d_true,
                   np.linalg.inv(batch_Pd_raw(batch)[ar]), np.trace(batch_Pd_raw(batch)[ar], axis1=1, axis2=2),
                   np.trace(batch_Pd(batch)[ar], axis1=1, axis2=2))
        ar = np.flatnonzero((batch_st_act(batch) > 0) & x_feas)
        if ar.size:
            _tally(audit, "x", batch.x[ar] - x_true[ar], batch_x_raw(batch)[ar] - x_true[ar],
                   np.linalg.inv(batch_P_raw(batch)[ar]),
                   np.trace(batch_P_raw(batch)[ar], axis1=1, axis2=2),
                   np.trace(batch_P(batch)[ar], axis1=1, axis2=2))
    return audit


def _trace_x(P):
    """Traces of the 4 x 4 covariances P summed in the kernel's channel order,
    (x + v) + (y + psi), so that they are the same floating-point numbers."""
    return (P[:, 0, 0] + P[:, 3, 3]) + (P[:, 1, 1] + P[:, 2, 2])


def _trace_d(Pd):
    return Pd[:, 1, 1] + Pd[:, 0, 0]


def step_reference(config, run_indices, filters, detector):
    """The records of `simulate` and `monte_carlo` on `run_indices`, read from
    `_Batch`'s properties after every step.

    Returns a dict: each FilterRun field of `harness` ((columns, steps, ...),
    column f * R + i as in the batch), x_true (runs, K + 1, 4), and per column
    max_mcg_dev and max_trace_pxu, the largest trace of P_raw past step
    _TRANSIENT. With the detector on, detection_statistic and cusum_update
    run once per step on that step's columns; off, stats, cusum and alarms
    stay zero.
    """
    batch = _Batch(config, run_indices, filters)
    N = len(batch_in_act(batch))
    det_cfg = DetectorConfig.from_parameters(config.alpha, df=2, phi=config.phi)
    det = DetectorState(S=np.zeros(N))
    zero = np.zeros(N)
    rec = {"x_true": [batch.x_true], "x_hat": [batch.x], "x_hat_raw": [batch.x],
           "trace_px": [_trace_x(batch_P(batch))], "trace_px_raw": [_trace_x(batch_P(batch))],
           "stats": [zero], "cusum": [zero], "alarms": [zero > 0.0]}
    for f in ("d_hat", "d_hat_raw", "trace_pd", "trace_pd_raw", "input_active", "state_active"):
        rec[f] = []
    max_mcg, max_pxu = np.zeros(N), np.zeros(N)
    for k in range(1, config.horizon + 1):
        batch.step(k)
        stat, alarm = zero, zero > 0.0
        if detector:
            stat = detection_statistic(batch_d(batch), batch_Pd(batch))
            det, alarm = cusum_update(det, stat, det_cfg)
        for f, v in (("x_true", batch.x_true), ("x_hat", batch.x), ("x_hat_raw", batch_x_raw(batch)),
                     ("d_hat", batch_d(batch)), ("d_hat_raw", batch_d_raw(batch)),
                     ("trace_px", _trace_x(batch_P(batch))), ("trace_px_raw", _trace_x(batch_P_raw(batch))),
                     ("trace_pd", _trace_d(batch_Pd(batch))), ("trace_pd_raw", _trace_d(batch_Pd_raw(batch))),
                     ("stats", stat), ("cusum", det.S if detector else zero), ("alarms", alarm),
                     ("input_active", batch_in_act(batch)), ("state_active", batch_st_act(batch))):
            rec[f].append(np.array(v))  # a property may be a view of the kernel's state
        np.maximum(max_mcg, batch_mcg_dev(batch), out=max_mcg)
        if k > _TRANSIENT:
            np.maximum(max_pxu, _trace_x(batch_P_raw(batch)), out=max_pxu)
    out = {f: np.stack(v, axis=1) for f, v in rec.items()}
    out["max_mcg_dev"], out["max_trace_pxu"] = max_mcg, max_pxu
    return out


def ensemble_reference(config, runs, constrained):
    """`run_ensemble(config, runs, constrained, record_states=True)`'s err_sq,
    maxima, trajectories and fallback count, read from `_Batch`'s properties
    after every step: err_sq from the state rows in state order, the trace
    maxima of P_raw and P_d raw past step _TRANSIENT, as `step_reference`
    sums them."""
    batch = _Batch(config, range(runs), ("care",) if constrained else ("ise",))
    K = config.horizon
    err_sq = np.empty((runs, K))
    X, D, XT = [batch.x], [], [batch.x_true]
    max_pxu = max_cov = max_mcg = 0.0
    for k in range(1, K + 1):
        batch.step(k)
        e2 = (batch.x - batch.x_true) ** 2
        err_sq[:, k - 1] = ((e2[:, 0] + e2[:, 1]) + e2[:, 2]) + e2[:, 3]
        X.append(np.array(batch.x))
        D.append(np.array(batch_d(batch)))
        XT.append(np.array(batch.x_true))
        max_mcg = max(max_mcg, float(batch_mcg_dev(batch).max()))
        if k > _TRANSIENT:
            tru = float(_trace_x(batch_P_raw(batch)).max())
            max_pxu = max(max_pxu, tru)
            max_cov = max(max_cov, tru, float(_trace_d(batch_Pd_raw(batch)).max()))
    return {"err_sq": err_sq, "max_trace_pxu": max_pxu, "max_cov_trace": max_cov,
            "max_mcg_dev": max_mcg, "fallback_projections": batch.fallbacks,
            "x_hat": np.stack(X, axis=1), "d_hat": np.stack(D, axis=1),
            "x_true": np.stack(XT, axis=1)}


def _sym(X):
    return 0.5 * (X + X.T)


def _pinv_predict(state, model, u):
    k = state.k
    A = model.A(k)
    x = A @ state.x_hat + model.B(k) @ np.asarray(u, dtype=float).ravel()
    P = _sym(A @ state.P_x @ A.T + model.Q(k))
    return Prediction(x, P, k + 1)


def _pinv_estimate_attack(pred, model, prev_cov, y):
    k = pred.k
    C = model.C(k)
    G = model.G(k - 1)
    S = C @ pred.P_x @ C.T + model.R(k)
    R_tilde = _sym(np.linalg.inv(S))
    CG = C @ G
    T = CG.T @ R_tilde
    P_d = _sym(np.linalg.inv(_sym(T @ CG)))
    M = P_d @ T
    d_hat = M @ (np.asarray(y, dtype=float).ravel() - C @ pred.x_hat)
    P_xd = -prev_cov @ model.A(k - 1).T @ C.T @ M.T
    return AttackEstimate(d_hat, P_d, P_xd, M, R_tilde, k)


def _pinv_time_update(pred, atk, model, prev):
    km1 = prev.k
    k = pred.k
    A = model.A(km1)
    G = model.G(km1)
    C = model.C(k)
    R = model.R(k)
    x_star = pred.x_hat + G @ atk.d_hat
    cross = A @ atk.P_xd @ G.T
    GM = G @ atk.M
    GMCQ = GM @ C @ model.Q(km1)
    # pred.P_x already carries A P A' + Q
    P_star = _sym(
        pred.P_x + cross + cross.T + G @ atk.P_d @ G.T - GMCQ - GMCQ.T
    )
    CGMR = C @ GM @ R
    R_star = _sym(C @ P_star @ C.T - CGMR - CGMR.T + R)
    return TimeUpdated(x_star, P_star, R_star, k)


def _pinv_measurement_update(tu, atk, model, y):
    k = tu.k
    C = model.C(k)
    R = model.R(k)
    G = model.G(k - 1)
    n_y = R.shape[0]
    GMR = G @ atk.M @ R
    # Moore-Penrose inverse through the eigendecomposition (R* is
    # symmetric); eigenvalues below n_y * ||R*|| * 1e-12 are treated as 0.
    w, Vecs = np.linalg.eigh(tu.R_star)
    absw = np.abs(w)
    keep = absw > n_y * 1e-12 * absw.max() if absw.max() > 0.0 else absw > 0.0
    inv_w = np.where(keep, 1.0, 0.0) / np.where(keep, w, 1.0)
    Rs_pinv = (Vecs * inv_w) @ Vecs.T
    L = (tu.P_x @ C.T - GMR) @ Rs_pinv
    y = np.asarray(y, dtype=float).ravel()
    x_u = tu.x_hat + L @ (y - C @ tu.x_hat)
    ImLC = np.eye(tu.x_hat.size) - L @ C
    t1 = ImLC @ GMR @ L.T
    P_u = _sym(t1 + t1.T + ImLC @ tu.P_x @ ImLC.T + L @ R @ L.T)
    return UnconstrainedUpdate(x_u, P_u, L, k)


def pinv_care_step(state, model, constraints, u, y):
    """One step of `care_step` through the pseudoinverse chain.

    Predict; the weighted least-squares attack estimate with its cross
    covariance P_xd = -P A' C' M'; the time update
    P* = P^- + A P_xd G' + (A P_xd G')' + G P_d G' - GMCQ - (GMCQ)'; the
    gain L = (P* C' - G M R) R*^+ with eigenvalues of R* below
    n_y ||R*|| 1e-12 dropped; the Joseph-form posterior covariance; then
    the package's projections, none with constraints=None. It checks
    neither identifiability nor finiteness. Returns the package's StepOutput.
    """
    pred = _pinv_predict(state, model, u)
    atk = _pinv_estimate_attack(pred, model, state.P_x, y)
    tu = _pinv_time_update(pred, atk, model, state)
    upd = _pinv_measurement_update(tu, atk, model, y)
    k = pred.k
    if constraints is None:
        return StepOutput(EstimatorState(upd.x_hat, upd.P_x, k), pred, atk, tu, upd,
                          atk.d_hat, atk.P_d, None, None)
    d_hat, P_d, in_proj = project_attack(
        atk, constraints.input_matrix(k - 1), constraints.input_bound(k - 1))
    x_hat, P_x, st_proj = project_state(
        upd, constraints.state_matrix(k), constraints.state_bound(k))
    return StepOutput(EstimatorState(x_hat, P_x, k), pred, atk, tu, upd,
                      d_hat, P_d, in_proj, st_proj)
