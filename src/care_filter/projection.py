"""Covariance-weighted projection onto linear inequality constraints.

`_project_one` solves min (z - e)' W (z - e) subject to A z <= b for one
estimate e, the route of `project`, `project_attack` and `project_state`.
(The vehicle kernel `ensemble._Batch` projects onto its boxes in a closed
form of its own, under this module's tolerance.) The weight is the inverse
of the estimation error covariance P, so the projector is oblique:
gain = P A_bar' (A_bar P A_bar')^{-1} for the active rows A_bar. e is first
solved on the face of its violated rows (the active-set idea of Bemporad et
al., Automatica 38(1), 2002). A rejected face goes to a primal-dual
active-set search, `_project_core`, which only chooses the rows: start at
the unconstrained optimum, repeatedly drive the most violated constraint to
equality, dropping working rows whose multipliers would cross zero. Partial
dual steps make it finitely convergent, and an unbounded dual step proves
that no feasible point is reachable, unless its face is a vertex of nearly
dependent rows that passes the KKT test. `_face_solve` solves the faces and
accepts them on the KKT conditions of its own output, after at most one step
of iterative refinement (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 12); the covariance is then (I - G A_O) P (I - G A_O)'
(Simon, IET CTA 4(8), 2010). All of it is written in P alone, so it also
serves a positive semidefinite P, as left by an earlier projection: the
estimate then moves only within e + range(P).

The small symmetric-matrix helpers here (`_sym`, `_sym_inv`, `_eig_bounds`,
`_mv`) take one matrix or a stack alike, and the rest of the package uses
them for its own small-matrix algebra.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActiveSetLimitError",
    "InfeasibleConstraintsError",
    "ProjectionResult",
    "project",
    "project_attack",
    "project_state",
]

_FEAS_REL = 1e-10
_DEP_REL = 1e-11
_NULL_REL = 1e-14
_COND_LIMIT = 1e12
# the 2x2 adjugate reads the upper triangle only, through flat row-major
# positions: _ADJ2 picks (d, b; b, a) from (a, b; ., d), signed by _ADJ_SIGN
_ADJ2 = np.array([[3, 1], [1, 0]])
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


class InfeasibleConstraintsError(ValueError):
    """The constraint rows admit no feasible point."""


class ActiveSetLimitError(RuntimeError):
    """Active-set search hit its iteration cap without converging.

    Carries the last iterate for diagnosis: estimate, active_set,
    multipliers, max_violation.
    """

    def __init__(self, message, estimate=None, active_set=None, multipliers=None, max_violation=None):
        super().__init__(message)
        self.estimate = estimate
        self.active_set = active_set
        self.multipliers = multipliers
        self.max_violation = max_violation


@dataclass(frozen=True, slots=True)
class ProjectionResult:
    """Outcome of one projection.

    estimate: the projected vector.
    active_set: constraint row indices tight at the optimum (sorted).
    multipliers: KKT multipliers aligned with active_set, all >= 0.
    gain: oblique projection gain, shape (n, len(active_set)).
    covariance: (I - gain A_bar) P (I - gain A_bar)' for P = W^{-1}.
    """

    estimate: np.ndarray
    active_set: tuple
    multipliers: np.ndarray
    gain: np.ndarray
    covariance: np.ndarray


def _as_rows(A, b, n):
    """The checked rows of A z <= b, each row and its bound divided by
    scale, the power of two that brings the row's norm into [1/2, 1):
    exactly the same set (a zero row keeps scale 1). Returns (A, b, scale)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError("constraint matrix must have one column per estimate entry")
    if A.shape[0] != b.size:
        raise ValueError("constraint matrix and bound vector disagree on row count")
    if not np.isfinite(A).all():
        raise ValueError("constraint matrix must be finite")
    if not np.isfinite(b).all():
        raise ValueError("constraint bound must be finite")
    scale = np.ldexp(1.0, np.frexp(np.sqrt(np.add.reduce(A * A, axis=1)))[1])
    return A / scale[:, None], b / scale, scale


def _sym(X):
    return 0.5 * (X + X.swapaxes(-1, -2))


def _mv(X, v):
    """X v over the leading axes."""
    return (X @ v[..., None])[..., 0]


def _sym_inv(S):
    """Inverse of a symmetric positive definite matrix or of a stack of
    them. Sizes up to two use the closed form (the adjugate of the upper
    triangle for two), where a singular matrix gives inf or NaN entries;
    LAPACK inverts the symmetrized matrix beyond that, and a matrix it
    cannot invert comes back NaN, the stack's other members inverted
    alone."""
    n = S.shape[-1]
    if n <= 1:
        return 1.0 / S
    if n == 2:
        a, c, b = S[..., 0, 0], S[..., 1, 1], S[..., 0, 1]
        # in C order, so a stack's products take the BLAS calls a lone matrix's do
        adj = np.multiply(S.reshape(S.shape[:-2] + (4,))[..., _ADJ2], _ADJ_SIGN, order="C")
        return adj / (a * c - b * b)[..., None, None]
    try:
        return np.linalg.inv(_sym(S))
    except np.linalg.LinAlgError:
        return np.array([_sym_inv(Sk) for Sk in S]) if S.ndim > 2 else np.full(S.shape, np.nan)


def _eig_bounds(S):
    """(min, max) eigenvalue of a symmetric matrix or of a stack of them;
    closed form for sizes one and two, LAPACK beyond that."""
    n = S.shape[-1]
    if n == 1:
        return S[..., 0, 0], S[..., 0, 0]
    if n == 2:
        # the entries of _sym(S): halving x + x gives x back
        a, c, b = S[..., 0, 0], S[..., 1, 1], 0.5 * (S[..., 0, 1] + S[..., 1, 0])
        half_tr = 0.5 * (a + c)
        disc = np.hypot(0.5 * (a - c), b)
        return half_tr - disc, half_tr + disc
    eig = np.linalg.eigvalsh(_sym(S))
    return eig[..., 0], eig[..., -1]


def _project_core(e, P, A, b, tol, max_iterations=None):
    """Dual active-set search for the rows active at the projection of e
    onto {z : A z <= b} within e + range(P).

    The route of an estimate whose face of violated rows `_project_one`
    rejects, on its scaled rows with its tolerance tol on each row's
    distance (a z - b) / |a|. The weight is P^+, and the search uses P
    itself, so every step stays in e + range(P). A row is added to the
    working set only when its residual variance a'z exceeds _DEP_REL a'P a,
    the share of it the working rows already explain, plus _NULL_REL
    trace(P) |a|^2, the rounding level of P, so A_bar P A_bar' stays
    nonsingular and a row in null(P) never enters. On an unbounded dual
    step, the face of the working rows and the row being added is returned
    if `_face_solve` accepts it as it would a face of violated rows: an
    ill-conditioned vertex the dependence test misread. Otherwise no point
    of e + range(P) is feasible: InfeasibleConstraintsError. max_iterations
    overrides the add/drop budget of 10 * (rows + 1). Returns the indices of
    the rows the search ends with, ascending.
    """
    row_norms = np.linalg.norm(A, axis=1)
    if (b[row_norms == 0.0] < 0.0).any():
        raise InfeasibleConstraintsError("zero constraint row with negative bound")
    # the rows that can be violated, by their index in A
    keep = np.flatnonzero(row_norms > 0.0)
    A, b, row_norms = A[keep], b[keep], row_norms[keep]

    Pw = _sym(P)
    floor = _NULL_REL * float(np.trace(Pw)) * row_norms ** 2
    budget = 10 * (len(b) + 1) if max_iterations is None else int(max_iterations)
    work = []               # working set, insertion order
    lam = np.empty(0)       # multipliers aligned with work
    x = e.copy()
    ops = 0

    while True:
        viol = A @ x - b
        over = viol > tol * row_norms
        if not over.any():
            break
        p = int(np.argmax(np.where(over, viol / row_norms, -np.inf)))
        a = A[p]
        Pa = Pw @ a
        aPa = float(a @ Pa)
        lam_p = 0.0
        while True:
            if work:
                Ab = A[work]
                r = np.linalg.solve(_sym(Ab @ Pw @ Ab.T), Ab @ Pa)
                z = Pa - Pw @ (Ab.T @ r)
            else:
                r = np.empty(0)
                z = Pa
            az = float(a @ z)
            slack = float(a @ x - b[p])
            t_full = slack / az if az > _DEP_REL * aPa + floor[p] else np.inf

            t_block = np.inf
            blocker = -1
            for pos, rj in enumerate(r):
                if rj > 1e-14:
                    cand = lam[pos] / rj
                    if cand < t_block - 1e-15 or (
                        abs(cand - t_block) <= 1e-15 and (blocker < 0 or work[pos] < work[blocker])
                    ):
                        t_block = cand
                        blocker = pos
            t = min(t_full, t_block)
            if not np.isfinite(t):
                face = sorted(work + [p])
                if _face_solve(e, P, A, b, face, A @ e - b, tol * row_norms)[3]:
                    return keep[face]
                raise InfeasibleConstraintsError(
                    f"constraint row {keep[p]} cannot be satisfied: "
                    "no point of e + range(P) is feasible"
                )
            ops += 1
            if ops > budget:
                raise ActiveSetLimitError(
                    "active-set projection exceeded its iteration cap", estimate=x,
                    active_set=tuple(int(keep[w]) for w in work), multipliers=lam,
                    max_violation=float(np.max((A @ x - b) / row_norms)))
            if t > 0.0:
                x = x - t * z
                if lam.size:
                    lam = lam - t * r
                lam_p += t
            if t_full <= t_block:
                work.append(p)
                lam = np.append(lam, lam_p)
                break
            work.pop(blocker)
            lam = np.delete(lam, blocker)

    return keep[sorted(work)]


def _face_solve(e, P, A, b, rows, viol, tol, search=False):
    """The KKT point of e on the face of A's rows `rows`, and its test.

    With A_O those rows and v = A_O e - b_O their residuals from viol, the
    multipliers solve (A_O P A_O') lam = v, G = P A_O' (A_O P A_O')^{-1}
    and z = e - P A_O' lam. z is accepted (ok) on the KKT conditions: lam
    finite and nonnegative, and each row's residual a z - b at most its
    tolerance tol, and at least minus it on the face's rows. A z that misses
    them gets one refinement step z <- z - G (A_O z - b_O) and is tested
    again. A_O P A_O' must also be positive definite above P's rounding
    level, _NULL_REL trace(P) |A_O|_F^2, with a condition number of at most
    _COND_LIMIT. The search's face (search=True) needs neither, as the search
    admitted each row above that level and independent of the others; it
    always takes the refinement step.

    Stationarity holds by construction, z = e - P A_O' lam, so no
    stationarity residual is tested, and the tolerance is not scaled by the
    condition estimate of A_O P A_O'. Rows nearly dependent in the metric of
    P (a condition number up to _COND_LIMIT here, any on the search's face)
    are therefore not covered: there a multiplier within about
    cond(A_O P A_O') x 1e-16 of zero may carry either sign, and a face that
    keeps or drops its row passes on rounding alone. Returns (z, G, lam,
    ok); a rejected face may divide by zero, so the caller sets np.errstate.
    """
    Ao = A[rows]
    PA = P @ Ao.T
    S = Ao @ PA
    lo, hi = _eig_bounds(S)
    Sinv = _sym_inv(S)
    lam = Sinv @ viol[rows]
    G = PA @ Sinv
    z = e - PA @ lam
    floor = 0.0 if search else _NULL_REL * np.trace(P) * (Ao * Ao).sum()
    limit = np.inf if search else _COND_LIMIT
    good = ((lam >= 0.0) & (lam < np.inf)).all() and lo > floor and hi <= limit * lo
    res = A @ z - b
    ok = good and (res <= tol).all() and (res[rows] >= -tol[rows]).all()
    if good and (search or not ok):
        z = z - G @ res[rows]
        res = A @ z - b
        ok = (res <= tol).all() and (res[rows] >= -tol[rows]).all()
    return z, G, lam, ok


def _project_one(e, P, A, b, where):
    """e onto {z : A z <= b} in the metric of the covariance P, its errors
    naming `where`.

    P enters the package here, so an asymmetry beyond _FEAS_REL max|P|
    raises ValueError. e keeps its value and P when no row a_i lies farther
    than _FEAS_REL (1 + |e| + maxb) beyond its hyperplane, a distance
    (a_i z - b_i) / |a_i|, maxb the largest |b_i| / |a_i|. Otherwise the
    face of the rows over that tolerance is solved, or if `_face_solve`
    rejects it, the face of the rows `_project_core` returns, which must
    pass the KKT test or RuntimeError is raised. The result's gain and
    multipliers are the face solve's, divided by each row's scale.
    """
    A, b, scale = _as_rows(A, b, e.size)
    # a non-finite P is named below, once a row is violated
    bound = _FEAS_REL * np.abs(P).max(initial=0.0)
    if np.isfinite(P).all() and np.abs(P - P.T).max(initial=0.0) > bound:
        raise ValueError(f"asymmetric covariance at {where}")
    viol = A @ e - b
    finite = np.isfinite(e).all()
    rows = ()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a non-finite estimate counts as violating, to be reported
        if not (finite and viol.max(initial=0.0) <= 0.0):
            if not (finite and np.isfinite(P).all()):
                raise ValueError(f"non-finite {'covariance' if finite else 'estimate'} at {where}")
            norms = np.sqrt(np.add.reduce(A * A, axis=1))
            # a zero row has no hyperplane, and its distance is left out
            maxb = np.max(np.abs(b) / norms, initial=0.0, where=norms > 0.0)
            tol = _FEAS_REL * (1.0 + np.sqrt(np.add.reduce(e ** 2)) + maxb)
            tol_rows = tol * norms
            rows = np.flatnonzero(viol > tol_rows)
        if not len(rows):
            return ProjectionResult(e.copy(), (), np.empty(0), np.empty((e.size, 0)), P.copy())
        z, G, lam, ok = _face_solve(e, P, A, b, rows, viol, tol_rows)
        if not ok:
            try:
                rows = _project_core(e, P, A, b, tol)
            except (ActiveSetLimitError, InfeasibleConstraintsError) as err:
                err.args = (f"{err} at {where}",)
                raise
            z, G, lam, ok = _face_solve(e, P, A, b, rows, viol, tol_rows, search=True)
            if not ok:
                raise RuntimeError(f"the active-set search's face fails its KKT test at {where}")
        GA = G @ A[rows]
        short = P - GA @ P
        cov = _sym(short - short @ GA.T)
    return ProjectionResult(z, tuple(rows.tolist()), lam / scale[rows], G / scale[rows], cov)


def project(estimate, W, A, b) -> ProjectionResult:
    """Project `estimate` onto {z : A z <= b} in the metric of SPD weight W."""
    e = np.asarray(estimate, dtype=float).ravel()
    W = np.asarray(W, dtype=float)
    if W.shape != (e.size, e.size):
        raise ValueError("weight matrix shape does not match the estimate")
    if not np.isfinite(W).all():
        raise ValueError("weight matrix must be finite")
    Wsym = _sym(W)
    try:
        np.linalg.cholesky(Wsym)
    except np.linalg.LinAlgError:
        raise ValueError("weight matrix must be symmetric positive definite") from None
    return _project_one(e, _sym(np.linalg.inv(Wsym)), A, b, "the estimate")


def project_attack(atk, A, b, where="the attack estimate"):
    """Project an attack estimate onto its inequality set.

    `atk` carries d_hat and P_d (any object with those attributes works).
    Returns (d_hat, P_d, ProjectionResult); errors name `where`.
    """
    res = _project_one(np.asarray(atk.d_hat, float).ravel(), np.asarray(atk.P_d, float),
                       A, b, where)
    return res.estimate, res.covariance, res


def project_state(upd, B, c, where="the state estimate"):
    """Project a state estimate onto {x : B x <= c}.

    `upd` carries x_hat and P_x. Returns (x_hat, P_x, ProjectionResult);
    errors name `where`.
    """
    res = _project_one(np.asarray(upd.x_hat, float).ravel(), np.asarray(upd.P_x, float),
                       B, c, where)
    return res.estimate, res.covariance, res
