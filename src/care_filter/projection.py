"""Covariance-weighted projection onto linear inequality constraints.

Solves min (z - e)' W (z - e) subject to A z <= b with a primal-dual
active-set search: start at the unconstrained optimum, repeatedly pick the
most violated (row-normalized) constraint and drive it to equality, dropping
working rows whose multipliers would cross zero along the way. Partial dual
steps make the iteration finitely convergent, and an unbounded dual step is
a proof that no feasible point is reachable. The weight is the inverse of
the estimation error covariance, so the projector is oblique:
gain = P A_bar' (A_bar P A_bar')^{-1} for active rows A_bar with P = W^{-1}.
The search is written in P alone, so it also serves a positive semidefinite
P, as left by an earlier projection: the estimate then moves only within
e + range(P), the directions the covariance gives variance to.

The small symmetric-matrix helpers here (`_sym`, `_sym_inv`, `_eig_bounds`,
`_check_forms`) take one (n, n) matrix or a (B, n, n) stack alike, and the
rest of the package uses them for its own small-matrix algebra.
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
    return A, b


def _sym(X):
    return 0.5 * (X + X.swapaxes(-1, -2))


def _sym_inv(S):
    """Inverse of a symmetric positive definite matrix or of a stack of
    them. Sizes one and two use the closed-form adjugate of the upper
    triangle, where a singular matrix gives inf or NaN entries; LAPACK
    inverts the symmetrized matrix beyond that, and a matrix it cannot
    invert comes back NaN, the stack's other members inverted alone."""
    n = S.shape[-1]
    if n == 1:
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
    S = _sym(S)
    if n == 2:
        a, c, b = S[..., 0, 0], S[..., 1, 1], S[..., 0, 1]
        half_tr = 0.5 * (a + c)
        disc = np.hypot(0.5 * (a - c), b)
        return half_tr - disc, half_tr + disc
    eig = np.linalg.eigvalsh(S)
    return eig[..., 0], eig[..., -1]


_FORMS_DISAGREE = "projected covariance forms disagree{}; active-set solve is unreliable"


def _check_forms(P, gain, Ab, where=None):
    """Self-check of projected covariances, one matrix or a stack.

    Assembles (I - gain A_bar) P (I - gain A_bar)' in symmetric form and
    compares it with the short form (I - gain A_bar) P, which it equals
    for an exact oblique projection. Raises RuntimeError when they disagree
    beyond 1e-8 (1 + max|GA|)(1 + max|P|) at a stack position, GA = gain
    A_bar, which scales the bound with the term GA P the short form
    subtracts; names where(i) for i the first such position when a namer
    is given, and otherwise returns the symmetric form.
    """
    GA = gain @ Ab
    short = P - GA @ P
    sym = _sym(short - short @ GA.swapaxes(-1, -2))
    diff = np.abs(sym - short)
    # 1e-8 is the bound's floor: below it (NaN is not) no bound is computed
    if not diff.max(initial=0.0) <= 1e-8:
        err = diff.max(axis=(-2, -1))
        bound = 1e-8 * (1.0 + np.abs(P).max(axis=(-2, -1)))
        bad = err > bound * (1.0 + np.abs(GA).max(axis=(-2, -1)))
        if bad.any():
            at = "" if where is None else f" at {where(np.argmax(bad))}"
            raise RuntimeError(_FORMS_DISAGREE.format(at))
    return sym


def _project_core(e, P, A, b, max_iterations=None):
    """Dual active-set projection of e onto {z : A z <= b} within e + range(P).

    The weight is P^+, and the search uses P itself: P a, A_bar P A_bar' and
    the gain P A_bar' (A_bar P A_bar')^{-1}. A rank-deficient P therefore
    needs no special case; every step stays in e + range(P). A row is added
    to the working set only when its residual variance a'z exceeds
    _DEP_REL a'P a, the share of it the working rows already explain, plus
    _NULL_REL trace(P) |a|^2, the rounding level of P, so A_bar P A_bar'
    stays nonsingular and a row in null(P) never enters. When e + range(P)
    misses the feasible set, the dual step is unbounded and
    InfeasibleConstraintsError is raised. Once a row is violated, a
    non-finite estimate or covariance raises ValueError. `_check_forms`
    assembles the projected covariance in the symmetric form
    (I - gain A_bar) P (I - gain A_bar)' and checks it.
    """
    n = e.size
    A, b = _as_rows(A, b, n)
    q = A.shape[0]

    def untouched():
        return ProjectionResult(e.copy(), (), np.empty(0), np.empty((n, 0)), _sym(P))

    if q == 0:
        return untouched()

    # cheapest possible exit: every constraint satisfied outright, no
    # tolerance or normalization needed
    if (A @ e - b).max() <= 0.0:
        return untouched()
    for field, X in (("estimate", e), ("covariance", P)):
        if not np.isfinite(X).all():
            raise ValueError(f"non-finite {field}")

    row_norms = np.linalg.norm(A, axis=1)
    zero_rows = row_norms == 0.0
    index_map = None
    if zero_rows.any():
        if (b[zero_rows] < 0.0).any():
            raise InfeasibleConstraintsError("zero constraint row with negative bound")
        keep = ~zero_rows
        A, b, row_norms = A[keep], b[keep], row_norms[keep]
        index_map = np.flatnonzero(keep)
        q = A.shape[0]
        if q == 0:
            return untouched()

    feas_tol = _FEAS_REL * (1.0 + float(np.linalg.norm(e)) + float(np.max(np.abs(b) / row_norms)))

    # nothing violated beyond tolerance, no work to do
    viol = (A @ e - b) / row_norms
    p = int(np.argmax(viol))
    if viol[p] <= feas_tol:
        return untouched()

    Pw = _sym(P)
    floor = _NULL_REL * float(np.trace(Pw)) * row_norms ** 2
    budget = 10 * (q + 1) if max_iterations is None else int(max_iterations)
    work = []               # working set, insertion order
    lam = np.empty(0)       # multipliers aligned with work
    x = e.copy()
    ops = 0

    def overrun(z_now, lam_now):
        return ActiveSetLimitError(
            "active-set projection exceeded its iteration cap",
            estimate=z_now,
            active_set=tuple(work),
            multipliers=lam_now,
            max_violation=float(np.max((A @ z_now - b) / row_norms)),
        )

    while True:
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
                raise InfeasibleConstraintsError(
                    f"constraint row {p if index_map is None else int(index_map[p])} "
                    "cannot be satisfied: no point of e + range(P) is feasible"
                )
            ops += 1
            if ops > budget:
                raise overrun(x, lam)
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
        viol = (A @ x - b) / row_norms
        p = int(np.argmax(viol))
        if viol[p] <= feas_tol:
            break

    if not work:
        # can only happen if the initial violation evaporated numerically
        return untouched()

    order = np.argsort(work)
    rows_local = [work[i] for i in order]
    lam_sorted = np.maximum(lam[order], 0.0)
    Ab = A[rows_local]
    gain = Pw @ Ab.T @ _sym_inv(Ab @ Pw @ Ab.T)
    cov = _check_forms(P, gain, Ab)
    if index_map is not None:
        active_rows = tuple(int(index_map[w]) for w in rows_local)
    else:
        active_rows = tuple(int(w) for w in rows_local)
    return ProjectionResult(x, active_rows, lam_sorted, gain, cov)


def project(estimate, W, A, b, max_iterations=None) -> ProjectionResult:
    """Project `estimate` onto {z : A z <= b} in the metric of SPD weight W.

    max_iterations overrides the default add/drop budget of 10 * (rows + 1);
    it exists for diagnosis and tests, not for tuning.
    """
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
    return _project_core(e, _sym(np.linalg.inv(Wsym)), A, b, max_iterations=max_iterations)


def project_attack(atk, A, b):
    """Project an attack estimate onto its inequality set.

    `atk` carries d_hat and P_d (any object with those attributes works).
    Returns (d_hat, P_d, ProjectionResult); `_project_core` assembles and
    self-checks the projected covariance.
    """
    res = _project_core(np.asarray(atk.d_hat, float).ravel(), np.asarray(atk.P_d, float), A, b)
    return res.estimate, res.covariance, res


def project_state(upd, B, c):
    """Project a state estimate onto {x : B x <= c}.

    `upd` carries x_hat and P_x. Returns (x_hat, P_x, ProjectionResult).
    """
    res = _project_core(np.asarray(upd.x_hat, float).ravel(), np.asarray(upd.P_x, float), B, c)
    return res.estimate, res.covariance, res
