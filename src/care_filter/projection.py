"""Covariance-weighted projection onto linear inequality constraints.

Solves min (z - e)' W (z - e) subject to A z <= b for a stack of entries
in `_box_project`, the one route every projection of the package takes:
`project`, `project_attack` and `project_state` are its batch of one, and
the vehicle kernel `ensemble._Batch` puts both projections of every care
run into one call. What depends on the set alone is prepared once per set
in a `_ConstraintTable`. The weight is the inverse of the estimation error
covariance P, so the projector is oblique: gain = P A_bar' (A_bar P
A_bar')^{-1} for the active rows A_bar. Each entry is first solved on the
face its own violated rows define: drive those rows to equality and accept
the point when it is feasible, its multipliers are nonnegative and the
rows' covariance block is well conditioned, which makes it the exact
optimum (the active-set idea of Bemporad et al., Automatica 38(1), 2002,
with the set's data prepared once; batched small QPs as in Amos & Kolter,
OptNet, arXiv:1703.00443). The violations are one product per entry;
the violating entries are sorted once by width, their number of violated
rows, and each width is solved on one contiguous slice. The accepted
entries pass one covariance self-check per call. The rejected ones go
one at a time to a primal-dual active-set search, `_project_core`: start
at the unconstrained optimum, repeatedly pick the most violated
(row-normalized) constraint and drive it to equality, dropping working
rows whose multipliers would cross zero along the way. Partial dual steps
make the search finitely convergent, and an unbounded dual step is a proof
that no feasible point is reachable. Both are written in P alone, so they
also serve a positive semidefinite P, as left by an earlier projection:
the estimate then moves only within e + range(P), the directions the
covariance gives variance to. Every product a result rests on is taken
one matrix per entry, so an entry's result does not depend on its batch,
bit for bit (Demmel & Nguyen, IEEE Trans. Computers 64(7), 2015, on
results that do not depend on how the work is split).

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


class _ConstraintTable:
    """The sets of `_box_project` entries, built once per set.

    A (q, n) holds the rows and b the bounds, one vector (q,) for all
    entries or one per entry (H, q). A bound of +inf takes its row out of
    the entry's set, so entries on different sets share a table that
    stacks the sets' rows. Entry h owns its leading width[h] coordinates
    (all n when width is None); the rest hold zeros, which stay zero. From
    A and b alone: the rows' squared norms and norms, and maxb, each
    entry's largest finite hyperplane distance |b_i| / |a_i|.
    """

    def __init__(self, A, b, width=None):
        self.A, self.b, self.width = A, b, width
        self.sq = np.add.reduce(A * A, axis=1)
        self.norms = norms = np.sqrt(self.sq)
        # a zero row has no hyperplane: its distance stays inf, left out
        dist = np.divide(np.abs(b), norms, out=np.full(b.shape, np.inf), where=norms > 0.0)
        self.maxb = dist.max(axis=-1, initial=0.0, where=np.isfinite(dist))


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
    return _ConstraintTable(A, b)


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


_FORMS_DISAGREE = "projected covariance forms disagree{}; active-set solve is unreliable"


def _check_forms(P, GA, where=None):
    """Self-check of projected covariances, one matrix or a stack.

    For GA = gain A_bar, compares the symmetric form (I - GA) P (I - GA)'
    with the short form (I - GA) P, which it equals for an exact oblique
    projection. Raises RuntimeError when they disagree beyond
    1e-8 (1 + max|GA|)(1 + max|P|) at a stack position, a bound that scales
    with the term GA P the short form subtracts, naming where(i) for i the
    first such position when a namer is given; returns the symmetric form.
    """
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


def _project_core(e, P, A, b, tol, max_iterations=None):
    """Dual active-set projection of e onto {z : A z <= b} within e + range(P).

    The route of the entries `_box_project`'s face solve rejects, with
    that entry's tolerance tol on each row's distance (a z - b) / |a|. The
    search runs on the rows scaled by powers of two to norms in [1/2, 1),
    exactly the same set, so none of its thresholds depends on how the
    rows are scaled. The weight is P^+, and the search uses P itself:
    P a, A_bar P A_bar' and the gain P A_bar' (A_bar P A_bar')^{-1}. A
    rank-deficient P therefore needs no special case; every step stays in
    e + range(P). A row is added to the
    working set only when its residual variance a'z exceeds _DEP_REL a'P a,
    the share of it the working rows already explain, plus
    _NULL_REL trace(P) |a|^2, the rounding level of P, so A_bar P A_bar'
    stays nonsingular and a row in null(P) never enters. When
    e + range(P) misses the feasible set, the dual step is unbounded and
    InfeasibleConstraintsError is raised. max_iterations overrides the
    add/drop budget of 10 * (rows + 1). `_check_forms` assembles the
    projected covariance in the symmetric form
    (I - gain A_bar) P (I - gain A_bar)' and checks it. Returns the
    estimate, the covariance and the indices of the active rows, ascending.
    """
    row_norms = np.linalg.norm(A, axis=1)
    if (b[row_norms == 0.0] < 0.0).any():
        raise InfeasibleConstraintsError("zero constraint row with negative bound")
    # the rows that can be violated, by their index in A
    keep = np.flatnonzero(row_norms > 0.0)
    pow2 = np.ldexp(1.0, np.frexp(row_norms[keep])[1])
    A, b, row_norms = A[keep] / pow2[:, None], b[keep] / pow2, row_norms[keep] / pow2

    Pw = _sym(P)
    floor = _NULL_REL * float(np.trace(Pw)) * row_norms ** 2
    budget = 10 * (len(b) + 1) if max_iterations is None else int(max_iterations)
    work = []               # working set, insertion order
    lam = np.empty(0)       # multipliers aligned with work
    x = e.copy()
    ops = 0

    def overrun(z_now, lam_now):
        return ActiveSetLimitError(
            "active-set projection exceeded its iteration cap",
            estimate=z_now,
            active_set=tuple(int(keep[w]) for w in work),
            multipliers=lam_now,
            max_violation=float(np.max((A @ z_now - b) / row_norms)),
        )

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
                raise InfeasibleConstraintsError(
                    f"constraint row {keep[p]} cannot be satisfied: "
                    "no point of e + range(P) is feasible"
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

    work.sort()
    Ab = A[work]
    gain = Pw @ Ab.T @ _sym_inv(Ab @ Pw @ Ab.T)
    return x, _check_forms(P, gain @ Ab), keep[work]


def _face_solve(e, P, A, b, rows, v, tol, floor, z, ok, GA):
    """The KKT point of each entry h on the face of its rows[h] of A.

    With A_O those rows and v their violation A_O e - b_O, the multipliers
    solve (A_O P A_O') lam = v and z = e - P A_O' lam. The point is accepted
    (ok) when lam is finite and nonnegative, z meets every row to within
    tol[h] (b and tol hold each entry's bounds and row tolerances) and
    A_O P A_O' is positive definite with condition number at most 1e12,
    which makes it the exact optimum. Its smallest eigenvalue must also
    exceed floor[h], _NULL_REL trace(P) |A_O|^2 (Frobenius norm), the
    rounding level of P: below it a face row may lie in null(P), where
    `_project_core` lets no row enter. Every entry has the same number of
    rows, so an entry is solved with the shapes, and the rounding, it
    would have alone. Writes z, ok and G A_O, G = P A_O' (A_O P A_O')^{-1},
    into the caller's arrays z, ok and GA; a rejected face may divide by
    zero, so the caller sets np.errstate.
    """
    Ao = A[rows]
    PA = P @ Ao.swapaxes(1, 2)
    S = Ao @ PA
    lo, hi = _eig_bounds(S)
    Sinv = _sym_inv(S)
    lam = _mv(Sinv, v)
    np.subtract(e, _mv(PA, lam), out=z)
    good = (lam.min(axis=1) >= 0.0) & np.isfinite(lam.sum(axis=1))
    good &= (lo > floor) & (hi <= _COND_LIMIT * lo)
    np.logical_and(good, (_mv(A, z) - b <= tol).all(axis=1), out=ok)
    np.matmul(PA @ Sinv, Ao, out=GA)


def _box_project(est, cov, box, counter, active, where):
    """Project each entry's estimate onto its set {z : A z <= b_h}, in place.

    est (H, n) and cov (H, n, n) are overwritten; box is the sets'
    `_ConstraintTable`. An entry meets its set when no row a_i lies farther
    than 1e-10 (1 + |e| + maxb) beyond its hyperplane, a distance
    (a_i z - b_i) / |a_i|, so the test does not depend on how the rows are
    scaled; the violations A e - b are one product per entry, so the
    entries looked at do not depend on the batch. Those with rows over the
    tolerance are sorted once by width, their number of such rows, and
    each width's contiguous slice is solved on the face of those rows by
    one `_face_solve` into shared arrays, bit for bit the entry alone; the
    accepted entries pass one `_check_forms`, widths ascending, and are
    written back at once. The rejected go to `_project_core` one at a
    time, in entry order, on their own finite-bound rows and width[h]
    coordinates; the returned counter counts them. active, a boolean
    (H, q) mask, is overwritten with each entry's active rows.
    Every active projection passes `_check_forms`; a failure names where(h)
    for entry h, and so do the projector's errors and the ValueError
    raised for a violating entry whose estimate or covariance is not
    finite.
    """
    A = box.A
    b = box.b if box.b.ndim > 1 else np.broadcast_to(box.b, (len(est), len(A)))
    viol = _mv(A, est) - b
    # a NaN estimate counts as violating, to be reported below
    hit = (~(viol.max(axis=1, initial=0.0) <= 0.0)).nonzero()[0]
    if not hit.size:
        active.fill(False)
        return counter
    left = ()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # each entry's Euclidean norm, bit for bit what np.linalg.norm
        # returns, without its per-call overhead; tol_rows holds each row's
        # tolerance on a z - b, the distance tolerance times |a|
        tol = _FEAS_REL * (1.0 + np.sqrt(np.add.reduce(est ** 2, axis=1)) + box.maxb)
        tol_rows = tol[:, None] * box.norms
        # the violated rows are the active rows of an entry solved on their
        # face; the search below resets those of the entries it projects
        over = np.greater(viol, tol_rows, out=active)
        width = over.sum(axis=1)[hit]
        counts = np.bincount(width).tolist()
        # widths ascending, entry order within a width; within tolerance first
        if counts[-1] != len(hit):
            hit = hit[width.argsort(kind="stable")]
        e, P = est[hit], cov[hit]
        if not (np.isfinite(e).all() and np.isfinite(P).all()):
            finite = np.isfinite(e).all(axis=1) & np.isfinite(P).all(axis=(1, 2))
            r = hit[~finite].min()
            field = "covariance" if np.isfinite(est[r]).all() else "estimate"
            raise ValueError(f"non-finite {field} at {where(r)}")
        start = counts[0]
        if start == len(hit):
            return counter
        hit, e, P = hit[start:], e[start:], P[start:]
        face, v, tr, bs = over[hit], viol[hit], tol_rows[hit], b[hit]
        # the face solve's null-space floor, _NULL_REL trace(P) |A_O|^2, of
        # each entry's face of violated rows
        floor = _NULL_REL * P.trace(axis1=1, axis2=2) * np.dot(face, box.sq)
        z, ok, GA = np.empty_like(e), np.empty(len(hit), dtype=bool), np.empty_like(P)
        stop = 0
        for w, c in enumerate(counts[1:], 1):
            if c:
                s, f = slice(stop, stop + c), face[stop:stop + c]
                stop += c
                _face_solve(e[s], P[s], A, bs[s], f.nonzero()[1].reshape(-1, w),
                            v[s][f].reshape(-1, w), tr[s], floor[s], z[s], ok[s], GA[s])
        if not ok.all():
            left = np.sort(hit[~ok])
            hit, z, P, GA = hit[ok], z[ok], P[ok], GA[ok]
        # G A_O is n x n whatever the width, so the accepted entries stack
        cov[hit] = _check_forms(P, GA, lambda i: where(hit[i]))
        est[hit] = z

    for r in left:
        w = A.shape[1] if box.width is None else box.width[r]
        rows = np.flatnonzero(np.isfinite(b[r]))
        try:
            z, P, act = _project_core(est[r, :w], cov[r, :w, :w], A[rows, :w], b[r, rows], tol[r])
        except (ActiveSetLimitError, InfeasibleConstraintsError) as err:
            err.args = (f"{err} at {where(r)}",)
            raise
        except RuntimeError:
            raise RuntimeError(_FORMS_DISAGREE.format(f" at {where(r)}")) from None
        est[r, :w], cov[r, :w, :w] = z, P
        active[r] = False
        active[r, rows[act]] = True
        counter += 1
    return counter


def _project_one(e, P, A, b, where):
    """`_box_project`'s batch of one: e onto {z : A z <= b} in the metric
    of the covariance P, its errors naming `where`. P goes in as given,
    not symmetrized, so the projected covariance's self-check sees an
    asymmetric one, and an entry that meets its set keeps it. The
    result's gain and multipliers are those of the active rows A_W it
    reports: P A_W' (A_W P A_W')^{-1} and (A_W P A_W')^{-1} (A_W e - b_W),
    clipped at 0.
    """
    box = _as_rows(A, b, e.size)
    est, cov = e[None].copy(), P[None].copy()
    active = np.zeros((1, box.b.size), dtype=bool)
    _box_project(est, cov, box, 0, active, lambda _: where)
    rows = np.flatnonzero(active[0])
    Ab = box.A[rows]
    PA = P @ Ab.T
    Sinv = _sym_inv(Ab @ PA)
    lam = np.maximum(Sinv @ (Ab @ e - box.b[rows]), 0.0)
    return ProjectionResult(est[0], tuple(rows.tolist()), lam, PA @ Sinv, cov[0])


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
