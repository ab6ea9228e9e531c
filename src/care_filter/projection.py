"""Covariance-weighted projection onto linear inequality constraints.

Solves min (z - e)' W (z - e) subject to A z <= b for a stack of entries
in `_box_project`, the route of every projection on a general linear
model: `project`, `project_attack` and `project_state` are its batch of
one. (The vehicle kernel `ensemble._Batch` projects onto its boxes in a
closed form of its own.) What depends on the set alone is prepared once per set
in a `_ConstraintTable`, its rows scaled by powers of two, exactly the
same set. The weight is the inverse of the estimation error covariance P,
so the projector is oblique: gain = P A_bar' (A_bar P A_bar')^{-1} for the
active rows A_bar. Each entry is first solved on the face its own
violated rows define (the active-set idea of Bemporad et al., Automatica
38(1), 2002, with the set's data prepared once; batched small QPs as in
Amos & Kolter, OptNet, arXiv:1703.00443): the violating entries are
sorted once by width, their number of violated rows; widths 1 and 2 share
one solve, each wider width one on a contiguous slice. Rejected entries go one
at a time to a primal-dual active-set search, `_project_core`, which only
chooses the rows: start at the unconstrained optimum, repeatedly drive
the most violated constraint to equality, dropping working rows whose
multipliers would cross zero. Partial dual steps make it finitely
convergent, and an unbounded dual step proves that no feasible point is
reachable. `_face_solve` solves the faces of both tiers and accepts them
on the KKT conditions of its own output, after at most one step of
iterative refinement (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 12); the covariances are then assembled once per call in
the symmetric form (I - G A_O) P (I - G A_O)' (Simon, IET CTA 4(8),
2010). Both tiers are written in P alone, so they also serve a positive
semidefinite P, as left by an earlier projection: the estimate then moves
only within e + range(P). Every product a result rests on is taken one
matrix per entry, so an entry's result does not depend on its batch, bit
for bit (Demmel & Nguyen, IEEE Trans. Computers 64(7), 2015).

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
    (all n when width is None); the rest hold zeros, which stay zero. Each
    row and its bounds are divided by scale, the power of two that brings
    the row's norm into [1/2, 1): exactly the same set (a zero row keeps
    scale 1). From the scaled rows: their squared norms and norms, and
    maxb, each entry's largest finite hyperplane distance |b_i| / |a_i|.
    A_z and b_z close the scaled rows with a zero row of bound 0, which
    pads a face of one row in `_face_solve`; A and b are views without it.
    """

    def __init__(self, A, b, width=None):
        self.scale = np.ldexp(1.0, np.frexp(np.sqrt(np.add.reduce(A * A, axis=1)))[1])
        self.A_z = np.vstack([A / self.scale[:, None], np.zeros(A.shape[1])])
        self.b_z = b_z = np.concatenate([b / self.scale, np.zeros(b.shape[:-1] + (1,))], axis=-1)
        self.A, self.b, self.width = self.A_z[:-1], b_z[..., :-1], width
        self.sq = np.add.reduce(self.A_z * self.A_z, axis=1)
        self.norms = norms = np.sqrt(self.sq)
        # a zero row has no hyperplane: its distance stays inf, left out
        dist = np.divide(np.abs(b_z), norms, out=np.full(b_z.shape, np.inf), where=norms > 0.0)
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


def _project_core(e, P, A, b, tol, max_iterations=None):
    """Dual active-set search for the rows active at the projection of e
    onto {z : A z <= b} within e + range(P).

    The route of the entries whose face of violated rows `_box_project`
    rejects, on the table's rows (norms in [1/2, 1)) with that entry's
    tolerance tol on each row's distance (a z - b) / |a|. The weight is
    P^+, and the search uses P itself: P a and A_bar P A_bar'. A
    rank-deficient P therefore needs no special case; every step stays in
    e + range(P). A row is added to the working set only when its residual
    variance a'z exceeds _DEP_REL a'P a, the share of it the working rows
    already explain, plus _NULL_REL trace(P) |a|^2, the rounding level of
    P, so A_bar P A_bar' stays nonsingular and a row in null(P) never
    enters. When e + range(P) misses the feasible set, the dual step is
    unbounded and InfeasibleConstraintsError is raised. max_iterations
    overrides the add/drop budget of 10 * (rows + 1). Returns the indices
    of the rows the search ends with, ascending; `_face_solve` solves and
    judges their face.
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

    return keep[sorted(work)]


def _face_solve(e, P, A, b, face, viol, tol, lower, floor, z, ok, GA, pad=0, search=False):
    """The KKT point of each entry h on its face, the rows of A that the
    boolean mask face[h] selects, as many for every entry.

    With A_O those rows and v = A_O e - b_O their residuals from viol, the
    multipliers solve (A_O P A_O') lam = v and z = e - P A_O' lam. z is
    accepted (ok) on the KKT conditions: lam finite and nonnegative, and
    each row's residual a z - b (b holds each entry's bounds) between
    lower[h] and tol[h], minus the tolerance on the face's rows and -inf on
    the others. An entry that misses this gets one refinement step
    z <- z - G (A_O z - b_O), G = P A_O' (A_O P A_O')^{-1}, and is tested
    again. A_O P A_O' must be positive definite above floor[h], the
    rounding level of P, _NULL_REL trace(P) |A_O|^2 (Frobenius norm), for a
    face of violated rows, which must also have a condition number of at
    most 1e12. The search's face (search=True) needs neither and always
    takes the refinement step, which makes its point as accurate as the
    search's own iterate was, or more. The leading pad faces of one row a
    take the table's zero row, last in A and the masks, as their second:
    P a' and s = a P a' are formed as alone (BLAS may round a product of
    two columns otherwise), A_O P A_O' = (s, 0; 0, 1) and lo = hi = s; the
    zero row adds only signed zeros, so each entry is solved with the
    rounding it would have alone. Writes z, ok and G A_O into the caller's
    arrays; a rejected face may divide by zero, so the caller sets np.errstate.
    """
    c = len(face)
    Ao = A[face.nonzero()[1].reshape(c, -1)]
    PA = P @ Ao.swapaxes(1, 2)
    S = Ao @ PA
    if pad:
        Pa = P[:pad] @ Ao[:pad, :1].swapaxes(1, 2)
        PA[:pad, :, :1], S[:pad, :1, :1], S[:pad, 1, 1] = Pa, Ao[:pad, :1] @ Pa, 1.0
    lo, hi = _eig_bounds(S)
    if pad:
        lo[:pad] = hi[:pad] = S[:pad, 0, 0]
    Sinv = _sym_inv(S)
    lam = _mv(Sinv, viol[face].reshape(c, -1))
    np.subtract(e, _mv(PA, lam), out=z)
    G = PA @ Sinv
    np.matmul(G, Ao, out=GA)
    floor, limit = (0.0, np.inf) if search else (floor, _COND_LIMIT)
    good = ((lam >= 0.0) & (lam < np.inf)).all(axis=1) & (lo > floor) & (hi <= limit * lo)
    res = _mv(A, z) - b
    np.logical_and(good, ((res <= tol) & (res >= lower)).all(axis=1), out=ok)
    if search or np.count_nonzero(ok) < c:
        off = good if search else good > ok
        z[off] -= _mv(G[off], res[off][face[off]].reshape(-1, Ao.shape[1]))
        res = _mv(A, z[off]) - b[off]
        ok[off] = ((res <= tol[off]) & (res >= lower[off])).all(axis=1)


def _box_project(est, cov, box, counter, active, where, counts=None):
    """Project each entry's estimate onto its set {z : A z <= b_h}, in place.

    est (H, n) and cov (H, n, n) are overwritten; box is the sets'
    `_ConstraintTable`. An entry meets its set when no row a_i lies farther
    than 1e-10 (1 + |e| + maxb) beyond its hyperplane, a distance
    (a_i z - b_i) / |a_i|; the violations A e - b are one product per
    entry, so the entries looked at do not depend on the batch. Those with
    rows over the tolerance are sorted once by width, their number of such
    rows. Widths 1 and 2 share one `_face_solve`, a face of one row padded
    with the table's zero row when both occur, and each wider width takes
    one on its contiguous slice, into shared arrays, bit for bit the entry
    alone. The rejected go to `_project_core` one at a time, in entry
    order, on their own finite-bound rows and width[h] coordinates, and the
    face of the rows it returns goes through `_face_solve` as a batch of
    one; the returned counter counts them. The covariances of all of them
    are assembled at once and, with the estimates, written back. active, a
    boolean (H, q) mask, and counts, an int (H,) array if given, are
    overwritten with each entry's active rows and their number.
    A search face that fails its KKT test raises RuntimeError naming
    where(h) for entry h, and so do the search's errors and the ValueError
    raised for a violating entry whose estimate or covariance is not
    finite. The covariances are taken as symmetric, unchecked.
    """
    A = box.A_z
    b = box.b_z if box.b_z.ndim > 1 else np.broadcast_to(box.b_z, (len(est), len(A)))
    viol = _mv(A, est) - b
    counts = np.empty(len(est), dtype=np.int64) if counts is None else counts
    # a NaN estimate counts as violating, to be reported below
    hit = (~(viol.max(axis=1, initial=0.0) <= 0.0)).nonzero()[0]
    if not hit.size:
        active.fill(False)
        counts.fill(0)
        return counter
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # each entry's Euclidean norm, bit for bit what np.linalg.norm
        # returns, without its per-call overhead; tol_rows holds each row's
        # tolerance on a z - b, the distance tolerance times |a|
        tol = _FEAS_REL * (1.0 + np.sqrt(np.add.reduce(est ** 2, axis=1)) + box.maxb)
        tol_rows = tol[:, None] * box.norms
        # the violated rows are the active rows of an entry solved on their
        # face (never the zero row, last); the search resets those it projects
        over = viol > tol_rows
        active[...] = over[:, :-1]
        width = np.add.reduce(over, axis=1, out=counts)[hit]
        sizes = np.bincount(width).tolist()
        # widths ascending, entry order within a width; within tolerance first
        if sizes[-1] != len(hit):
            hit = hit[width.argsort(kind="stable")]
        e, P = est[hit], cov[hit]
        if not (np.isfinite(e).all() and np.isfinite(P).all()):
            finite = np.isfinite(e).all(axis=1) & np.isfinite(P).all(axis=(1, 2))
            r = hit[~finite].min()
            field = "covariance" if np.isfinite(est[r]).all() else "estimate"
            raise ValueError(f"non-finite {field} at {where(r)}")
        start = sizes[0]
        if start == len(hit):
            return counter
        hit, e, P = hit[start:], e[start:], P[start:]
        face, v, tr, bs = over[hit], viol[hit], tol_rows[hit], b[hit]
        # each row's least residual: minus its tolerance on the face's rows
        lw = np.where(face, -tr, -np.inf)
        # the face solve's null-space floor, _NULL_REL trace(P) |A_O|^2, of
        # each entry's face of violated rows
        floor = _NULL_REL * P.trace(axis1=1, axis2=2) * np.dot(face, box.sq)
        z, ok, GA = np.empty_like(e), np.empty(len(hit), dtype=bool), np.empty_like(P)

        def solve(s, pad=0, search=False):
            _face_solve(e[s], P[s], A, bs[s], face[s], v[s], tr[s], lw[s], floor[s], z[s],
                        ok[s], GA[s], pad, search)

        # widths 1 and 2 share one solve, a face of one row padded with the zero row
        pad = sizes[1] if sum(sizes[2:3]) else 0
        face[:pad, -1] = True
        stop = 0
        for c in [sum(sizes[1:3])] + sizes[3:]:
            if c:
                solve(slice(stop, stop + c), pad if stop == 0 else 0)
                stop += c
        # the rejected, in entry order: the search chooses the rows, and their
        # face is held to the KKT conditions alone, as the search admitted
        # each row above P's rounding level and independent of the others
        for i in [] if ok.all() else sorted((~ok).nonzero()[0], key=hit.__getitem__):
            r = hit[i]
            w = A.shape[1] if box.width is None else box.width[r]
            rows = np.flatnonzero(np.isfinite(b[r, :-1]))
            try:
                act = rows[_project_core(e[i, :w], P[i, :w, :w], A[rows, :w], b[r, rows], tol[r])]
            except (ActiveSetLimitError, InfeasibleConstraintsError) as err:
                err.args = (f"{err} at {where(r)}",)
                raise
            face[i], lw[i] = False, -np.inf
            face[i, act], lw[i, act] = True, -tr[i, act]
            active[r], counts[r] = face[i, :-1], len(act)
            solve(slice(i, i + 1), search=True)
            if not ok[i]:
                raise RuntimeError(f"the active-set search's face fails its KKT test at {where(r)}")
            counter += 1
        # (I - G A_O) P (I - G A_O)'; G A_O is n x n whatever the width
        short = P - GA @ P
        cov[hit] = _sym(short - short @ GA.swapaxes(1, 2))
        est[hit] = z
    return counter


def _project_one(e, P, A, b, where):
    """`_box_project`'s batch of one: e onto {z : A z <= b} in the metric
    of the covariance P, its errors naming `where`. P enters the package
    here, so its symmetry is checked: an asymmetry beyond _FEAS_REL max|P|
    raises ValueError. An entry that meets its set keeps P. The result's
    gain and multipliers are those of the caller's active rows A_W it
    reports: P A_W' (A_W P A_W')^{-1} and (A_W P A_W')^{-1} (A_W e - b_W),
    clipped at 0.
    """
    box = _as_rows(A, b, e.size)
    # a non-finite P is named by `_box_project` once a row is violated
    bound = _FEAS_REL * np.abs(P).max(initial=0.0)
    if np.isfinite(P).all() and np.abs(P - P.T).max(initial=0.0) > bound:
        raise ValueError(f"asymmetric covariance at {where}")
    est, cov = e[None].copy(), P[None].copy()
    active = np.zeros((1, box.b.size), dtype=bool)
    _box_project(est, cov, box, 0, active, lambda _: where)
    rows = np.flatnonzero(active[0])
    # the caller's rows, exactly: the table's times their scale
    Ab, bW = box.A[rows] * box.scale[rows, None], box.b[rows] * box.scale[rows]
    PA = P @ Ab.T
    Sinv = _sym_inv(Ab @ PA)
    lam = np.maximum(Sinv @ (Ab @ e - bW), 0.0)
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
