"""Reference routines the tests check the package against.

`qp_oracle` solves the projection QP by brute-force enumeration of active
subsets through the KKT system, an independent route to what `project`
computes; `range_qp_oracle` restricts it to e + range(P) for a positive
semidefinite P. `transformed_dynamics` is the closed-loop error transition of
the compensated filter, a stability diagnostic.
"""

import numpy as np

from care_filter.projection import InfeasibleConstraintsError, _as_rows


def qp_oracle(estimate, W, A, b):
    """Brute-force reference solution of the projection QP.

    Enumerates every subset of constraint rows as a candidate active set,
    solves the KKT system by least squares with one step of iterative
    refinement, and keeps the feasible candidate with nonnegative
    multipliers and the smallest objective. Rows count as
    met to within 1e-9 (1 + max |A||z| + |b|), the size of the terms A z - b
    sums, so an optimum far from e is judged at its own scale.
    Exponential in the row count; intended for verification on small
    instances only.
    """
    e = np.asarray(estimate, dtype=float).ravel()
    n = e.size
    W = np.asarray(W, dtype=float)
    A, b = _as_rows(A, b, n)
    q = A.shape[0]
    if q > 20:
        raise ValueError("oracle enumeration is limited to 20 constraint rows")

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
    A, b = _as_rows(A, b, e.size)
    eig, V = np.linalg.eigh(0.5 * (P + P.T))
    keep = eig > 1e-12 * eig[-1]
    U = V[:, keep]
    y = qp_oracle(np.zeros(U.shape[1]), np.diag(1.0 / eig[keep]), A @ U, b - A @ e)
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
