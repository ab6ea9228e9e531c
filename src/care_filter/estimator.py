"""Simultaneous input and state estimation with constraint projection.

One step consumes the state estimate at time k-1 plus the measurement at
time k and produces estimates of the attack input d_{k-1} and the state
x_k. The pipeline is: predict, attack estimation through a weighted
least-squares gain M, a time update whose covariance carries the
estimate/attack cross terms, a measurement update with a Moore-Penrose
gain, and finally projection of both estimates onto their inequality
constraint sets. `care_step` runs the whole chain; the individual stages
are exposed for tests and diagnostics.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConstraintSet, SystemModel
from .projection import ProjectionResult, _eig_bounds, _sym, _sym_inv, project_attack, project_state

__all__ = [
    "AttackEstimate",
    "AttackUnidentifiableError",
    "EstimatorState",
    "Prediction",
    "StepOutput",
    "TimeUpdated",
    "UnconstrainedUpdate",
    "care_step",
    "estimate_attack",
    "initial_state",
    "measurement_update",
    "predict",
    "time_update",
]


class AttackUnidentifiableError(RuntimeError):
    """The attack direction is not observable through C G at this step."""


def _identified_inverse(N, where):
    """Inverse of the stacked attack information matrices N = G'C'R~CG.

    Raises AttackUnidentifiableError naming where(i), i the first stack
    position whose N is not positive definite or whose condition number
    exceeds 1e12.
    """
    lo, hi = _eig_bounds(N)
    bad = (lo <= 0.0) | (hi > 1e12 * lo)
    if bad.any():
        i = int(np.argmax(bad))
        why = "is not positive definite" if lo[i] <= 0.0 else "condition number exceeds 1e12"
        raise AttackUnidentifiableError(f"attack unidentifiable at {where(i)}: G'C'R~CG {why}")
    return _sym_inv(N)


@dataclass(frozen=True, slots=True)
class EstimatorState:
    """Constrained estimate of x_k with its covariance."""

    x_hat: np.ndarray
    P_x: np.ndarray
    k: int = 0


@dataclass(frozen=True, slots=True)
class Prediction:
    """One-step-ahead prior for x_k (before seeing y_k or the attack)."""

    x_hat: np.ndarray
    P_x: np.ndarray
    k: int


@dataclass(frozen=True, slots=True)
class AttackEstimate:
    """Unconstrained estimate of the attack d_{k-1}, formed at time k.

    d_hat minimizes the innovation residual in the R_tilde metric; P_d is
    its covariance, P_xd the cross covariance with the previous state
    error, and M the gain with M C G = I.
    """

    d_hat: np.ndarray
    P_d: np.ndarray
    P_xd: np.ndarray
    M: np.ndarray
    R_tilde: np.ndarray
    k: int


@dataclass(frozen=True, slots=True)
class TimeUpdated:
    """Prior for x_k after compensating the attack estimate."""

    x_hat: np.ndarray
    P_x: np.ndarray
    R_star: np.ndarray
    k: int


@dataclass(frozen=True, slots=True)
class UnconstrainedUpdate:
    """Posterior for x_k before projection, with the measurement gain L."""

    x_hat: np.ndarray
    P_x: np.ndarray
    L: np.ndarray
    k: int


@dataclass(frozen=True, slots=True)
class StepOutput:
    """Everything one step produced, constrained and unconstrained."""

    state: EstimatorState
    prediction: Prediction
    attack: AttackEstimate
    time_updated: TimeUpdated
    update: UnconstrainedUpdate
    d_hat: np.ndarray
    P_d: np.ndarray
    input_projection: "ProjectionResult | None"
    state_projection: "ProjectionResult | None"


def initial_state(x0, P0=None, k=0) -> EstimatorState:
    x0 = np.asarray(x0, dtype=float).ravel()
    if P0 is None:
        P0 = 10.0 * np.eye(x0.size)
    return EstimatorState(x0, np.asarray(P0, dtype=float), k)


def predict(state: EstimatorState, model: SystemModel, u) -> Prediction:
    """Propagate the estimate through the nominal dynamics."""
    k = state.k
    A = model.A(k)
    x = A @ state.x_hat + model.B(k) @ np.asarray(u, dtype=float).ravel()
    P = _sym(A @ state.P_x @ A.T + model.Q(k))
    return Prediction(x, P, k + 1)


def estimate_attack(pred: Prediction, model: SystemModel, prev_cov, y) -> AttackEstimate:
    """Weighted least-squares estimate of d_{k-1} from the innovation y - C x^-.

    Raises AttackUnidentifiableError when G' C' R~ C G cannot be inverted
    reliably (not positive definite or condition number above 1e12).
    """
    k = pred.k
    C = model.C(k)
    G = model.G(k - 1)
    S = C @ pred.P_x @ C.T + model.R(k)
    R_tilde = _sym(np.linalg.inv(S))
    CG = C @ G
    T = CG.T @ R_tilde
    N = _sym(T @ CG)
    P_d = _sym(_identified_inverse(N[None], lambda _: f"k={k}")[0])
    M = P_d @ T
    d_hat = M @ (np.asarray(y, dtype=float).ravel() - C @ pred.x_hat)
    P_xd = -prev_cov @ model.A(k - 1).T @ C.T @ M.T
    return AttackEstimate(d_hat, P_d, P_xd, M, R_tilde, k)


def time_update(pred: Prediction, atk: AttackEstimate, model: SystemModel,
                prev: EstimatorState) -> TimeUpdated:
    """Fold the attack estimate back into the prior for x_k."""
    if atk.k != pred.k or prev.k != pred.k - 1:
        raise ValueError("prediction, attack estimate and previous state disagree on k")
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


def measurement_update(tu: TimeUpdated, atk: AttackEstimate, model: SystemModel,
                       y) -> UnconstrainedUpdate:
    """Measurement update with a pseudoinverse gain.

    R* can be singular (it is exactly zero in the noise-free scalar case),
    so the gain uses a Moore-Penrose inverse with singular values below
    n_y * ||R*|| * 1e-12 treated as zero.
    """
    if atk.k != tu.k:
        raise ValueError("attack estimate and time update disagree on k")
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


def care_step(state: EstimatorState, model: SystemModel, constraints: ConstraintSet,
              u, y, unconstrained_baseline: bool = False) -> StepOutput:
    """Run one full estimation step from x_{k-1} and y_k.

    With unconstrained_baseline=True the projection stage is skipped
    entirely and the returned state carries the unconstrained posterior;
    the projection fields are then None. A non-finite y raises ValueError
    naming the step k.
    """
    y = np.asarray(y, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise ValueError(f"non-finite measurement y at k={state.k + 1}")
    pred = predict(state, model, u)
    atk = estimate_attack(pred, model, state.P_x, y)
    tu = time_update(pred, atk, model, state)
    upd = measurement_update(tu, atk, model, y)
    k = pred.k
    if unconstrained_baseline or constraints is None:
        new_state = EstimatorState(upd.x_hat, upd.P_x, k)
        return StepOutput(new_state, pred, atk, tu, upd,
                          atk.d_hat, atk.P_d, None, None)
    d_hat, P_d, in_proj = project_attack(
        atk, constraints.input_matrix(k - 1), constraints.input_bound(k - 1))
    x_hat, P_x, st_proj = project_state(
        upd, constraints.state_matrix(k), constraints.state_bound(k))
    new_state = EstimatorState(x_hat, P_x, k)
    return StepOutput(new_state, pred, atk, tu, upd, d_hat, P_d, in_proj, st_proj)
