"""Simultaneous input and state estimation with constraint projection.

One step consumes the state estimate at time k-1 plus the measurement at
time k and produces estimates of the attack input d_{k-1} and the state
x_k: the minimum-variance unbiased filter of Gillijns & De Moor
(Automatica 43(1), 2007), then projection of both estimates onto their
inequality constraint sets. Its stages, predict, attack estimation through
a weighted least-squares gain M, the time update and a measurement update
with the closed-form gain L = (P* C' - G M R) S~^{-1}, are written once
over any leading batch axis of the estimates: the public stage functions
take a stack of estimates as readily as one, and `care_step` is their
batch of one. The vehicle kernel `ensemble._Batch` runs the same filter
in a closed form of its own and shares the attack stage's
identifiability test, `_require_identifiable`.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConstraintSet, SystemModel
from .projection import (
    ProjectionResult,
    _eig_bounds,
    _mv,
    _sym,
    _sym_inv,
    project_attack,
    project_state,
)

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

# the largest condition number of the attack information G'C'R~CG that counts as identifiable
_IDENT_LIMIT = 1e12


class AttackUnidentifiableError(RuntimeError):
    """The attack direction is not observable through C G at this step."""


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


def initial_state(x0, P0=None) -> EstimatorState:
    x0 = np.asarray(x0, dtype=float).ravel()
    if P0 is None:
        P0 = 10.0 * np.eye(x0.size)
    return EstimatorState(x0, np.asarray(P0, dtype=float))


def _T(X):
    return X.swapaxes(-1, -2)


def _rows(y, x):
    """The measurements y as float rows, one per leading index of x."""
    return np.asarray(y, dtype=float).reshape(x.shape[:-1] + (-1,))


def _require_identifiable(lo, hi, where):
    """Raise AttackUnidentifiableError naming where(i), i the first stack
    position whose attack information G'C'R~CG, with least and largest
    eigenvalues lo and hi, is not positive definite or has condition number
    above _IDENT_LIMIT, and ValueError when those are not finite, as they are not
    for an information matrix with a non-finite entry."""
    bad = ~((lo > 0.0) & (hi <= _IDENT_LIMIT * lo))  # NaN bounds count as bad
    if bad.any():
        i = int(np.argmax(bad))
        lo, hi = np.ravel(lo)[i], np.ravel(hi)[i]
        if not np.isfinite([lo, hi]).all():
            raise ValueError(f"non-finite attack information G'C'R~CG at {where(i)}")
        why = "is not positive definite" if lo <= 0.0 else "condition number exceeds 1e12"
        raise AttackUnidentifiableError(f"attack unidentifiable at {where(i)}: G'C'R~CG {why}")


def predict(state: EstimatorState, model: SystemModel, u) -> Prediction:
    """Propagate the estimate through the nominal dynamics."""
    k = state.k
    A = model.A(k)
    x = _mv(A, state.x_hat) + model.B(k) @ np.asarray(u, dtype=float).ravel()
    return Prediction(x, _sym(A @ state.P_x @ A.T + model.Q(k)), k + 1)


def estimate_attack(pred: Prediction, model: SystemModel, prev_cov, y) -> AttackEstimate:
    """Weighted least-squares estimate of d_{k-1} from the innovation y - C x^-.

    Raises AttackUnidentifiableError when G' C' R~ C G cannot be inverted
    reliably (not positive definite or condition number above 1e12).
    """
    k = pred.k
    C = model.C(k)
    R_tilde = _sym(np.linalg.inv(C @ pred.P_x @ _T(C) + model.R(k)))
    nu = _rows(y, pred.x_hat) - _mv(C, pred.x_hat)
    CG = C @ model.G(k - 1)
    T = _T(CG) @ R_tilde
    N = _sym(T @ CG)
    lo, hi = _eig_bounds(N)
    _require_identifiable(lo, hi, lambda _: f"k={k}")
    P_d = _sym_inv(N)
    M = P_d @ T
    P_xd = -prev_cov @ model.A(k - 1).T @ C.T @ _T(M)
    return AttackEstimate(_mv(M, nu), _sym(P_d), P_xd, M, R_tilde, k)


def time_update(pred: Prediction, atk: AttackEstimate, model: SystemModel,
                prev: EstimatorState) -> TimeUpdated:
    """Fold the attack estimate back into the prior for x_k: x* = x^- + G d,
    P* = P^- - GMCP^- - (GMCP^-)' + G P_d G' and
    R* = C P* C' - CGMR - (CGMR)' + R."""
    if atk.k != pred.k or prev.k != pred.k - 1:
        raise ValueError("prediction, attack estimate and previous state disagree on k")
    k = pred.k
    C, G, R = model.C(k), model.G(k - 1), model.R(k)
    GM = G @ atk.M
    GMCP = GM @ C @ pred.P_x
    P_star = _sym(pred.P_x - GMCP - _T(GMCP) + G @ atk.P_d @ G.T)
    CGMR = C @ GM @ R
    R_star = _sym(C @ P_star @ C.T - CGMR - _T(CGMR) + R)
    return TimeUpdated(pred.x_hat + _mv(G, atk.d_hat), P_star, R_star, k)


def measurement_update(tu: TimeUpdated, atk: AttackEstimate, model: SystemModel,
                       y) -> UnconstrainedUpdate:
    """Measurement update with the closed-form gain L = H S~^{-1}.

    H = P* C' - G M R and S~ = R* + C G P_d G' C', which on consistent
    inputs is the innovation covariance C P^- C' + R. L R* = H, so L
    minimizes the trace of the posterior covariance and P = P* - L H'.
    R* itself can be singular (it is exactly zero in the noise-free scalar
    case), and nothing inverts it (Yong, Zhu & Frazzoli, Automatica 63,
    2016, give the general-rank form of this filter).
    """
    if atk.k != tu.k:
        raise ValueError("attack estimate and time update disagree on k")
    k = tu.k
    C, G, R = model.C(k), model.G(k - 1), model.R(k)
    CG = C @ G
    H = tu.P_x @ C.T - G @ atk.M @ R
    L = _T(np.linalg.solve(_sym(tu.R_star + CG @ atk.P_d @ CG.T), _T(H)))
    x = tu.x_hat + _mv(L, _rows(y, tu.x_hat) - _mv(C, tu.x_hat))
    return UnconstrainedUpdate(x, _sym(tu.P_x - L @ _T(H)), L, k)


def care_step(state: EstimatorState, model: SystemModel, constraints: "ConstraintSet | None",
              u, y) -> StepOutput:
    """Run one full estimation step from x_{k-1} and y_k.

    With constraints=None (the unconstrained baseline) the projection stage
    is skipped entirely and the returned state carries the unconstrained
    posterior; the projection fields are then None. A non-finite y, x_hat
    or P_x raises ValueError naming the field and its step k.
    """
    y = np.asarray(y, dtype=float).ravel()
    for what, v, k in (("measurement y", y, state.k + 1),
                       ("state estimate x_hat", state.x_hat, state.k),
                       ("state covariance P_x", state.P_x, state.k)):
        if not np.isfinite(v).all():
            raise ValueError(f"non-finite {what} at k={k}")
    pred = predict(state, model, u)
    atk = estimate_attack(pred, model, state.P_x, y)
    tu = time_update(pred, atk, model, state)
    upd = measurement_update(tu, atk, model, y)
    k = pred.k
    if constraints is None:
        return StepOutput(EstimatorState(upd.x_hat, upd.P_x, k), pred, atk, tu, upd,
                          atk.d_hat, atk.P_d, None, None)
    d_hat, P_d, in_proj = project_attack(
        atk, constraints.input_matrix(k - 1), constraints.input_bound(k - 1),
        f"k={k}, attack estimate")
    x_hat, P_x, st_proj = project_state(
        upd, constraints.state_matrix(k), constraints.state_bound(k), f"k={k}, state estimate")
    return StepOutput(EstimatorState(x_hat, P_x, k), pred, atk, tu, upd,
                      d_hat, P_d, in_proj, st_proj)
