"""System descriptions consumed by the estimator and the harness.

Matrices are provided as pure functions of the time index k, so constant
systems and state-scheduled linearizations share one interface. Constraint
sets follow the same convention; an empty matrix (zero rows) means
unconstrained. `NoiseSpec` turns a seed into reproducible Gaussian noise
sequences, and `validate` walks a horizon checking every invariant the
filter relies on, returning a report instead of throwing.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .projection import ActiveSetLimitError, InfeasibleConstraintsError, project

__all__ = [
    "ConstraintSet",
    "NoiseSpec",
    "SystemModel",
    "ValidationReport",
    "validate",
]

MatrixProvider = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class SystemModel:
    """Linear time-varying system x_{k+1} = A_k x_k + B_k u_k + G_k d_k + w_k,
    y_k = C_k x_k + v_k, with w ~ N(0, Q_k) and v ~ N(0, R_k)."""

    state_dim: int
    input_dim: int
    attack_dim: int
    output_dim: int
    A: MatrixProvider
    B: MatrixProvider
    C: MatrixProvider
    G: MatrixProvider
    Q: MatrixProvider
    R: MatrixProvider

    @classmethod
    def constant(cls, A, B, C, G, Q, R) -> "SystemModel":
        """Wrap fixed arrays as constant-in-k providers."""
        A, B, C, G, Q, R = (np.array(M, dtype=float) for M in (A, B, C, G, Q, R))
        return cls(
            state_dim=A.shape[0],
            input_dim=B.shape[1],
            attack_dim=G.shape[1],
            output_dim=C.shape[0],
            A=lambda k: A,
            B=lambda k: B,
            C=lambda k: C,
            G=lambda k: G,
            Q=lambda k: Q,
            R=lambda k: R,
        )


@dataclass(frozen=True)
class ConstraintSet:
    """Inequality constraints on the attack input and on the state.

    input_matrix(k) z <= input_bound(k) constrains the attack estimate at
    step k; state_matrix(k) x <= state_bound(k) constrains the state
    estimate. Zero-row matrices mean unconstrained. Feasibility of constant
    sets is probed at construction; provider-based sets are checked per step
    by `validate` and, operationally, by the projection itself (which raises
    on an empty feasible set).
    """

    input_matrix: MatrixProvider
    input_bound: MatrixProvider
    state_matrix: MatrixProvider
    state_bound: MatrixProvider

    @classmethod
    def unconstrained(cls, attack_dim: int, state_dim: int) -> "ConstraintSet":
        return cls.constant(attack_dim=attack_dim, state_dim=state_dim)

    @classmethod
    def constant(cls, input_matrix=None, input_bound=None, state_matrix=None,
                 state_bound=None, attack_dim=None, state_dim=None) -> "ConstraintSet":
        """Fixed constraint arrays; pass None with the matching dim for an
        unconstrained block. Probes both feasible sets for emptiness."""
        if input_matrix is None:
            if attack_dim is None:
                raise ValueError("attack_dim required when input constraints are omitted")
            Ad, bd = np.zeros((0, attack_dim)), np.zeros(0)
        else:
            Ad = np.array(input_matrix, dtype=float)
            bd = np.array(input_bound, dtype=float).ravel()
        if state_matrix is None:
            if state_dim is None:
                raise ValueError("state_dim required when state constraints are omitted")
            Bx, cx = np.zeros((0, state_dim)), np.zeros(0)
        else:
            Bx = np.array(state_matrix, dtype=float)
            cx = np.array(state_bound, dtype=float).ravel()
        for name, Mrows, bound in (("input", Ad, bd), ("state", Bx, cx)):
            if Mrows.shape[0]:
                try:
                    project(np.zeros(Mrows.shape[1]), np.eye(Mrows.shape[1]), Mrows, bound)
                except InfeasibleConstraintsError:
                    raise InfeasibleConstraintsError(
                        f"{name} constraint set is empty: no point meets all of its rows"
                    ) from None
                except ActiveSetLimitError:
                    raise InfeasibleConstraintsError(
                        f"{name} constraint set looks empty: the projection onto it did not converge"
                    ) from None
        return cls(lambda k: Ad, lambda k: bd, lambda k: Bx, lambda k: cx)


def _psd_factor(M):
    """Cholesky factors of a stack of PSD matrices. Where one of them is
    not positive definite, each is factored alone, the failing ones by
    eigendecomposition with negative eigenvalues clamped to zero (handles
    singular Q)."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    if M.ndim > 2:
        return np.array([_psd_factor(Mk) for Mk in M])
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return V * np.sqrt(np.clip(w, 0.0, None))


def _factors(provider, ks, n, name):
    """`_psd_factor` factors of the (n, n) covariances provider(k), k in
    ks, as a stack: one factor when the provider returns the same array
    object at every k, else one per k. A wrong shape or a non-finite entry
    raises `validate`'s message for the first such k as a ValueError."""
    mats = [provider(k) for k in ks]
    if all(M is mats[0] for M in mats):
        ks, mats = ks[:1], mats[:1]
    return _psd_factor(np.array([_as_matrix(M, k, n, n, name) for k, M in zip(ks, mats)]))


def _draw_noise(generators, model, k0, z):
    """Steps k0 ... k0 + c - 1 of each generator's noise stream, c = z.shape[1].

    Fills z[i], a C-contiguous (c, m + n_y, 1) buffer, with the next
    standard normals of generators[i], then factors Q(k0 ... k0 + c - 1)
    and R(k0 + 1 ... k0 + c) once for every stream. Returns W (runs, c, m)
    and V (runs, c, n_y): W[i, j] ~ N(0, Q(k0 + j)) and V[i, j] ~
    N(0, R(k0 + j + 1)) both come from draw row j. Each factor is applied
    one matrix-vector product per step, never one product over the draw:
    BLAS may sum a whole-draw product in an order that depends on its
    length, which would make a step's noise depend on how the steps are
    split. A single factor with zero off-diagonal entries scales the draw by
    its diagonal instead: np.array_equal to the products, at a tenth of the cost.
    """
    m, n_y = model.state_dim, model.output_dim
    c = z.shape[1]
    for gen, z_i in zip(generators, z):
        gen.standard_normal(out=z_i)
    Lq = _factors(model.Q, range(k0, k0 + c), m, "Q")
    Lr = _factors(model.R, range(k0 + 1, k0 + c + 1), n_y, "R")
    return tuple(L[0].diagonal() * x[..., 0]
                 if len(L) == 1 and np.count_nonzero(L) == np.count_nonzero(L[0].diagonal())
                 else (L @ x)[..., 0] for L, x in ((Lq, z[:, :, :m]), (Lr, z[:, :, m:])))


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian noise source for simulation.

    W[k] ~ N(0, Q(k)) is the process noise applied in the k -> k+1
    transition, V[k] ~ N(0, R(k)) the measurement noise on y_k for k >= 1
    (row 0 stays zero; y_0 is never consumed); W[k] and V[k+1] come from
    row k of the stream of standard normals of `generator()`. `sample`
    returns the whole horizon as one chunk of that stream; the vehicle
    kernel reads the same stream in chunks of `ensemble._NOISE_CHUNK`
    steps, each drawn as the batch reaches it. The draws do not depend on
    where the chunks fall: identical (seed, run_index) pairs reproduce
    identical arrays bit for bit on one platform, a shorter horizon yields
    a prefix of a longer one, and so does a chunk of the stream. A
    covariance the provider returns as the same array object at every k of
    a chunk is factored once; providers must not modify an array they have
    returned. A seed or run index that is not a nonnegative integer (numpy
    integers included) raises a ValueError naming the field.
    """

    seed: int
    run_index: int = 0

    def __post_init__(self):
        for name in ("seed", "run_index"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.run_index,))
        return np.random.default_rng(ss)

    def sample(self, model: SystemModel, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        z = np.empty((1, horizon, model.state_dim + model.output_dim, 1))
        W, V_next = _draw_noise([self.generator()], model, 0, z)
        V = np.zeros((horizon + 1, model.output_dim))
        V[1:] = V_next[0]
        return W[0], V


@dataclass
class ValidationReport:
    """Accumulated invariant violations; empty means everything checked out."""

    issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, msg: str):
        self.issues.append(msg)

    def __str__(self):
        return "all checks passed" if self.ok else "\n".join(self.issues)


def _as_matrix(M, k, rows, cols, name):
    """name(k) = M as a float (rows, cols) array; ValueError naming name(k)
    for a wrong shape or a non-finite entry."""
    M = np.asarray(M)
    if M.shape != (rows, cols):
        raise ValueError(f"{name}({k}) has shape {M.shape}, expected {(rows, cols)}")
    M = M.astype(float)
    if not np.isfinite(M).all():
        raise ValueError(f"{name}({k}) has non-finite entries")
    return M


def _checked(provider, k, rows, cols, name, report):
    """provider(k) as a float array, or None after reporting a wrong shape
    or a non-finite entry, which leaves nothing to derive checks from."""
    M = provider(k)
    try:
        return _as_matrix(M, k, rows, cols, name)
    except ValueError as err:
        report.add(str(err))
        return None


def validate(model: SystemModel, constraints: ConstraintSet, horizon: int) -> ValidationReport:
    """Walk the horizon and report every violated invariant with its k.

    Checks dimensions, finite model matrices, Q PSD, R PD (by Cholesky),
    rank(C(k) G(k-1)) = n_d, rank of the state-constraint rows strictly
    below the state dimension, finite constraint data, non-empty feasible
    sets, and provider determinism at spot-check indices.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rep = ValidationReport()
    m, n_u = model.state_dim, model.input_dim
    n_d, n_y = model.attack_dim, model.output_dim

    G = None
    for k in range(horizon + 1):
        _checked(model.A, k, m, m, "A", rep)
        _checked(model.B, k, m, n_u, "B", rep)
        C = _checked(model.C, k, n_y, m, "C", rep)
        Gp, G = G, _checked(model.G, k, m, n_d, "G", rep)
        Q = _checked(model.Q, k, m, m, "Q", rep)
        R = _checked(model.R, k, n_y, n_y, "R", rep)

        if Q is not None:
            eig = np.linalg.eigvalsh(0.5 * (Q + Q.T))
            if eig[0] < -1e-10 * (1.0 + float(np.abs(eig).max())):
                rep.add(f"Q({k}) is not positive semidefinite (min eigenvalue {eig[0]:.3e})")
        if R is not None:
            try:
                np.linalg.cholesky(0.5 * (R + R.T))
            except np.linalg.LinAlgError:
                rep.add(f"R({k}) is not positive definite")
        if C is not None and Gp is not None and np.linalg.matrix_rank(C @ Gp) < n_d:
            rep.add(f"rank(C({k}) G({k - 1})) is below the attack dimension")

        Ad = np.asarray(constraints.input_matrix(k), dtype=float)
        bd = np.asarray(constraints.input_bound(k), dtype=float).ravel()
        Bx = np.asarray(constraints.state_matrix(k), dtype=float)
        cx = np.asarray(constraints.state_bound(k), dtype=float).ravel()
        if Ad.shape[0] != bd.size:
            rep.add(f"input constraints at k={k} disagree on row count")
        if Bx.shape[0] != cx.size:
            rep.add(f"state constraints at k={k} disagree on row count")
        if Bx.shape[0] and np.isfinite(Bx).all() and np.linalg.matrix_rank(Bx) >= m:
            rep.add(f"state constraint rows at k={k} have rank >= state dimension")
        for name, Mrows, bound, dim in (("input", Ad, bd, n_d), ("state", Bx, cx, m)):
            if Mrows.shape[0] and Mrows.shape == (bound.size, dim):
                try:
                    project(np.zeros(dim), np.eye(dim), Mrows, bound)
                except (InfeasibleConstraintsError, ActiveSetLimitError):
                    rep.add(f"{name} constraint set at k={k} looks empty")
                except ValueError as err:
                    rep.add(f"{name} constraints at k={k}: {err}")

    for k in (0, max(horizon // 2, 1), horizon):
        for name, provider in (("A", model.A), ("B", model.B), ("C", model.C),
                               ("G", model.G), ("Q", model.Q), ("R", model.R)):
            first = np.asarray(provider(k))
            second = np.asarray(provider(k))
            if not np.array_equal(first, second, equal_nan=True):
                rep.add(f"provider {name} is not deterministic at k={k}")
    return rep
