"""The batched filter kernel of the vehicle scenario and `run_ensemble`.

`_Batch` propagates many independent realizations side by side and runs
the MVU input/state filter (Gillijns & De Moor, Automatica 43(1), 2007)
over a leading row axis, so each step costs a handful of batched numpy
calls instead of a Python loop over runs and filters. Rows are laid out
filter-major, [care runs | ise runs]: the truth is propagated once per
realization and every filter block of a realization sees that
realization's measurement. Per-run noise comes from `NoiseSpec(seed, i)`
for run index i, streamed: the batch draws the next _NOISE_CHUNK steps of
every run's stream together as it reaches them, bit for bit what
`NoiseSpec.sample` returns, so noise holds O(runs x _NOISE_CHUNK) memory
whatever the horizon. The prediction and the attack estimate are the
stages `care_step` runs, `estimator._predict` and
`estimator._estimate_attack`, called on the stacked rows with C = I (passed
as None, which skips its products). Only the measurement update is the
kernel's own, the closed form for C = I and diagonal R (Kitanidis,
Automatica 23(6), 1987): for S = P^- + R and W = S^{-1} - S^{-1} G P_d G'
S^{-1}, the posterior is x = y - R W nu and P = R - R W R, which needs
neither R* nor a solve. `run_ensemble` here and `simulate`/`monte_carlo`
in the harness are the drivers of this one kernel.

Projection is where runs genuinely differ. Both projections of every care
run, the attack estimate onto the actuator box and the state estimate onto
the road and speed box, go into one call of `projection._box_project` per
step as separate entries of one stack, so the call's fixed cost is paid
once. The two sets' rows are stacked in one matrix, and each entry carries
its own bounds, +inf on the rows of the other set, in one constraint table
the batch builds once; an attack entry fills the leading two of four
coordinates and its padding, a zero estimate and a zero covariance, stays
zero. The call projects in place in the batch's buffers of n + N rows,
[attack entries of the n care rows | the state of all N rows], its
entries the first 2n: x and P are views of rows n onward, as are d and Pd
unless ise rows follow, all valid until the next `step`. The projector
reports each entry's active rows as a mask, whose sums are the active
counts. `care_step` takes the same projector as a batch of one, and an
entry's result does not depend on its batch, bit for bit:
`simulate(run_index=i)` is run i of `monte_carlo`, and the leading runs of
a `run_ensemble` batch are a smaller batch. On the vehicle boxes every
entry stops at the face of its own violated rows, so the scalar active-set
search is never reached.

The point of `run_ensemble` is stability studies: hundreds of runs over
ten thousand steps, reduced to per-step error energies and running
covariance extrema instead of full per-step records. The (runs, horizon)
error energies are the only output that grows with the horizon: 200 runs
of 10,000 steps peak at 57.6 MB RSS, 16 MB of it err_sq. Its optional
projection audit buffers what it reads of each step and tallies once per
block of _AUDIT_BLOCK steps in one vectorized pass, so it holds
O(runs x _AUDIT_BLOCK) extra memory and no per-step tally.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ScenarioConfig
from .estimator import _estimate_attack, _predict
from .model import NoiseSpec, _draw_noise
from .projection import _ConstraintTable, _box_project, _sym, _sym_inv
from .vehicle import VehicleParams, attack_input, build_constraints, slip_angle, vehicle_model

__all__ = ["EnsembleResult", "run_ensemble"]

_FILTERS = ("care", "ise")
_EYE2 = np.eye(2)
# steps per vectorized audit pass. In a 50-run, 1,000-step audited call the
# audit took 0.37 s in blocks of 1 step, 0.12 s of 8, 0.10 s of 16, 0.09 s of
# 32 and 0.085 s of 64; its buffers hold 320 bytes per run and step
_AUDIT_BLOCK = 32
# steps of noise per chunk. A chunk's draw and factored noise hold 128 bytes
# per run and step. A 24-run batch's draw took 7-8 us per step in chunks of
# 64 and 6.7 us in chunks of 128; 200 runs over 10,000 steps peaked at
# 54.6 MB RSS with 64, 57.6 MB with 128 and 63.0 MB with 256
_NOISE_CHUNK = 128


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step error energies and running covariance extrema for a batch.

    err_sq[i, k-1] holds ||x_hat_k - x_k||^2 for run i using the final
    (projected) estimate. The trace maxima are taken over steps k > 100,
    where the transient from the inflated initial covariance has died out;
    every tracked covariance is positive semidefinite, so its largest
    eigenvalue is bounded by the trace.
    """

    runs: int
    horizon: int
    err_sq: np.ndarray
    max_trace_pxu: float
    max_cov_trace: float
    max_mcg_dev: float
    fallback_projections: int
    x_hat: np.ndarray = None
    d_hat: np.ndarray = None
    x_true: np.ndarray = None
    audit: dict = None


class _Batch:
    """Stepping state of realizations x filters of the vehicle scenario.

    Row f * R + i is filter `names[f]` on realization `run_indices[i]`.
    Each filter schedules its matrices on its own previous speed estimate;
    the plant uses the true speed. After `step(k)` the attributes hold
    step k for every row: the final estimates x, P, d, Pd (projected on
    the care rows; views of the projection buffers, valid until the next
    step), the unprojected x_raw, P_raw, d_raw, Pd_raw, the
    active constraint counts in_act and st_act, and mcg_dev, the largest
    entry of |M C G - I|. x_true holds the truth of each realization.
    """

    def __init__(self, config: ScenarioConfig, run_indices, filters):
        for name in filters:
            if name not in _FILTERS:
                raise ValueError(f"unknown filter {name!r}")
        self.names = [name for name in _FILTERS if name in filters]
        if not self.names:
            raise ValueError("filters must name at least one filter")
        self.run_indices = list(run_indices)
        if not self.run_indices:
            raise ValueError("runs must be positive")
        R = len(self.run_indices)
        N = R * len(self.names)
        K = config.horizon
        params = VehicleParams(l_f=config.l_f, l_r=config.l_r, T_s=config.t_s)
        self.params = params
        self.clamp_truth = config.clamp_truth
        # the road and speed box of the truth; the heading is free
        self.truth_lo = np.array([0.0, 0.0, -np.inf, 0.0])
        self.truth_hi = np.array([params.x_max, params.y_max, np.inf, params.v_max])

        self.horizon = K
        self.noise_model = vehicle_model(lambda k: 0.0, params)
        self.generators = [NoiseSpec(config.seed, run).generator() for run in self.run_indices]
        # one chunk's standard normals, m + n_y = 8 per run and step
        self.z = np.empty((R, min(_NOISE_CHUNK, K), 8, 1))
        self._draw_chunk(0)

        self.d_true = np.zeros((K, 2))
        if config.attack == "vehicle":
            for k in range(K):
                self.d_true[k] = attack_input(k, params)

        u_raw = (config.control_delta, config.control_accel)
        self.u_beta = np.array([slip_angle(u_raw[0], params), u_raw[1]])
        self.A_in, self.b_in, self.B_st, self.c_st = build_constraints(u_raw, params)
        self.r_diag = np.asarray(params.r_diag, dtype=float)
        self.r_outer = np.outer(self.r_diag, self.r_diag)
        self.Q = np.diag(params.q_diag)
        self.R_mat = np.diag(self.r_diag)

        x0 = np.array(config.x0, dtype=float)
        self.x_true = np.broadcast_to(x0, (R, 4)).copy()
        self.x = np.broadcast_to(x0, (N, 4)).copy()
        self.P = np.broadcast_to(config.p0_scale * np.eye(4), (N, 4, 4)).copy()
        self.n_care = n = R if "care" in self.names else 0
        self.fallbacks = 0
        self.in_act = np.zeros(N, dtype=np.int64)
        self.st_act = np.zeros(N, dtype=np.int64)

        # both projections of the care rows in one `_box_project` call: entry
        # h < n is row h's attack estimate in the leading two coordinates,
        # entry n + h its state estimate, each on its own rows of [[A_in, 0]; B_st]
        q_in = len(self.b_in)
        A_box = np.vstack([np.hstack([self.A_in, np.zeros((q_in, 2))]), self.B_st])
        b_box = np.full((2 * n, len(A_box)), np.inf)
        b_box[:n, :q_in] = self.b_in
        b_box[n:, q_in:] = self.c_st
        self.box = _ConstraintTable(A_box, b_box, np.repeat([2, 4], n))
        self.box_est = np.zeros((n + N, 4))
        self.box_cov = np.zeros((n + N, 4, 4))
        self.box_act = np.zeros((2 * n, len(A_box)), dtype=bool)

        # constant slots of the scheduled matrices; speed-dependent entries
        # are rewritten every step (separate buffers for plant and filters)
        T = params.T_s
        self.A_t = np.tile(np.eye(4), (R, 1, 1))
        self.A_t[:, 0, 3] = T
        self.B_t = np.zeros((R, 4, 2))
        self.B_t[:, 3, 1] = T
        self.A_f = np.tile(self.A_t[:1], (N, 1, 1))
        self.B_f = np.tile(self.B_t[:1], (N, 1, 1))

    def _draw_chunk(self, k0):
        """Draw the noise of steps k0 + 1 ... k0 + c, c = min(_NOISE_CHUNK, K - k0)."""
        c = min(self.z.shape[1], self.horizon - k0)
        self.noise_k0 = k0
        self.w_chunk, self.v_chunk = _draw_noise(self.generators, self.noise_model, k0,
                                                 self.z[:, :c])

    def _where(self, k, row):
        R = len(self.run_indices)
        return f"k={k}, run {self.run_indices[row % R]}, filter {self.names[row // R]}"

    def _schedule(self, A, B, v):
        vT = v * self.params.T_s
        A[:, 1, 2] = vT
        B[:, 1, 0] = vT
        B[:, 2, 0] = vT / self.params.l_r

    def step(self, k):
        km1 = k - 1
        where = partial(self._where, k)
        j = km1 - self.noise_k0
        if j == self.w_chunk.shape[1]:
            self._draw_chunk(km1)
            j = 0

        self._schedule(self.A_t, self.B_t, self.x_true[:, 3])
        x_true = (self.A_t @ self.x_true[..., None])[..., 0] + self.B_t @ self.u_beta \
            + self.B_t @ self.d_true[km1] + self.w_chunk[:, j]
        if self.clamp_truth:
            np.clip(x_true, self.truth_lo, self.truth_hi, out=x_true)
        self.x_true = x_true
        y = x_true + self.v_chunk[:, j]
        if len(self.names) > 1:
            y = np.concatenate([y] * len(self.names))

        A_f, G_f = self.A_f, self.B_f
        self._schedule(A_f, G_f, self.x[:, 3])
        pred_x, Pp = _predict(A_f, G_f, self.Q, self.x, self.P, self.u_beta)
        R_til, T_mat, Pd_u, M, nu, d_u = _estimate_attack(None, G_f, self.R_mat, pred_x, Pp,
                                                          y, where)
        # C = I: S^{-1} is a generalized inverse of R*, so the update needs no solve
        W = _sym(R_til - T_mat.transpose(0, 2, 1) @ M)
        x_u = y - self.r_diag * (W @ nu[..., None])[..., 0]
        P_u = self.R_mat - self.r_outer * W  # exactly symmetric, as W is

        self.mcg_dev = np.abs(M @ G_f - _EYE2).max(axis=(1, 2))
        self.x_raw, self.P_raw, self.d_raw, self.Pd_raw = x_u, P_u, d_u, Pd_u
        n = self.n_care
        if n:
            # the padded coordinates of the attack entries stay zero
            est, cov, act = self.box_est, self.box_cov, self.box_act
            est[:n, :2], est[n:] = d_u[:n], x_u
            cov[:n, :2, :2], cov[n:] = Pd_u[:n], P_u
            self.fallbacks = _box_project(est[:2 * n], cov[:2 * n], self.box, self.fallbacks,
                                          act, lambda h: where(h % n))
            if n == len(x_u):
                d_u, Pd_u = est[:n, :2], cov[:n, :2, :2]
            else:
                d_u = np.concatenate([est[:n, :2], d_u[n:]])
                Pd_u = np.concatenate([cov[:n, :2, :2], Pd_u[n:]])
            x_u, P_u = est[n:], cov[n:]
            self.in_act[:n], self.st_act[:n] = act[:n].sum(axis=1), act[n:].sum(axis=1)
        self.x, self.P, self.d, self.Pd = x_u, P_u, d_u, Pd_u


def _audit_update(audit, which, act, e_con, e_unc, W, tr_pre, tr_post):
    """Tally norm and trace comparisons for the entries act, each one run
    at one step, where a projection actually moved the estimate. Norms use the projection's own metric
    (weight W, the inverse unconstrained covariance) next to the plain
    Euclidean norm, which the oblique projection does not contract in
    general; both counts are kept so the audit can report the difference.
    """
    lhs_w = np.sqrt(np.einsum('ri,rij,rj->r', e_con, W, e_con))
    rhs_w = np.sqrt(np.einsum('ri,rij,rj->r', e_unc, W, e_unc))
    m_w = lhs_w - rhs_w
    lhs_e = np.linalg.norm(e_con, axis=1)
    rhs_e = np.linalg.norm(e_unc, axis=1)
    m_e = lhs_e - rhs_e
    audit[f"active_{which}"] += int(act.size)
    audit[f"viol_{which}_weighted"] += int((m_w > 1e-10).sum())
    audit[f"viol_{which}_euclid"] += int((m_e > 1e-10).sum())
    audit[f"worst_{which}_weighted"] = max(audit[f"worst_{which}_weighted"],
                                           float(m_w.max()))
    audit[f"worst_{which}_euclid"] = max(audit[f"worst_{which}_euclid"],
                                         float(m_e.max()))
    audit[f"viol_trace_{which}"] += int((tr_post > tr_pre).sum())
    audit[f"viol_strict_{which}"] += int((tr_post >= tr_pre).sum())


def _new_audit():
    audit = {"truth_infeasible_steps": 0}
    for which in ("x", "d"):
        audit[f"active_{which}"] = 0
        audit[f"viol_{which}_weighted"] = 0
        audit[f"viol_{which}_euclid"] = 0
        audit[f"worst_{which}_weighted"] = float("-inf")
        audit[f"worst_{which}_euclid"] = float("-inf")
        audit[f"viol_trace_{which}"] = 0
        audit[f"viol_strict_{which}"] = 0
    return audit


class _BlockAudit:
    """The projection audit of a constrained batch, tallied once per block.

    `record` copies what the audit reads of a step into (B, R, ...) buffers,
    B = _AUDIT_BLOCK; the covariances after projection are kept as traces
    alone. `_flush` tallies the buffered steps in one vectorized pass: two
    `_audit_update` calls over every audited (step, run) entry of the block.
    Every tally is a count, a sum or a maximum, and the per-entry arithmetic
    is that of one step alone, so the result does not depend on where the
    blocks fall.
    """

    _FIELDS = {"d": (2,), "d_raw": (2,), "Pd_raw": (2, 2), "x": (4,), "x_raw": (4,),
               "P_raw": (4, 4), "x_true": (4,), "in_act": (), "st_act": ()}

    def __init__(self, batch):
        self.batch = batch
        self.tally = _new_audit()
        R = len(batch.run_indices)
        self.buf = {name: np.empty((_AUDIT_BLOCK, R) + shape)
                    for name, shape in self._FIELDS.items()}
        self.tr_P = np.empty((_AUDIT_BLOCK, R))
        self.tr_Pd = np.empty((_AUDIT_BLOCK, R))
        # the attack's truth is shared by every run, so its feasibility is per step
        self.d_feas = (batch.d_true @ batch.A_in.T <= batch.b_in).all(axis=1)
        self.m = 0

    def record(self, km1):
        """Buffer step km1 + 1 of the batch; tally the block once it is full
        or the step is the horizon's last."""
        batch, j = self.batch, self.m
        for name, buf in self.buf.items():
            buf[j] = getattr(batch, name)
        self.tr_P[j] = batch.P.trace(axis1=1, axis2=2)
        self.tr_Pd[j] = batch.Pd.trace(axis1=1, axis2=2)
        self.m += 1
        # d_true holds one row per step of the horizon
        if self.m == _AUDIT_BLOCK or km1 + 1 == len(batch.d_true):
            self._flush(km1 + 1 - self.m)

    def _flush(self, k0):
        """Tally the buffered steps, k0 + 1 to k0 + m, and empty the buffers."""
        m, batch, audit = self.m, self.batch, self.tally
        R = len(batch.run_indices)
        # entry s * R + i is run i at the block's step s
        b = {name: buf[:m].reshape((m * R,) + buf.shape[2:]) for name, buf in self.buf.items()}
        d_feas = self.d_feas[k0:k0 + m]
        x_true = b["x_true"]
        x_feas = (x_true @ batch.B_st.T <= batch.c_st).all(axis=1)
        audit["truth_infeasible_steps"] += R * int((~d_feas).sum()) + int((~x_feas).sum())
        ar = np.flatnonzero((b["in_act"] > 0) & np.repeat(d_feas, R))
        if ar.size:
            d_ar = batch.d_true[k0 + ar // R]
            Pd_raw = b["Pd_raw"][ar]
            _audit_update(
                audit, "d", ar, b["d"][ar] - d_ar, b["d_raw"][ar] - d_ar, _sym_inv(Pd_raw),
                Pd_raw.trace(axis1=1, axis2=2), self.tr_Pd[:m].reshape(-1)[ar])
        ar = np.flatnonzero((b["st_act"] > 0) & x_feas)
        if ar.size:
            P_raw = b["P_raw"][ar]
            _audit_update(
                audit, "x", ar, b["x"][ar] - x_true[ar], b["x_raw"][ar] - x_true[ar],
                np.linalg.inv(P_raw),
                P_raw.trace(axis1=1, axis2=2), self.tr_P[:m].reshape(-1)[ar])
        self.m = 0


def run_ensemble(config: ScenarioConfig, runs: int = None, constrained: bool = True,
                 record_states: bool = False,
                 projection_audit: bool = False) -> EnsembleResult:
    """Run `runs` independent vehicle realizations as one stacked batch.

    constrained=False skips both projections (the unconstrained baseline).
    record_states additionally returns the full estimate, attack-estimate
    and truth trajectories, which costs memory on long horizons and is
    meant for cross-checks against the sequential harness.

    projection_audit compares, at every step where a projection moved an
    estimate and the true value sits inside its feasible set, the projected
    error against the unconstrained error: norms in the projection metric
    and in the Euclidean metric, plus the covariance traces before and
    after. The tallies land in the result's audit dict. It needs
    constrained=True, since the unconstrained baseline projects nothing;
    with constrained=False it raises ValueError.
    """
    if projection_audit and not constrained:
        raise ValueError("projection_audit=True needs constrained=True: "
                         "the unconstrained baseline makes no projection to audit")
    R = config.runs if runs is None else int(runs)
    K = config.horizon
    batch = _Batch(config, range(R), ("care",) if constrained else ("ise",))

    err_sq = np.empty((R, K))
    max_trace_pxu = 0.0
    max_cov_trace = 0.0
    max_mcg_dev = 0.0
    audit = _BlockAudit(batch) if projection_audit else None

    if record_states:
        X_rec = np.empty((R, K + 1, 4))
        D_rec = np.empty((R, K, 2))
        XT_rec = np.empty((R, K + 1, 4))
        X_rec[:, 0] = batch.x
        XT_rec[:, 0] = batch.x_true
    else:
        X_rec = D_rec = XT_rec = None

    for k in range(1, K + 1):
        km1 = k - 1
        batch.step(k)
        max_mcg_dev = max(max_mcg_dev, float(batch.mcg_dev.max()))

        # trace extrema come from the unconstrained pair; projection can
        # only shrink a trace, so these also bound the constrained ones
        if k > 100:
            tru = float(batch.P_raw.trace(axis1=1, axis2=2).max())
            max_trace_pxu = max(max_trace_pxu, tru)
            trd = float(batch.Pd_raw.trace(axis1=1, axis2=2).max())
            max_cov_trace = max(max_cov_trace, tru, trd)

        if audit is not None:
            audit.record(km1)

        err = batch.x - batch.x_true
        err_sq[:, km1] = np.einsum('ij,ij->i', err, err)

        if record_states:
            X_rec[:, k] = batch.x
            D_rec[:, km1] = batch.d
            XT_rec[:, k] = batch.x_true

    return EnsembleResult(
        runs=R, horizon=K, err_sq=err_sq,
        max_trace_pxu=max_trace_pxu, max_cov_trace=max_cov_trace,
        max_mcg_dev=max_mcg_dev, fallback_projections=batch.fallbacks,
        x_hat=X_rec, d_hat=D_rec, x_true=XT_rec,
        audit=None if audit is None else audit.tally,
    )
