"""The channel-form filter kernel of the vehicle scenario and `run_ensemble`.

`_Batch` runs the MVU input/state filter (Gillijns & De Moor, Automatica 43(1), 2007) on
realizations x filters at once and propagates each realization's truth. A couples x only
with v and y only with psi, the attack's acceleration column (0, T) acts on v and its
steering column (vT, vT/l_r) on (y, psi), C = I, and Q, R and P0 are diagonal: Q and R are
`VehicleParams`' q_diag and r_diag, P0 = p0_scale I. So every covariance is zero off the
channels (x, v) and (y, psi), N = G'R~G and P_d are diagonal, and a step is a fixed sequence
of elementwise operations on (channel, run) arrays: R~ = (P^- + R)^{-1} in closed form,
h = R~ g, N = g'h, P_d = 1/N, M = P_d h', d = M nu, and the update for C = I and diagonal R
(Kitanidis, Automatica 23(6), 1987): W = R~ - h M, x = y - R W nu, P = R - R W R. The boxes
are `vehicle.box_bounds`' intervals, one per coordinate, which also clamp the truth and test
its feasibility in the audit. A block's first rows are the estimates (e1, e2, d): one pass
clips them and tests each row at its own tolerance, the general projector's
`projection._FEAS_REL`, so the active counts are its; the ise columns' boxes are unbounded. The
attack's projection is then the clip, the state's a 2 x 2 box problem per channel, `_box_pairs`
(Simon, IET CTA 4(8), 2010), whose multiplier test runs only where a channel holds both
coordinates: one held on the side it passed has a nonnegative multiplier, Q_i |e_i - c_i|.
Every operation acts on one run at a time, so a run's result does not depend on its batch, bit
for bit. Noise comes from `NoiseSpec(seed, i)` in chunks of _NOISE_CHUNK steps, bit for bit
`NoiseSpec.sample`, each held in channel form. A step's checks test the whole batch first and
run the exact per-column test, naming the column, only when that fails. `_blocks` records
_BLOCK steps at a time and counts their active bounds once; every output of `harness._run` and
`run_ensemble` is assembled from them. A step costs what numpy's calls cost, and their operands
set that: on (2, 1, 2, 24) float64 a call took 0.41 us with same-shape forward-stride operands,
0.98 us with a (1, 2, 24) broadcast, 1.25 us with a [::-1] view and 0.59-0.64 us with a Python
float, and indexing a view 0.2-0.4 us. So `__init__` binds the step's views and buffers, and
partner rows, spread constants and reciprocals replace those operands in the same order of
operations, for the same bits.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ScenarioConfig
from .estimator import _IDENT_LIMIT, _require_identifiable
from .model import NoiseSpec, _draw_noise
from .projection import _FEAS_REL
from .vehicle import VehicleParams, attack_signal, box_bounds, slip_angle, vehicle_model

__all__ = ["EnsembleResult", "run_ensemble"]

_FILTERS = ("care", "ise")
# rows of a kernel block (row, filter, channel, run), channels (x, v) and (y, psi): the
# estimates the boxes bound, first coordinates (x, y), second (v, psi) and the attack on each
# channel (acceleration, steering); then the coordinates' variances, covariance, attack variance
_E1, _E2, _D, _P11, _P22, _P12, _PD = range(7)
_ROWS = 7
# state indices of the channels' first and second coordinates
_CH = [[0, 1], [3, 2]]
_CH_POS = np.argsort(np.ravel(_CH))  # each state's place in (coordinate, channel)
# the faces a 2 x 2 box tries after its violated bounds': +1 holds a
# coordinate at its upper bound, -1 at its lower one
_FACES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
          (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
# steps per block of `_blocks`, whose buffers hold 22 + 256 bytes per run-step and filter.
# On 2 x86-64 cores, recording and assembly added 23 us per run-step in blocks of 1 and 5.4
# in 32 or 64 (monte_carlo 4 x 1,000), 5.3 and 0.5-1.0 (audited run_ensemble 50 x 1,000)
_BLOCK = 32
_TRANSIENT = 100  # steps the trace maxima skip: the initial covariance's transient
# steps of noise per chunk. A chunk's draw, channel-form noise and attack input hold 160
# bytes per run and step, 64 more while drawn. A 24-run batch's draw took 6.1, 4.3 and 3.9 us
# per step in chunks of 64, 128 and 256 (best of 3), and 200 runs over 10,000 steps
# peaked at 55.6, 58.3 and 63.0 MB RSS
_NOISE_CHUNK = 128


@dataclass(frozen=True)
class EnsembleResult:
    """Per-step error energies and running covariance extrema for a batch.

    err_sq[i, k-1] holds ||x_hat_k - x_k||^2 for run i using the final (projected) estimate.
    The trace maxima are taken over steps k > 100 (_TRANSIENT), where the inflated initial
    covariance has died out; every tracked covariance is positive semidefinite, so its
    largest eigenvalue is bounded by the trace.
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


def _columns(S):
    """S (..., c, steps, runs) as (columns, steps, c), column f * R + i for filter f, run i."""
    return np.moveaxis(S, -3, -1).swapaxes(-2, -3).reshape(-1, S.shape[-2], S.shape[-3])


def _states(E):
    """First and second coordinates E (2, ..., 2, steps, runs) of the channels
    in state order (x, y, psi, v), as (columns, steps, 4)."""
    return _columns(np.concatenate((E[0], E[1][..., ::-1, :, :]), axis=-3))


def _attacks(V):
    """V (..., 2, steps, runs) acting on the channels, (acceleration, steering),
    in the attack's order (steering, acceleration), as (columns, steps, 2)."""
    return _columns(V[..., ::-1, :, :])


def _traces(V):
    """The sum of V (..., 2, steps, runs) over its channels, as (columns, steps)."""
    return (V[..., 0, :, :] + V[..., 1, :, :]).swapaxes(-1, -2).reshape(-1, V.shape[-2])


def _now(rows, S):
    """rows(S) of a step, S (..., runs) without the step axis: one row per column."""
    return rows(S[..., None, :])[:, 0]


def _schedule(v, T, l_r, vT, g1, g2):
    """Write the speed-dependent entries, on the speed v and T and l_r at its shape, of the
    schedule (s, g1, g2) = ((T, vT), (0, vT), (T, vT / l_r)) of channels (x, v), (y, psi):
    the views vT of s, g1 of each row holding g1 and g2 of g2 on channel (y, psi)."""
    np.multiply(v, T, out=vT)
    g1[...] = vT
    np.divide(vT, l_r, out=g2)


def _face(E, Q, P12, H, Hr, F, C, lo, hi, tol, S=None):
    """The KKT point Z of pairs E = (e1, e2) on the face holding coordinate i at C_i where F_i,
    free elsewhere, for held offsets H = E - C (0 where free), their partners Hr, partner
    variances Q = (P22, P11) and covariance P12 in both rows; and per coordinate the KKT test,
    a pair's if both pass: bounds met within tol, multipliers S_i [P^{-1} H]_i det P >= 0 for
    sides S, 1 upper and -1 lower. S=None holds each coordinate on the side it passed, sign(H):
    a channel holding one then has the multiplier Q_i |H_i| >= 0, so only both are tested."""
    Z = E - P12 / Q * Hr
    np.copyto(Z, C, where=F)
    ok = np.maximum(Z - hi, lo - Z) <= tol
    both = F[0] & F[1] if S is None else np.True_
    if np.count_nonzero(both):
        ok &= ((np.sign(H) if S is None else S) * (Q * H - P12 * Hr) >= 0.0) | ~both
    return Z, ok


def _require_information(info, where, k):
    """`_require_identifiable` on the attack information info (filter, channel, run) of step
    k. The batch passes if its least entry is positive and its largest within _IDENT_LIMIT of it,
    which implies each column passes; if not, or NaN, each column, where(k, column), is tested."""
    least = info.min()
    if not (least > 0.0 and info.max() <= _IDENT_LIMIT * least):
        _require_identifiable(info.min(axis=1).reshape(-1), info.max(axis=1).reshape(-1),
                              partial(where, k))


def _box_pairs(E, P, P12, C, D, F, lo, hi, tol, where):
    """Project pairs E = (e1, e2) onto boxes lo <= z <= hi in the metrics (P11, P12; P12,
    P22)^{-1}, P = (P11, P22), in place, given their clip C, D = E - C and the bounds F passed
    by more than tol. E, P, C, D, F, lo and hi are (2, ..., 2, n), P12 (..., 2, n) and tol
    broadcasts to (2, ..., 2, n): the two channels of the entries (..., n), +-inf where a
    coordinate has no bound. A pair stays on the face of its violated bounds if that passes
    `_face`'s KKT test; otherwise the first face of _FACES that passes is the optimum, unique
    for a positive definite metric, and F is rewritten to its bounds. The covariance becomes
    (I - G A_O) P (I - G A_O)': a bounded coordinate's variance and covariance drop to 0, a
    free one's loses P12^2 over the other's. Returns the number of entries with a channel
    that left its violated bounds' face; RuntimeError names where(..., i) if no face passes."""
    if not np.count_nonzero(F):
        return 0
    Q, P12s, H = P[::-1].copy(), np.empty_like(P), D * F  # Q, P12 and H's partners at E's shape
    P12s[...] = P12
    Z, ok = _face(E, Q, P12s, H, H[::-1].copy(), F, C, lo, hi, tol)
    left = 0
    if np.count_nonzero(ok) != ok.size:
        off = ~(ok[0] & ok[1])
        tol = np.broadcast_to(tol, E.shape)
        with np.errstate(invalid="ignore"):
            for at in zip(*off.nonzero()):
                a = (slice(None),) + at
                pair, box = (E[a], Q[a], P12s[a]), (lo[a], hi[a])
                for side in map(np.array, _FACES):
                    target = np.where(side > 0, box[1], np.where(side < 0, box[0], pair[0]))
                    held, H = side != 0.0, pair[0] - target
                    z, good = _face(*pair, H, H[::-1], held, target, *box, tol[a], side)
                    if good.all():
                        Z[a], F[a] = z, held
                        break
                else:
                    raise RuntimeError("no face of the box passes the KKT test at "
                                       f"{where(*at[:-2], at[-1])}")
        left = np.count_nonzero(off[..., 0, :] | off[..., 1, :])
    E[...] = Z
    np.subtract(P, P12s * P12s / Q, out=P, where=F[::-1].copy())
    np.putmask(P, F, 0.0)
    np.putmask(P12, F[0] | F[1], 0.0)
    return left


class _Batch:
    """Stepping state of realizations x filters of the vehicle scenario.

    Column f * R + i is filter `names[f]` on realization `run_indices[i]`, [:, f, :, i] of
    the blocks fin (final values, projected for care) and raw (unprojected), the two halves
    of fin_raw; truth (2, 2, R) holds the true coordinates. Each filter schedules its
    matrices on its own speed estimate, the plant on the true speed. After `step(k)` the
    properties x and x_true read step k's final and true states one row per column, each a
    new array assembled on request; mask holds the active bounds of the rows (e1, e2, d) and
    dev |M C G - I| (filter, channel, run), buffers that each step rewrites.
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
        R, F, K = len(self.run_indices), len(self.names), config.horizon
        self.params = params = VehicleParams(l_f=config.l_f, l_r=config.l_r, T_s=config.t_s)
        self.horizon = K
        self.noise_model = vehicle_model(lambda k: 0.0, params)
        self.generators = [NoiseSpec(config.seed, run).generator() for run in self.run_indices]
        # one chunk's standard normals, m + n_y = 8 per run and step, and its w and v
        self.z = np.empty((R, min(_NOISE_CHUNK, K), 8, 1))
        self.noise = np.empty((2, min(_NOISE_CHUNK, K), 2, 2, R))
        self.d_chunk = np.empty((min(_NOISE_CHUNK, K), 2, 2, R))  # the chunk's d per G entry
        # the attack, attack_input's rows read from Python floats in one call
        attack = ((slip_angle(s, params), a) for s, a in map(attack_signal, range(K)))
        self.d_true = np.fromiter(attack, (float, 2), K) if config.attack == "vehicle" else \
            np.zeros((K, 2))
        self._draw_chunk(0)

        u_raw = (config.control_delta, config.control_accel)
        # the attack and state boxes (d_lo, d_hi), (x_lo, x_hi), read by the truth's clamp,
        # the projection and the audit
        self.bounds = (d_lo, d_hi), (x_lo, x_hi) = box_bounds(u_raw, params)
        q, r = np.array(params.q_diag, dtype=float), np.array(params.r_diag, dtype=float)
        # each box's largest finite |bound|
        d_maxb, x_maxb = (np.abs(b).max(where=np.isfinite(b), initial=0.0)
                          for b in map(np.hstack, self.bounds))

        # constants spread to whole arrays, so that every per-step operand has one shape and
        # forward stride: on (2, 1, 2, 24) float64 a call cost 0.41 us, 0.98 us with a
        # (1, 2, 24) broadcast operand, 1.25 us with a [::-1] view and 0.59-0.64 us with a
        # Python float (numpy 2.4, 2 x86-64 cores)
        def spread(values, shape):
            a = np.asarray(values, dtype=float)  # per channel, or per coordinate and channel
            a = a.reshape(a.shape[:1] + (1,) * (len(shape) - 3) + a.shape[1:]) if a.ndim == 2 else a
            return np.broadcast_to(a[..., None], shape).copy()

        both, plant = (2, F, 2, R), (2, 2, R)
        u = [u_raw[1], slip_angle(u_raw[0], params)]
        self.u, self.u_plant = spread(u, both), spread(u, plant)
        self.qr, self.r = spread((q + r)[_CH], both), spread(r[_CH], both)
        self.r_sq, self.r12, self.one = self.r ** 2, self.r[0] * self.r[1], np.ones((F, 2, R))
        # every column's state and attack box, stacked as the rows (e1, e2, d) of fin; the
        # ise columns' boxes are unbounded. Per row of a column, the constants of its
        # tolerance _FEAS_REL (1 + |row| + the largest bound): 1, that bound and _FEAS_REL
        care = np.array([name == "care" for name in self.names])[:, None, None]
        self.box = tuple(np.where(care, spread(np.vstack((x[_CH], d[::-1])), (3, F, 2, R)), inf)
                         for x, d, inf in ((x_lo, d_lo, -np.inf), (x_hi, d_hi, np.inf)))
        self.tol_consts = tuple(np.broadcast_to(np.reshape(c, (3, 1, 1)), (3, F, R)).copy()
                                for c in ([1.0] * 3, [x_maxb, x_maxb, d_maxb], [_FEAS_REL] * 3))
        self.truth_box = tuple(spread(b[_CH], plant) for b in (x_lo, x_hi))

        self.n_care = R if "care" in self.names else 0
        self.fallbacks, self.mask = 0, np.zeros((3, F, 2, R), dtype=bool)
        self.y, self.dev = np.empty(both), np.zeros((F, 2, R))
        self.fin, self.raw = self.fin_raw = np.zeros((2, _ROWS, F, 2, R))
        x0 = np.asarray(config.x0, dtype=float)
        self.fin[_E1:_E2 + 1] = spread(x0[_CH], both)
        self.fin[_P11:_P22 + 1] = config.p0_scale
        self.truth = spread(x0[_CH], plant)
        # the row views a step reads and writes, (E, P, P12, d, Pd) of fin and raw
        self.fin_rows, self.raw_rows = ((b[_E1:_E2 + 1], b[_P11:_P22 + 1], b[_P12], b[_D], b[_PD])
                                        for b in (self.fin, self.raw))
        # the views a step reads and writes, bound once, as indexing costs 0.2-0.4 us a view:
        # the schedules (s, g1, g2) of the plant and of the filters, whose g1 is repeated in a
        # fourth row so that rows 2 and 3 are G's partners (g2, g1), each with `_schedule`'s
        # arguments; then the rows of the truth and of the filters
        sched, plant_sched = np.zeros((4, F, 2, R)), np.zeros((3, 2, R))
        sched[::2, :, 0], plant_sched[::2, 0] = params.T_s, params.T_s
        truth, (E, P, P12) = self.truth, self.fin_rows[:3]
        self.schedules = [(v, np.full(v.shape, params.T_s), np.full(v.shape, params.l_r),
                           S[0, ..., 1, :], S[1::2, ..., 1, :], S[2, ..., 1, :])
                          for v, S in ((truth[1, 0], plant_sched), (E[1, :, 0], sched))]
        self.plant_rows = truth[0], truth[1], plant_sched[0], plant_sched[1:], truth[:, None]
        self.filter_rows = E, E[1], P, P[1], P12, sched[0], sched[1:3], sched[2:]
        # 2-row buffers with their rows: nu, its partners, S, R~'s diagonal, h, M and a product
        self.work = [(w, w[0], w[1]) for w in np.empty((7,) + both)]
        # the projection's rows (e1, e2, d), their squares and norms with the views that sum
        # them over channels and spread them back, its tolerances, clip, offsets and their rows
        X2, n, (tol, C, D), (lo, hi), mask = np.empty((3, F, 2, R)), np.empty((3, F, R)), \
            np.empty((3, 3, F, 2, R)), self.box, self.mask
        self.norms = (self.fin[:3], X2, X2[:, :, 0], X2[:, :, 1], X2[1, :, 1], X2[1, :, 0], n,
                      n[0], n[1], n[:, :, None])
        self.clip = tol, C, D, C[2], mask[2], (E, P, P12, C[:2], D[:2], mask[:2], lo[:2],
                                               hi[:2], tol[:2])

    x = property(lambda self: _now(_states, self.fin))
    x_true = property(lambda self: _now(_states, self.truth))

    def _draw_chunk(self, k0):
        """Draw the noise of steps k0 + 1 ... k0 + c, c = min(_NOISE_CHUNK, K - k0), as
        w and v (c, coordinate, channel, run): w[j] enters x_{k0 + j + 1}, v[j] y_{k0 + j + 1}."""
        c = min(self.z.shape[1], self.horizon - k0)
        self.noise_k0 = k0
        self.w, self.v = noise = self.noise[:, :c]
        for X, out in zip(_draw_noise(self.generators, self.noise_model, k0, self.z[:, :c]), noise):
            out.reshape(c, 4, -1)[:, _CH_POS] = np.moveaxis(X, 0, -1)
        self.d_chunk[:c] = self.d_true[k0:k0 + c, None, ::-1, None]

    def _where(self, k, row):
        R = len(self.run_indices)
        return f"k={k}, run {self.run_indices[row % R]}, filter {self.names[row // R]}"

    def step(self, k):
        km1 = k - 1
        j = km1 - self.noise_k0
        if j == len(self.w):
            self._draw_chunk(km1)
            j = 0

        # the truth, A x + B u + B d + w clipped, in the matrices' order of sums: A couples
        # each channel's first coordinate to its second by s, and (g1, g2) is its input column
        truth, (t0, t1, s, G, truth_f) = self.truth, self.plant_rows
        _schedule(*self.schedules[0])
        t0 += s * t1
        truth += G * self.u_plant
        truth += G * self.d_chunk[j]
        truth += self.w[j]
        np.minimum(np.maximum(truth, self.truth_box[0], out=truth), self.truth_box[1], out=truth)
        y = np.add(truth_f, self.v[j][:, None], out=self.y)  # one y per filter

        # the filters on their own speeds: the innovation and S = A P A' + Q + R
        E, E1, P, P1, P12, s, G, G_rev = self.filter_rows
        (nu, nu0, nu1), (nr, nr0, nr1), (S, S0, S1), (Rt, Rt0, Rt1), (h, h0, _), (M, _, M1), \
            (prod, prod0, prod1) = self.work  # nr is nu's partners (nu2, nu1)
        _schedule(*self.schedules[1])
        np.add(E, G * self.u, out=nu)
        nu0 += s * E1
        np.subtract(y, nu, out=nu)
        S12 = P12 + s * P1
        np.add(P, self.qr, out=S)
        S0 += s * (P12 + S12)
        # R~ = (Rt11, -A12; -A12, Rt22), h = R~ g, N = g'h, P_d, M and d
        inv_det = np.reciprocal(S0 * S1 - S12 * S12)
        np.multiply(S1, inv_det, out=Rt0)
        np.multiply(S0, inv_det, out=Rt1)
        A12 = S12 * inv_det
        np.subtract(Rt * G, A12 * G_rev, out=h)
        np.multiply(G, h, out=prod)
        info = prod0 + prod1
        _require_information(info, self._where, k)
        x_raw, P_raw, P12_raw, d_raw, Pd_raw = self.raw_rows
        np.multiply(np.reciprocal(info, out=Pd_raw), h, out=M)
        np.multiply(M, nu, out=prod)
        np.add(prod0, prod1, out=d_raw)
        np.multiply(M, G, out=prod)
        dev = np.add(prod0, prod1, out=self.dev)
        np.abs(np.subtract(dev, self.one, out=dev), out=dev)
        # W = R~ - h M = (W11, -B12; -B12, W22), x = y - R W nu, P = R - R W R
        W, B12 = Rt - h * M, A12 + h0 * M1
        nr0[...], nr1[...] = nu1, nu0
        np.subtract(y, self.r * (W * nu - B12 * nr), out=x_raw)
        np.subtract(self.r, self.r_sq * W, out=P_raw)
        np.multiply(self.r12, B12, out=P12_raw)
        self.fin[...] = self.raw
        if self.n_care:
            self._project(k)

    def _project(self, k):
        """Project every column of fin onto its state and attack boxes in one pass over the
        estimate rows (e1, e2, d): one clip and one test at each row's tolerance into mask,
        then the clip of d and `_box_pairs` of (e1, e2). The ise columns' boxes are
        unbounded, so their clip is the identity and no bound is violated."""
        finite = np.isfinite(self.fin)
        if np.count_nonzero(finite) != finite.size:
            i = int((~finite.all(axis=(0, 2))).argmax())  # the column f * R + run
            field = "covariance" if finite[:3].all(axis=(0, 2)).flat[i] else "estimate"
            raise ValueError(f"non-finite {field} at {self._where(k, i)}")
        (_, _, _, d, Pd), (lo, hi), F = self.fin_rows, self.box, self.mask
        X, X2, X2c0, X2c1, X2psi, X2v, n, n0, n1, n_spread = self.norms
        tol, C, D, C_d, F_d, pairs = self.clip
        # each row's squared norm over its channels, the state's in state order x, y, psi, v,
        # then the tolerances, spread to both channels
        np.multiply(X, X, out=X2)
        np.add(X2c0, X2c1, out=n)
        n0 += X2psi
        n0 += X2v
        n1[...] = n0
        one, maxb, rel = self.tol_consts
        np.add(one, np.sqrt(n, out=n), out=n)
        n += maxb
        np.multiply(rel, n, out=n)
        tol[...] = n_spread
        np.minimum(np.maximum(X, lo, out=C), hi, out=C)
        np.subtract(X, C, out=D)
        np.greater(np.abs(D), tol, out=F)
        np.copyto(d, C_d, where=F_d)
        np.putmask(Pd, F_d, 0.0)
        R = len(self.run_indices)
        self.fallbacks += _box_pairs(*pairs, lambda f, i: self._where(k, f * R + i))


def _blocks(batch):
    """Step `batch` through its horizon, copying each step's fin_raw, truth, mask and dev into
    buffers of _BLOCK steps. Yields each full block, and the horizon's last, as (k0, fin_raw,
    truth, act, mcg) of steps k0 + 1 ... k0 + m: fin_raw and truth (..., m, run), views that
    the next overwrites; act (2, m, column), the attack's and the state's active bounds; and
    mcg, each column's largest |M C G - I| in the block."""
    K, R, N = batch.horizon, len(batch.run_indices), batch.dev[:, 0].size
    B = min(_BLOCK, K)
    fin_raw, truth = np.empty(batch.fin_raw.shape[:-1] + (B, R)), np.empty((2, 2, B, R))
    mask, dev = np.empty((B,) + batch.mask.shape, dtype=bool), np.empty((B,) + batch.dev.shape)
    m = 0
    for k in range(1, K + 1):
        batch.step(k)
        fin_raw[..., m, :] = batch.fin_raw
        truth[..., m, :] = batch.truth
        mask[m] = batch.mask
        dev[m] = batch.dev
        m += 1
        if m == B or k == K:
            mcg = dev[:m].max(axis=(0, 2)).reshape(N)
            act = np.count_nonzero(mask[:m, 2], axis=2), np.count_nonzero(mask[:m, :2], axis=(1, 3))
            yield k - m, fin_raw[..., :m, :], truth[..., :m, :], np.reshape(act, (2, m, N)), mcg
            m = 0


def _audit_update(audit, which, audited, w_con, w_unc, e_con, e_unc, tr_pre, tr_post):
    """Tally norm and trace comparisons for the entries where `audited` is set, each one run
    at one step where a projection moved the estimate. Norms use the projection's own metric
    (the inverse unconstrained covariance; w_con and w_unc are the errors' norms in it) next
    to the Euclidean norm of e_con and e_unc over their first axis, which the oblique
    projection does not contract in general; both counts are kept for the audit's report.
    """
    m_w = w_con - w_unc
    m_e = np.linalg.norm(e_con, axis=0) - np.linalg.norm(e_unc, axis=0)
    for key, hit in (("active_{}", audited), ("viol_{}_weighted", m_w > 1e-10),
                     ("viol_{}_euclid", m_e > 1e-10), ("viol_trace_{}", tr_post > tr_pre),
                     ("viol_strict_{}", tr_post >= tr_pre)):
        audit[key.format(which)] += int(np.count_nonzero(hit & audited))
    for key, margin in ((f"worst_{which}_weighted", m_w), (f"worst_{which}_euclid", m_e)):
        audit[key] = max(audit[key], float(margin.max(where=audited, initial=-np.inf)))


def _audit_block(audit, batch, k0, fin, raw, truth, act):
    """Tally the projection audit of steps k0 + 1 ... k0 + m in one vectorized pass of two
    `_audit_update` calls, from the care blocks fin and raw (rows, channel, m, run), the
    truth (2, 2, m, run) and the active counts act (2, m, run), over the whole block. Every
    tally is a count, a sum or a maximum of per-entry arithmetic, so blocks do not matter."""
    m, R = truth.shape[-2:]
    # the attack's truth is shared by every run, so its feasibility is per step
    d_feas, x_feas = (((lo <= z) & (z <= hi)).all(axis=1) for z, (lo, hi) in zip(
        (batch.d_true[k0:k0 + m], _now(_states, truth.reshape(2, 2, -1))), batch.bounds))
    audit["truth_infeasible_steps"] += R * int((~d_feas).sum()) + int((~x_feas).sum())
    audited = (act[0] > 0) & d_feas[:, None]
    if np.count_nonzero(audited):
        d, Pd_raw = batch.d_true[k0:k0 + m, ::-1].T[..., None], raw[_PD]
        e = fin[_D] - d, raw[_D] - d
        _audit_update(audit, "d", audited, *(np.sqrt((x * x / Pd_raw).sum(axis=0)) for x in e),
                      *e, Pd_raw.sum(axis=0), fin[_PD].sum(axis=0))
    audited = (act[1] > 0) & x_feas.reshape(m, R)
    if np.count_nonzero(audited):
        P11, P22, P12 = raw[_P11:_P12 + 1]
        e = [blk[:2] - truth for blk in (fin, raw)]
        # e' P_raw^{-1} e channel by channel, each 2 x 2 block in closed form
        w = [np.sqrt(((P22 * x[0] ** 2 - 2.0 * P12 * x[0] * x[1] + P11 * x[1] ** 2)
                      / (P11 * P22 - P12 * P12)).sum(axis=0)) for x in e]
        _audit_update(audit, "x", audited, *w, *(x.reshape((4, m, R)) for x in e),
                      (P11 + P22).sum(axis=0), (fin[_P11] + fin[_P22]).sum(axis=0))


def run_ensemble(config: ScenarioConfig, runs: int = None, constrained: bool = True,
                 record_states: bool = False,
                 projection_audit: bool = False) -> EnsembleResult:
    """Run `runs` independent vehicle realizations as one stacked batch.

    constrained=False skips both projections (the unconstrained baseline). record_states
    additionally returns the full estimate, attack-estimate and truth trajectories, which
    costs memory on long horizons and is meant for cross-checks against the sequential
    harness.

    projection_audit compares, at every step where a projection moved an estimate and the
    true value sits inside its feasible set, the projected error against the unconstrained
    error: norms in the projection metric and in the Euclidean metric, plus the covariance
    traces before and after. The tallies land in the result's audit dict. It needs
    constrained=True, since the unconstrained baseline projects nothing; with
    constrained=False it raises ValueError.
    """
    if projection_audit and not constrained:
        raise ValueError("projection_audit=True needs constrained=True: "
                         "the unconstrained baseline makes no projection to audit")
    R = config.runs if runs is None else int(runs)
    K = config.horizon
    batch = _Batch(config, range(R), ("care",) if constrained else ("ise",))

    err_sq = np.empty((R, K))
    max_trace_pxu = max_cov_trace = max_mcg_dev = 0.0
    audit = None
    if projection_audit:
        audit = {"truth_infeasible_steps": 0}
        for which in ("x", "d"):
            audit.update({
                f"active_{which}": 0, f"viol_{which}_weighted": 0, f"viol_{which}_euclid": 0,
                f"worst_{which}_weighted": -np.inf, f"worst_{which}_euclid": -np.inf,
                f"viol_trace_{which}": 0, f"viol_strict_{which}": 0})
    if record_states:
        X_rec, D_rec, XT_rec = np.empty((R, K + 1, 4)), np.empty((R, K, 2)), np.empty((R, K + 1, 4))
        X_rec[:, 0], XT_rec[:, 0] = batch.x, batch.x_true
    else:
        X_rec = D_rec = XT_rec = None

    for k0, (fin, raw), truth, act, mcg in _blocks(batch):
        m = truth.shape[-2]
        max_mcg_dev = max(max_mcg_dev, float(mcg.max()))
        # trace extrema come from the unconstrained pair; projection can
        # only shrink a trace, so these also bound the constrained ones
        late = max(_TRANSIENT - k0, 0)
        if late < m:
            tru = float(_traces(raw[_P11] + raw[_P22])[:, late:].max())
            max_trace_pxu = max(max_trace_pxu, tru)
            max_cov_trace = max(max_cov_trace, tru, float(_traces(raw[_PD])[:, late:].max()))
        if audit is not None:
            _audit_block(audit, batch, k0, fin[:, 0], raw[:, 0], truth, act)
        (x2, y2), (v2, psi2) = np.square(fin[:2, 0] - truth)
        err_sq[:, k0:k0 + m] = (x2 + y2 + psi2 + v2).T
        if record_states:
            X_rec[:, k0 + 1:k0 + m + 1], XT_rec[:, k0 + 1:k0 + m + 1] = _states(fin), _states(truth)
            D_rec[:, k0:k0 + m] = _attacks(fin[_D])

    return EnsembleResult(runs=R, horizon=K, err_sq=err_sq, max_trace_pxu=max_trace_pxu,
                          max_cov_trace=max_cov_trace, max_mcg_dev=max_mcg_dev,
                          fallback_projections=batch.fallbacks, x_hat=X_rec, d_hat=D_rec,
                          x_true=XT_rec, audit=audit)
