"""Closed-loop simulation of the vehicle scenario with paired filters.

`monte_carlo` runs its realizations and the requested filters as one
stacked batch through the ensemble's filter kernel: the true vehicle is
propagated under attack once per realization, and the constrained filter
and the unconstrained baseline see the identical noise realization. Both
filters schedule their matrices on their own previous speed estimate; the
plant uses the true speed. `simulate` is the batch of one realization.
Each block of the kernel's record (`ensemble._blocks`) fills its steps of
every per-step array at once; the detector statistics of the whole study
are one `detection_statistic` call and one CUSUM pass, and the windowed
error metrics are reduced at the end.
"""

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .detector import DetectorConfig, _cusum, detection_statistic, false_negative_rate
# no longer called here; the per-layer hooks of bench/tracing.py resolve
# these three names on this module
from .detector import cusum_update  # noqa: F401
from .ensemble import (_D, _P11, _P22, _PD, _TRANSIENT, _Batch, _attacks, _blocks, _now, _states,
                       _traces)
from .estimator import care_step  # noqa: F401
from .vehicle import bicycle_matrices  # noqa: F401

__all__ = [
    "FilterRun",
    "RunMetrics",
    "SimulationResult",
    "monte_carlo",
    "simulate",
]

# the metrics a run's CSV row holds, in column order
_METRIC_FIELDS = ("sum_sq_state_err", "sum_sq_attack_err", "sum_trace_px",
                  "sum_trace_pd", "f_neg", "alarm_fraction", "sustained_alarm")


@dataclass(frozen=True)
class RunMetrics:
    """Windowed error/covariance sums plus detector summaries for one filter."""

    sum_sq_state_err: float
    sum_sq_attack_err: float
    sum_trace_px: float
    sum_trace_pd: float
    f_neg: float
    alarm_fraction: float
    sustained_alarm: bool
    max_mcg_dev: float
    max_trace_pxu: float

    def as_row(self):
        return [float(getattr(self, f)) for f in _METRIC_FIELDS]


@dataclass
class FilterRun:
    """Full per-step record for one filter over one realization."""

    name: str
    x_hat: np.ndarray        # (K+1, 4) final estimates, row 0 = initial
    x_hat_raw: np.ndarray    # (K+1, 4) unconstrained posteriors
    d_hat: np.ndarray        # (K, 2) final attack estimates, row k is d_k
    d_hat_raw: np.ndarray    # (K, 2) unconstrained attack estimates
    trace_px: np.ndarray     # (K+1,)
    trace_px_raw: np.ndarray
    trace_pd: np.ndarray     # (K,)
    trace_pd_raw: np.ndarray
    stats: np.ndarray        # (K+1,) detection statistic, row 0 = 0
    cusum: np.ndarray        # (K+1,)
    alarms: np.ndarray       # (K+1,) bool
    input_active: np.ndarray  # (K,) active input-constraint count
    state_active: np.ndarray  # (K,) active state-constraint count
    metrics: RunMetrics = None


@dataclass
class SimulationResult:
    config: ScenarioConfig
    x_true: np.ndarray       # (K+1, 4)
    d_true: np.ndarray       # (K, 2)
    filters: dict            # name -> FilterRun


def _metrics(rec, x_true, d_true, config, detector_cfg, detector,
             max_mcg_dev, max_trace_pxu) -> RunMetrics:
    K = config.horizon
    x_err = rec.x_hat[1:] - x_true[1:]
    d_err = rec.d_hat - d_true
    attacked = np.any(d_true != 0.0, axis=1)
    if detector and attacked.any():
        f_neg = false_negative_rate(rec.stats[1:], detector_cfg.quantile, attacked)
    else:
        f_neg = float("nan")
    a0, a1 = config.alarm_start, min(config.alarm_end, K)
    sustained = (bool(rec.alarms[a0:a1 + 1].all())
                 if detector and a0 <= K else False)
    return RunMetrics(
        sum_sq_state_err=float(np.sum(x_err ** 2)),
        sum_sq_attack_err=float(np.sum(d_err ** 2)),
        sum_trace_px=float(np.sum(rec.trace_px[1:])),
        sum_trace_pd=float(np.sum(rec.trace_pd[config.pd_window_start:])),
        f_neg=f_neg,
        alarm_fraction=float(np.mean(rec.alarms[1:])) if detector else float("nan"),
        sustained_alarm=sustained,
        max_mcg_dev=float(max_mcg_dev),
        max_trace_pxu=float(max_trace_pxu),
    )


def _run(config: ScenarioConfig, run_indices, filters, detector):
    """All realizations x filters as one batch; a SimulationResult per run."""
    batch = _Batch(config, run_indices, filters)
    K = config.horizon
    R = len(batch.run_indices)
    N = R * len(batch.names)
    detector_cfg = DetectorConfig.from_parameters(config.alpha, df=2, phi=config.phi)

    X, X_raw = np.empty((N, K + 1, 4)), np.empty((N, K + 1, 4))
    D, D_raw = np.empty((N, K, 2)), np.empty((N, K, 2))
    VD = np.empty((N, K, 2)) if detector else None
    TX, TX_raw = np.empty((N, K + 1)), np.empty((N, K + 1))
    TD, TD_raw = np.empty((N, K)), np.empty((N, K))
    stats, cusum = np.zeros((N, K + 1)), np.zeros((N, K + 1))
    alarms = np.zeros((N, K + 1), dtype=bool)
    in_act, st_act = act_rec = np.empty((2, N, K), dtype=np.int64)
    XT = np.empty((R, K + 1, 4))
    X[:, 0] = X_raw[:, 0] = batch.x
    TX[:, 0] = TX_raw[:, 0] = _now(_traces, batch.fin[_P11] + batch.fin[_P22])
    XT[:, 0] = batch.x_true
    max_mcg = np.zeros(N)

    for k0, (fin, raw), truth, act, mcg in _blocks(batch):
        m = truth.shape[-2]
        new, old = slice(k0 + 1, k0 + m + 1), slice(k0, k0 + m)
        X[:, new], X_raw[:, new], XT[:, new] = _states(fin), _states(raw), _states(truth)
        D[:, old], D_raw[:, old] = _attacks(fin[_D]), _attacks(raw[_D])
        if detector:
            VD[:, old] = _attacks(fin[_PD])
        TX[:, new], TX_raw[:, new] = _traces(fin[_P11] + fin[_P22]), _traces(raw[_P11] + raw[_P22])
        TD[:, old], TD_raw[:, old] = _traces(fin[_PD]), _traces(raw[_PD])
        act_rec[..., old] = act.swapaxes(1, 2)
        np.maximum(max_mcg, mcg, out=max_mcg)
    max_pxu = TX_raw[:, _TRANSIENT + 1:].max(axis=1, initial=0.0)

    if detector:
        # each step's statistic stands alone, so one call covers the whole
        # study, and one CUSUM pass runs its recurrence over every step
        stats[:, 1:] = detection_statistic(D.reshape(N * K, 2), VD.reshape(N * K, 2)).reshape(N, K)
        cusum[:, 1:], alarms[:, 1:] = _cusum(np.zeros(N), stats[:, 1:], detector_cfg,
                                             lambda j, row: batch._where(j + 1, row))

    results = []
    for i in range(R):
        res = SimulationResult(config, XT[i], batch.d_true, {})
        for name in filters:
            r = batch.names.index(name) * R + i
            rec = FilterRun(
                name=name, x_hat=X[r], x_hat_raw=X_raw[r], d_hat=D[r], d_hat_raw=D_raw[r],
                trace_px=TX[r], trace_px_raw=TX_raw[r], trace_pd=TD[r], trace_pd_raw=TD_raw[r],
                stats=stats[r], cusum=cusum[r], alarms=alarms[r],
                input_active=in_act[r], state_active=st_act[r],
            )
            rec.metrics = _metrics(rec, XT[i], batch.d_true, config, detector_cfg,
                                   detector, max_mcg[r], max_pxu[r])
            res.filters[name] = rec
        results.append(res)
    return results


def simulate(config: ScenarioConfig, run_index: int = 0,
             filters=("care", "ise"), detector: bool = True) -> SimulationResult:
    """One closed-loop realization; all requested filters see identical y and u.

    `filters` selects which estimators to run ("care" is the constrained
    filter, "ise" the unconstrained baseline); `detector=False` skips the
    per-step test statistic and CUSUM bookkeeping, which matters on very
    long horizons.
    """
    return _run(config, [run_index], filters, detector)[0]


def monte_carlo(config: ScenarioConfig, runs: int = None, filters=("care", "ise")):
    """Batch of independent realizations; run i uses run_index i.

    Returns the list of SimulationResults.
    """
    n = runs if runs is not None else config.runs
    return _run(config, range(n), filters, True)
