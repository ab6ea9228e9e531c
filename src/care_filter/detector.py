"""Chi-square testing of attack estimates and CUSUM change detection.

The chi-square quantile is computed internally by inverting the regularized
incomplete gamma function, so the significance level and the degrees of
freedom stay free parameters instead of being read off a hard-coded table.
`detection_statistic` is d' P^{-1} d with tiny eigenvalues of P floored, so
that a component pinned to a constraint boundary, where a pseudoinverse
would drop it, still counts as evidence.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectorConfig",
    "DetectorState",
    "chi2_cdf",
    "chi2_quantile",
    "cusum_update",
    "detection_statistic",
    "false_negative_rate",
]

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 600
_FPMIN = 1e-300


def _gamma_p_series(a, x):
    """Lower regularized gamma P(a, x) by power series, for x < a + 1."""
    term = 1.0 / a
    total = term
    n = 0
    while n < _GAMMA_MAX_ITER:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a, x):
    """Upper regularized gamma Q(a, x) by continued fraction (Lentz), x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x)."""
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def chi2_cdf(x: float, df: int) -> float:
    """CDF of the chi-square distribution with df degrees of freedom."""
    _check_df(df)
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(0.5 * df, 0.5 * x)


def _chi2_pdf(x, df):
    if x <= 0.0:
        return 0.0
    a = 0.5 * df
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - math.lgamma(a) - a * math.log(2.0))


def _check_df(df):
    if df != int(df) or df < 1:
        raise ValueError("degrees of freedom must be a positive integer")


def chi2_quantile(df: int, alpha: float) -> float:
    """Upper-tail chi-square quantile: the q with P(X > q) = alpha.

    Inverts the regularized incomplete gamma function with a bracketed
    Newton iteration (bisection fallback), absolute tolerance 1e-10.
    """
    _check_df(df)
    if not 0.0 < alpha < 1.0:
        raise ValueError("significance level must lie strictly between 0 and 1")
    target = 1.0 - alpha

    lo = 0.0
    hi = float(df) + 10.0
    guard = 0
    while chi2_cdf(hi, df) < target:
        hi *= 2.0
        guard += 1
        if guard > 600:
            raise ArithmeticError("failed to bracket the chi-square quantile")

    q = 0.5 * (lo + hi)
    for _ in range(200):
        f = chi2_cdf(q, df) - target
        if f > 0.0:
            hi = q
        else:
            lo = q
        if hi - lo < 1e-10:
            break
        slope = _chi2_pdf(q, df)
        if slope > 0.0:
            step = q - f / slope
        else:
            step = lo - 1.0  # force bisection
        if lo < step < hi:
            q = step
        else:
            q = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def detection_statistic(d: np.ndarray, P: np.ndarray):
    """Decision-oriented statistic: like d' P^{-1} d but with floored eigenvalues.

    A projection onto an active constraint leaves (numerically) zero variance
    along the constraint normal while the estimate itself sits exactly on the
    boundary. The pseudoinverse statistic silently discards that component,
    which turns the strongest possible evidence (an estimate pinned at the
    physical limit) into no evidence at all. Flooring the eigenvalues at
    1e-12 * (1 + trace P) keeps those components, and agrees with the exact
    inverse whenever P is well conditioned.

    d of shape (B, n) with P of shape (B, n, n) gives the B statistics of a
    batch as an array; a single vector d with its (n, n) covariance is the
    batch of one and gives a float. P of d's own shape holds diagonal
    covariances by their variances, which are the eigenvalues, with the
    components d itself; for n = 2 that equals the full form bit for bit.
    """
    d = np.asarray(d, dtype=float)
    P = np.asarray(P, dtype=float)
    single = d.ndim < 2
    if single:
        d = d.reshape(1, -1)
        P = P[None]
    if P.shape == d.shape:
        lam, comp, trace = P, d, P.sum(axis=-1)
    elif P.shape == d.shape + d.shape[-1:]:
        lam, vecs = np.linalg.eigh(0.5 * (P + P.swapaxes(-1, -2)))
        comp, trace = (d[:, None, :] @ vecs)[:, 0], np.trace(P, axis1=-2, axis2=-1)
    else:
        raise ValueError("covariance shape does not match the estimate")
    lam = np.maximum(lam, 1e-12 * (1.0 + np.maximum(trace, 0.0))[:, None])
    stat = np.where(d.any(axis=-1), np.sum(comp**2 / lam, axis=-1), 0.0)
    return float(stat[0]) if single else stat


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    """Significance level, degrees of freedom, forgetting rate, and the
    derived chi-square quantile. The CUSUM threshold quantile / (1 - phi)
    is derived from them. A forgetting rate of 0 is the memoryless
    chi-square test, whose threshold is the quantile."""

    alpha: float
    df: int
    phi: float
    quantile: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("significance level must lie strictly between 0 and 1")
        _check_df(self.df)
        if not 0.0 <= self.phi < 1.0:
            raise ValueError("forgetting rate must lie in [0, 1)")
        if self.quantile <= 0.0:
            raise ValueError("quantile must be positive")

    @property
    def threshold(self) -> float:
        return self.quantile / (1.0 - self.phi)

    @classmethod
    def from_parameters(cls, alpha: float, df: int, phi: float) -> "DetectorConfig":
        q = chi2_quantile(df, alpha)
        return cls(alpha=alpha, df=df, phi=phi, quantile=q)


@dataclass(frozen=True, slots=True)
class DetectorState:
    """CUSUM accumulator S and the number of updates applied so far.

    S is a float, or an array holding one accumulator per run of a batch.
    """

    S: float = 0.0
    step: int = 0

    def __post_init__(self):
        if np.any(~np.greater_equal(self.S, 0.0)):  # NaN is not nonnegative
            raise ValueError("CUSUM accumulator must be nonnegative")


def _cusum(S, stats, config, where):
    """S' = phi * S + stat from the accumulators S over the steps of a block,
    the last axis of stats. A negative statistic raises ValueError naming
    where(j, i), the block's earliest such step j and its first run i (no i
    in a 1-D block), and so does a NaN, which would hold S at NaN, alarm
    off, for good. Returns the accumulators and the alarms of every step."""
    if (neg := ~np.greater_equal(stats, 0.0)).any():
        j, *i = np.argwhere(neg.T)[0].tolist()
        raise ValueError(f"test statistic must be nonnegative at {where(j, *i)}")
    acc = np.empty(np.broadcast(S, stats[..., 0]).shape + stats.shape[-1:])
    for j, stat in enumerate(stats.T):
        S = acc[..., j] = config.phi * S + stat
    return acc, acc > config.threshold


def cusum_update(state: DetectorState, stat, config: DetectorConfig):
    """One CUSUM step: S' = phi * S + stat, alarm when S' exceeds the threshold.

    stat may be an array of per-run statistics over a batch accumulator;
    the alarm then is an array too. This is `_cusum` on a block of one step.
    """
    k = state.step + 1
    S, alarm = _cusum(state.S, np.asarray(stat, dtype=float)[..., None], config,
                      lambda j, i=None: f"k={k}" if i is None else f"k={k}, run {i}")
    if S.ndim > 1:
        return DetectorState(S=S[:, 0], step=k), alarm[:, 0]
    return DetectorState(S=S.item(), step=k), bool(alarm[0])


def false_negative_rate(stats, quantile: float, truth) -> float:
    """Fraction of attacked steps whose per-step statistic stays at or below
    the quantile. Attacked means the true attack vector is nonzero. Uses
    per-step chi-square decisions, not the CUSUM accumulator."""
    stats = np.asarray(stats, dtype=float).ravel()
    truth_arr = np.atleast_2d(np.asarray(truth, dtype=float))
    if truth_arr.shape[0] == 1 and stats.size > 1:
        truth_arr = truth_arr.T
    if truth_arr.shape[0] != stats.size:
        raise ValueError("statistics and truth sequences must have equal length")
    attacked = np.any(truth_arr != 0.0, axis=1)
    n_attacked = int(attacked.sum())
    if n_attacked == 0:
        raise ValueError("false negative rate undefined: no attacked steps in truth")
    misses = int(np.sum((stats <= quantile) & attacked))
    return misses / n_attacked
