"""Chi-square testing of attack estimates and CUSUM change detection.

The chi-square tail P(X > x) is computed internally in closed form, so the
significance level and the degrees of freedom stay free parameters instead
of being read off a hard-coded table. The closed form holds for integer
degrees of freedom, the only ones accepted, and needs only `math`: a sum of
df // 2 Poisson-like terms, plus erfc for odd df. So a tail costs O(df)
time, and a quantile, which bisects on the tail, takes about 7 ms at
df = 1,000 and 0.7 s at df = 1e5 on a 2-core x86 VM under CPython 3.11;
the detector's df is the attack dimension, 2 in the vehicle study. For
alpha <= 0.5 the quantile is within 1e-14 relative of scipy's for df up to
1,000, down to alpha = 1e-300. For alpha > 0.5 it is only as good as the
CDF 1 - tail: within 5e-10 relative out to alpha = 1 - 1e-6.
`detection_statistic` is d' P^{-1} d with tiny eigenvalues of P floored, so
that a component pinned to a constraint boundary, where a pseudoinverse
would drop it, still counts as evidence.
"""

import math
from dataclasses import dataclass, field

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


def _check_df(df):
    if df != int(df) or df < 1:
        raise ValueError("degrees of freedom must be a positive integer")


def _chi2_tail(x, df):
    """P(X > x) for X chi-square with integer df, in closed form (A&S 26.4.4-5):
    with h = x / 2 and j = (df mod 2) / 2, erfc(sqrt h) when df is odd plus
    the df // 2 terms h^(i + j) e^(-h) / Gamma(i + j + 1), i < df // 2."""
    h = 0.5 * x
    if h <= 0.0:
        return 1.0
    j, log_h = 0.5 * (df % 2), math.log(h)
    tail = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for i in range(int(df) // 2):
        tail += math.exp((i + j) * log_h - h - math.lgamma(i + j + 1.0))
    return tail


def chi2_cdf(x: float, df: int) -> float:
    """CDF of the chi-square distribution with df degrees of freedom."""
    _check_df(df)
    return 1.0 - _chi2_tail(x, df)


def chi2_quantile(df: int, alpha: float) -> float:
    """Upper-tail chi-square quantile: the q with P(X > q) = alpha.

    Brackets q by doubling, then bisects on the tail itself, not on
    1 - CDF, until the bracket is two adjacent doubles, and returns the
    upper one, whose tail is at most alpha.
    """
    _check_df(df)
    if not 0.0 < alpha < 1.0:
        raise ValueError("significance level must lie strictly between 0 and 1")
    lo, hi = 0.0, float(df) + 10.0
    while _chi2_tail(hi, df) > alpha:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _chi2_tail(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def detection_statistic(d: np.ndarray, P: np.ndarray):
    """Decision-oriented statistic: like d' P^{-1} d but with floored eigenvalues.

    A projection onto an active constraint leaves (numerically) zero variance
    along the constraint normal while the estimate itself sits exactly on the
    boundary. The pseudoinverse statistic silently discards that component,
    so a pinned estimate would count as no evidence at all. Flooring the
    eigenvalues at 1e-12 * (1 + trace P) keeps those components, and agrees
    with the exact inverse whenever P is well conditioned. A pin is not
    strong evidence of an attack, though: without one it happens with
    probability P(|d_raw| > b), on about 12% of the vehicle study's steps, and
    each such step's statistic then exceeds 1e6. So this statistic is over
    the chi-square quantile far more often than alpha without an attack.

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
    quantile: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.phi < 1.0:
            raise ValueError("forgetting rate must lie in [0, 1)")
        object.__setattr__(self, "quantile", chi2_quantile(self.df, self.alpha))

    @property
    def threshold(self) -> float:
        return self.quantile / (1.0 - self.phi)

    @classmethod
    def from_parameters(cls, alpha: float, df: int, phi: float) -> "DetectorConfig":
        return cls(alpha=alpha, df=df, phi=phi)


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
