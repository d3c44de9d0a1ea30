"""Trigger coincidence processes over threshold ladders, and their joint test.

Counting trigger coincidences at a rising ladder of thresholds yields a
non-increasing count vector, the trigger coincidence process.  Under the
null the process has a Markov chain structure: the count at the lowest
threshold is binomial over the events, and each higher count is a binomial
thinning of the previous one, because a window exceeding the higher
threshold also exceeds the lower.  The negative log-likelihood of the whole
process is the test statistic; its null distribution is estimated by
re-placing the events uniformly at random.  Only the rung of each step
(see ``rung_index``) enters the counts, so the re-placed process is the
hypergeometric analogue of the binomial chain: the events per rung are
multivariate hypergeometric, and one NumPy call draws every replicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nulls import GUMBEL_SHAPE_TOL, GevFitError, GevParams, binom_cdf, binom_logpmf, gev_sf
from .series import EventSeries, TimeSeries, frozen_copy

__all__ = [
    "ThresholdLadder",
    "empirical_quantile",
    "build_ladder_from_quantiles",
    "success_probabilities",
    "steps_at_least",
    "count_at_rungs",
    "compute_tcp",
    "tcp_nll",
    "null_nll_replicates",
    "mc_p_value",
    "expected_process_with_band",
    "dp_extreme_nll",
]


@dataclass(frozen=True)
class ThresholdLadder:
    """Strictly increasing thresholds, optionally tagged with quantile levels."""

    thresholds: np.ndarray
    levels: np.ndarray | None = None

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float).ravel()
        if thr.size < 1:
            raise ValueError("ladder needs at least one threshold")
        if not np.all(np.isfinite(thr)):
            raise ValueError("thresholds must be finite")
        if np.any(np.diff(thr) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", frozen_copy(thr))
        if self.levels is not None:
            lv = np.asarray(self.levels, dtype=float).ravel()
            if lv.size != thr.size:
                raise ValueError("levels must match thresholds in length")
            if np.any((lv < 0) | (lv > 1)):
                raise ValueError("quantile levels must lie in [0, 1]")
            object.__setattr__(self, "levels", frozen_copy(lv))

    @property
    def m(self) -> int:
        return int(self.thresholds.size)


def empirical_quantile(sorted_values: np.ndarray, p: float) -> float:
    """Inverse-CDF quantile on order statistics: level p maps to the ceil(p*T)-th smallest.

    Level 0 maps to the minimum.  ``sorted_values`` must already be sorted
    ascending.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("quantile level must lie in [0, 1]")
    t = sorted_values.size
    idx = max(1, math.ceil(p * t - 1e-9))
    return float(sorted_values[min(idx, t) - 1])


def build_ladder_from_quantiles(x: TimeSeries, lo: float, hi: float, m: int) -> ThresholdLadder:
    """Thresholds at m equidistant quantile levels of x between lo and hi.

    Tied quantiles collapse to one threshold (keeping the lowest level), so
    the ladder can come out with fewer than m thresholds.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("need 0 <= lo <= hi <= 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    if np.ptp(x.values) == 0.0:
        raise ValueError("cannot build a threshold ladder from a constant series")
    levels = np.linspace(lo, hi, m)
    sorted_vals = np.sort(x.values)
    thresholds = np.array([empirical_quantile(sorted_vals, p) for p in levels])
    keep = np.concatenate(([True], np.diff(thresholds) > 0))
    return ThresholdLadder(thresholds=thresholds[keep], levels=levels[keep])


def success_probabilities(ladder: ThresholdLadder, theta: GevParams) -> np.ndarray:
    """Window-exceedance probability at each ladder threshold under the fitted GEV.

    Strictly positive and non-increasing; one-ulp inversions from the power
    evaluation are clamped.  Raises ``GevFitError`` when a threshold has zero
    exceedance probability: it sits at or beyond the upper end of the fitted
    support, as a fit with negative shape can put it below the series
    maximum, or so far in the tail that the probability underflows.
    """
    pis = np.array([gev_sf(float(t), theta) for t in ladder.thresholds])
    if np.any(pis <= 0.0):
        i = int(np.argmax(pis <= 0.0))
        tau = float(ladder.thresholds[i])
        # off the support exactly where gev_sf finds it so; elsewhere the zero is an underflow
        beyond = (theta.shape <= -GUMBEL_SHAPE_TOL
                  and 1.0 + theta.shape * (tau - theta.location) / theta.scale <= 0.0)
        cause = ("the fitted GEV's upper support end, location - scale/shape, "
                 f"is {theta.location - theta.scale / theta.shape!r}" if beyond
                 else "the fitted GEV's exceedance probability underflows to 0 there")
        raise GevFitError(f"ladder threshold {tau!r} (rung {i + 1} of {ladder.m}) "
                          f"has zero exceedance probability: {cause}; choose a lower "
                          "--qhi (multi) or --tau/--quantile (pointwise)")
    return np.minimum.accumulate(pis)


def count_at_rungs(event_rungs, m: int) -> np.ndarray:
    """Trigger counts at m ladder thresholds, over the last axis of ``event_rungs``.

    ``event_rungs`` holds the rung of each event (see ``rung_index``), one
    event set per row of any leading shape; the count at threshold i
    (0-based) is the number of events at a rung above i.  Shape (..., n)
    gives shape (..., m): the rows of a non-increasing int count array.
    """
    event_rungs = np.asarray(event_rungs)
    if np.any((event_rungs < 0) | (event_rungs > m)):
        raise ValueError(f"rungs must lie in [0, {m}]")
    return np.count_nonzero(event_rungs[..., None] > np.arange(m), axis=-2)


def compute_tcp(e: EventSeries, rungs: np.ndarray, m: int) -> np.ndarray:
    """Trigger coincidence process of ``e``: its (m,) counts at the ladder thresholds.

    ``rungs`` is the rung of every step, ``rung_index(x, delta,
    ladder.thresholds)``.
    """
    rungs = np.asarray(rungs)
    if e.length != rungs.size:
        raise ValueError(f"series lengths differ: {e.length} vs {rungs.size}")
    return count_at_rungs(rungs[e.occurrences - 1], m)


def _as_pis(pis, m: int | None = None) -> np.ndarray:
    """Success probabilities as a validated flat float array, of length m when given."""
    pis = np.asarray(pis, dtype=float).ravel()
    if m is not None and pis.size != m:
        raise ValueError("pis must have one entry per ladder threshold")
    if pis.size < 1:
        raise ValueError("need at least one success probability")
    if np.any((pis <= 0.0) | (pis > 1.0)) or not np.all(np.isfinite(pis)):
        raise ValueError("success probabilities must lie in (0, 1]")
    if np.any(pis[1:] > pis[:-1] * (1.0 + 1e-9)):
        raise ValueError("success probabilities must be non-increasing along the ladder")
    return pis


def _nll_rows(counts: np.ndarray, n_events: int, pis: np.ndarray) -> np.ndarray:
    """Process NLL for each row of a (rows, M) count matrix (no validation)."""
    total = -binom_logpmf(counts[:, 0], n_events, float(pis[0]))
    for i in range(1, pis.size):
        rho = min(1.0, float(pis[i] / pis[i - 1]))
        total = total - binom_logpmf(counts[:, i], counts[:, i - 1], rho)
    return total


def tcp_nll(counts, n_events: int, pis) -> float:
    """Negative log-likelihood of a trigger coincidence process under the chained null.

    ``counts`` are the process's counts of ``n_events`` events along the
    ladder (see ``compute_tcp``): each in [0, n_events], non-increasing.
    The first term scores the lowest-threshold count against
    Binomial(n_events, pis[0]); each later term scores the count against
    Binomial(previous count, pis[i] / pis[i-1]).  The conditional success
    ratio is clamped to [0, 1] against floating-point overshoot.
    """
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    if np.any((counts < 0) | (counts > n_events)):
        raise ValueError("counts must lie in [0, n_events]")
    if np.any(np.diff(counts) > 0):
        raise ValueError("counts must be non-increasing along the ladder")
    pis = _as_pis(pis, counts.size)
    return float(_nll_rows(counts[None, :], n_events, pis)[0])


def steps_at_least(rungs: np.ndarray, m: int) -> np.ndarray:
    """A_0..A_m: the number of steps at rung >= i, of a series with rung index ``rungs``.

    A_0 is the series length and A is non-increasing.  The permutation null
    reads the series through A alone: A_i / T is the chance that one
    uniformly placed event is counted at threshold i, the counterpart of
    ``success_probabilities`` read off the series without the GEV fit.
    """
    rungs = np.asarray(rungs)
    if np.any((rungs < 0) | (rungs > m)):
        raise ValueError(f"rungs must lie in [0, {m}]")
    return np.bincount(rungs, minlength=m + 1)[::-1].cumsum()[::-1]


# Position draws that cost about one hypergeometric draw.  On a 2-core Xeon
# with NumPy 2.4 (r = 10^4; T 4096 to 2^20, m 8 to 128, every rung random)
# NumPy's "count" method won at n = 4 per random rung by 2.0x or more.  Beyond
# that "marginals" won by up to 14x at m = 8 (T = 2^20, n = 1000) and lost by
# up to 4.8x at m = 128 (T = 2^16, n = 509).
_POSITION_DRAWS_PER_RUNG_DRAW = 4


def _null_counts(at_least: np.ndarray, n_events: int, r: int, seed: int) -> np.ndarray:
    """Counts of r uniform re-placements of n_events events, as an (r, m) matrix.

    ``at_least`` is A_0..A_m (see ``steps_at_least``).  Only the rung of a
    step enters the counts, so the number of events on each rung is
    multivariate hypergeometric over the steps per rung.  One
    ``default_rng(seed).multivariate_hypergeometric`` call draws every
    replicate's events per rung, from rung m down to 0, and their running sum
    is the count at rung >= i.  NumPy's ``count`` method, n_events position
    draws per replicate from a temporary of one integer per step, runs when
    n_events is at most ``_POSITION_DRAWS_PER_RUNG_DRAW`` times the number of
    random rungs, 0 < A_i < A_{i-1}; its ``marginals`` method, a chain of
    hypergeometric draws over the rungs, runs otherwise.
    """
    steps_per_rung = -np.diff(at_least, append=0)
    if np.any(steps_per_rung < 0):
        raise ValueError("steps at rung >= i must be non-negative and non-increasing in i")
    m = at_least.size - 1
    if not 0 <= n_events <= at_least[0]:
        raise ValueError(f"cannot place {n_events} events on {at_least[0]} steps")
    random_rungs = int(np.count_nonzero((at_least[1:] > 0) & (at_least[1:] < at_least[:-1])))
    method = "count" if n_events <= _POSITION_DRAWS_PER_RUNG_DRAW * random_rungs else "marginals"
    placed = np.random.default_rng(seed).multivariate_hypergeometric(
        steps_per_rung[::-1], n_events, size=r, method=method)
    np.cumsum(placed, axis=1, out=placed)
    return placed[:, m - 1::-1]


def null_nll_replicates(at_least: np.ndarray, n_events: int, pis: np.ndarray, r: int,
                        seed: int) -> np.ndarray:
    """Process NLL statistics for r permutation replicates.

    ``at_least`` is the series' A_0..A_m (see ``steps_at_least``) and
    ``pis`` the ladder's m success probabilities (see
    ``success_probabilities``).  The replicates are exact draws of the
    process under uniform re-placement of ``n_events`` events, reproducible
    from ``seed``.
    """
    if r < 1:
        raise ValueError("need at least one replicate")
    pis = _as_pis(pis)
    at_least = np.asarray(at_least)
    if at_least.shape != (pis.size + 1,):
        raise ValueError(f"need the steps at rung >= i for i = 0..{pis.size}: "
                         "one entry more than pis")
    return _nll_rows(_null_counts(at_least, n_events, r, seed), n_events, pis)


def mc_p_value(statistic: float, null_stats) -> float:
    """Monte Carlo p-value of an observed statistic against r replicate statistics.

    The add-one rule (1 + #{null >= statistic}) / (r + 1) is never zero and
    counts ties against the alternative.  One draw of the null
    (``null_nll_replicates``) can score several event sets with the same
    number of events.
    """
    null_stats = np.asarray(null_stats, dtype=float).ravel()
    if null_stats.size < 1:
        raise ValueError("need at least one replicate")
    return (1 + int(np.count_nonzero(null_stats >= statistic))) / (null_stats.size + 1)


def expected_process_with_band(n_events: int, pis, level: float = 0.95):
    """Central binomial band for the process counts.

    Returns (lower, upper): the (1-level)/2 and (1+level)/2 quantiles of
    Binomial(n_events, pi) at each threshold.  A quantile q is the smallest
    count whose distribution function reaches q.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("band level must lie in (0, 1)")
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    pis = _as_pis(pis)
    lower = np.empty(pis.size, dtype=np.int64)
    upper = np.empty(pis.size, dtype=np.int64)
    q_lo, q_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    for i, pi in enumerate(pis):
        if pi >= 1.0:
            lower[i] = upper[i] = n_events
        else:
            cmf = binom_cdf(n_events, float(pi))
            lower[i], upper[i] = np.minimum(np.searchsorted(cmf, (q_lo, q_hi)), n_events)
    return lower, upper


def dp_extreme_nll(n_events: int, pis, direction: str) -> tuple[float, np.ndarray]:
    """Exact extreme of the process NLL over every feasible count vector.

    Dynamic program over the count value at each threshold (a count is
    feasible when it does not exceed its predecessor), O(M * n_events^2).
    ``direction`` is "min" or "max".  Returns the optimal statistic together
    with the counts of a process attaining it.
    """
    if direction not in ("min", "max"):
        raise ValueError('direction must be "min" or "max"')
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    pis = _as_pis(pis)
    minimize = direction == "min"
    bad = math.inf if minimize else -math.inf

    n = n_events
    ks = np.arange(n + 1, dtype=float)
    best = -binom_logpmf(ks, float(n), float(pis[0]))
    back: list[np.ndarray] = []
    k_grid = ks[None, :]
    prev_grid = ks[:, None]
    infeasible = k_grid > prev_grid
    for i in range(1, pis.size):
        rho = min(1.0, float(pis[i] / pis[i - 1]))
        trans = -binom_logpmf(k_grid, prev_grid, rho)
        cost = np.where(infeasible, bad, best[:, None] + trans)
        arg = np.argmin(cost, axis=0) if minimize else np.argmax(cost, axis=0)
        best = cost[arg, np.arange(n + 1)]
        back.append(arg)

    last = int(np.argmin(best) if minimize else np.argmax(best))
    statistic = float(best[last])
    path = [last]
    for arg in reversed(back):
        path.append(int(arg[path[-1]]))
    path.reverse()
    return statistic, np.array(path, dtype=np.int64)
