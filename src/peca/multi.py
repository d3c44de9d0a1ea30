"""Trigger coincidence processes over threshold ladders, and their joint test.

Counting trigger coincidences at a rising ladder of thresholds yields a
non-increasing count vector, the trigger coincidence process.  Under the
null the process has a Markov chain structure: the count at the lowest
threshold is binomial over the events, and each higher count is a binomial
thinning of the previous one, because a window exceeding the higher
threshold also exceeds the lower.  The negative log-likelihood of the whole
process is the test statistic; its null distribution is estimated by
re-placing the events uniformly at random.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .nulls import GevParams, PointwiseTestResult, binom_cdf, binom_logpmf, binom_tail, gev_sf
from .series import EventSeries, TimeSeries, _check_delta, _check_same_grid, _frozen, _window_max

__all__ = [
    "ThresholdLadder",
    "TriggerCoincidenceProcess",
    "MultiTestResult",
    "empirical_quantile",
    "build_ladder_from_quantiles",
    "success_probabilities",
    "compute_tcp",
    "tcp_nll",
    "permute_events",
    "replicate_rng",
    "null_nll_replicates",
    "mc_multi_threshold_test",
    "expected_process_with_band",
    "dp_extreme_nll",
    "pointwise_tests_along_ladder",
]


@dataclass(frozen=True)
class ThresholdLadder:
    """Strictly increasing thresholds, optionally tagged with quantile levels."""

    thresholds: np.ndarray
    levels: np.ndarray | None = None
    n_collapsed: int = 0

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float).ravel()
        if thr.size < 1:
            raise ValueError("ladder needs at least one threshold")
        if not np.all(np.isfinite(thr)):
            raise ValueError("thresholds must be finite")
        if np.any(np.diff(thr) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", _frozen(thr))
        if self.levels is not None:
            lv = np.asarray(self.levels, dtype=float).ravel()
            if lv.size != thr.size:
                raise ValueError("levels must match thresholds in length")
            if np.any((lv < 0) | (lv > 1)):
                raise ValueError("quantile levels must lie in [0, 1]")
            object.__setattr__(self, "levels", _frozen(lv))
        if self.n_collapsed < 0:
            raise ValueError("n_collapsed must be non-negative")

    @property
    def m(self) -> int:
        return int(self.thresholds.size)


@dataclass(frozen=True)
class TriggerCoincidenceProcess:
    """Trigger coincidence counts along a ladder; non-increasing by construction."""

    counts: np.ndarray
    n_events: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64).ravel()
        if counts.size < 1:
            raise ValueError("process needs at least one count")
        if self.n_events < 0:
            raise ValueError("n_events must be non-negative")
        if np.any((counts < 0) | (counts > self.n_events)):
            raise ValueError("counts must lie in [0, n_events]")
        if np.any(np.diff(counts) > 0):
            raise ValueError("counts must be non-increasing along the ladder")
        object.__setattr__(self, "counts", _frozen(counts))

    @property
    def m(self) -> int:
        return int(self.counts.size)

    def rates(self) -> np.ndarray:
        """Counts divided by n_events; NaN entries when there are no events."""
        if self.n_events == 0:
            return np.full(self.counts.size, np.nan)
        return self.counts / self.n_events


@dataclass(frozen=True)
class MultiTestResult:
    """Monte Carlo outcome for the process NLL statistic."""

    statistic: float
    replicates: int
    p_hat: float
    seed: int
    null_min: float
    null_median: float
    null_max: float


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
    the ladder can come out shorter than m; the number of collapsed entries
    is recorded on the result.
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
    return ThresholdLadder(thresholds=thresholds[keep], levels=levels[keep],
                           n_collapsed=int(m - keep.sum()))


def success_probabilities(ladder: ThresholdLadder, theta: GevParams) -> np.ndarray:
    """Window-exceedance probability at each ladder threshold under the fitted GEV.

    Strictly positive and non-increasing; one-ulp inversions from the power
    evaluation are clamped.  Raises when a threshold sits at or beyond the
    upper end of the fitted support.
    """
    pis = np.array([gev_sf(float(t), theta) for t in ladder.thresholds])
    if np.any(pis <= 0.0):
        raise ValueError("threshold beyond the fitted support: zero exceedance probability")
    return np.minimum.accumulate(pis)


def compute_tcp(e: EventSeries, x: TimeSeries, delta: int, ladder: ThresholdLadder) -> TriggerCoincidenceProcess:
    """Trigger coincidence counts at every ladder threshold."""
    _check_same_grid(e.length, x.length)
    _check_delta(delta, x.length)
    win = _window_max(x.values, delta)
    counts = _tcp_counts(win, e.occurrences, e.length - delta, ladder.thresholds)
    return TriggerCoincidenceProcess(counts=counts, n_events=e.n_events)


def _tcp_counts(window_max: np.ndarray, occurrences: np.ndarray, t_max: int,
                thresholds: np.ndarray) -> np.ndarray:
    """Counts of events (at steps <= t_max) whose window maximum strictly exceeds each threshold.

    ``thresholds`` must be ascending; the result is non-increasing.
    """
    early = occurrences[occurrences <= t_max]
    w = np.sort(window_max[early - 1])
    return (w.size - np.searchsorted(w, thresholds, side="right")).astype(np.int64)


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
    k = counts.astype(float)
    total = -binom_logpmf(k[:, 0], float(n_events), float(pis[0]))
    for i in range(1, pis.size):
        rho = min(1.0, float(pis[i] / pis[i - 1]))
        total = total - binom_logpmf(k[:, i], k[:, i - 1], rho)
    return total


def tcp_nll(process: TriggerCoincidenceProcess, pis) -> float:
    """Negative log-likelihood of a trigger coincidence process under the chained null.

    The first term scores the lowest-threshold count against
    Binomial(n_events, pis[0]); each later term scores the count against
    Binomial(previous count, pis[i] / pis[i-1]).  The conditional success
    ratio is clamped to [0, 1] against floating-point overshoot.
    """
    pis = _as_pis(pis, process.m)
    return float(_nll_rows(process.counts[None, :], process.n_events, pis)[0])


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Reproducible stream for one replicate; a pure function of (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def permute_events(e: EventSeries, rng: np.random.Generator) -> EventSeries:
    """Re-place the events uniformly at random among all steps, keeping their number."""
    occ = rng.choice(e.length, size=e.n_events, replace=False)
    occ.sort()
    return EventSeries(length=e.length, occurrences=occ + 1)


def null_nll_replicates(e: EventSeries, x: TimeSeries, delta: int, ladder: ThresholdLadder,
                        pis: np.ndarray, r: int, seed: int, workers: int = 1) -> np.ndarray:
    """Process NLL statistics for r permutation replicates.

    ``pis`` are the ladder's success probabilities (see
    ``success_probabilities``).  Replicate j draws its event placement from
    ``replicate_rng(seed, j)``, so the result is identical for any worker
    count and any execution order.
    """
    if r < 1:
        raise ValueError("need at least one replicate")
    pis = _as_pis(pis, ladder.m)
    win = _window_max(x.values, delta)
    t_max = e.length - delta
    counts = np.empty((r, ladder.m), dtype=np.int64)

    def fill(lo: int, hi: int) -> None:
        for j in range(lo, hi):
            perm = permute_events(e, replicate_rng(seed, j))
            counts[j] = _tcp_counts(win, perm.occurrences, t_max, ladder.thresholds)

    if workers <= 1:
        fill(0, r)
    else:
        step = math.ceil(r / workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fill, lo, min(lo + step, r)) for lo in range(0, r, step)]
            for fut in futures:
                fut.result()

    return _nll_rows(counts, e.n_events, pis)


def mc_multi_threshold_test(e: EventSeries, x: TimeSeries, delta: int, ladder: ThresholdLadder,
                            process: TriggerCoincidenceProcess, pis: np.ndarray, r: int, seed: int,
                            workers: int = 1) -> MultiTestResult:
    """Monte Carlo test of the observed process NLL against event permutations.

    ``process`` is the observed process, ``compute_tcp(e, x, delta, ladder)``,
    and ``pis`` the ladder's success probabilities; both are computed once by
    the caller and shared with the pointwise tests and the QTR table.  The
    p-value estimate is (1 + #{null >= observed}) / (r + 1), which is never
    zero and counts ties against the alternative.
    """
    _check_same_grid(e.length, x.length)
    _check_delta(delta, x.length)
    observed = tcp_nll(process, pis)
    null_stats = null_nll_replicates(e, x, delta, ladder, pis, r, seed, workers=workers)
    p_hat = (1 + int(np.count_nonzero(null_stats >= observed))) / (r + 1)
    return MultiTestResult(statistic=float(observed), replicates=int(r), p_hat=float(p_hat),
                           seed=int(seed), null_min=float(null_stats.min()),
                           null_median=float(np.median(null_stats)),
                           null_max=float(null_stats.max()))


def expected_process_with_band(n_events: int, pis, level: float = 0.95):
    """Null expectation and central binomial band for the process counts.

    Returns (expected, lower, upper): expected counts n_events * pi, and the
    (1-level)/2 and (1+level)/2 quantiles of Binomial(n_events, pi) at each
    threshold.  A quantile q is the smallest count whose distribution
    function reaches q.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("band level must lie in (0, 1)")
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    pis = _as_pis(pis)
    expected = n_events * pis
    lower = np.empty(pis.size, dtype=np.int64)
    upper = np.empty(pis.size, dtype=np.int64)
    q_lo, q_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    for i, pi in enumerate(pis):
        if pi >= 1.0:
            lower[i] = upper[i] = n_events
        else:
            cmf = binom_cdf(np.arange(n_events + 1), n_events, float(pi))
            lower[i], upper[i] = np.minimum(np.searchsorted(cmf, (q_lo, q_hi)), n_events)
    return expected, lower, upper


def dp_extreme_nll(n_events: int, pis, direction: str) -> tuple[float, TriggerCoincidenceProcess]:
    """Exact extreme of the process NLL over every feasible count vector.

    Dynamic program over the count value at each threshold (a count is
    feasible when it does not exceed its predecessor), O(M * n_events^2).
    ``direction`` is "min" or "max".  Returns the optimal statistic together
    with a process attaining it.
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
    process = TriggerCoincidenceProcess(counts=np.array(path, dtype=np.int64), n_events=n)
    return statistic, process


def pointwise_tests_along_ladder(process: TriggerCoincidenceProcess,
                                 pis: np.ndarray) -> list[PointwiseTestResult]:
    """Raw (unadjusted) single-threshold tests of each count of the observed process.

    The count at rung i is scored against Binomial(n_events, pis[i]), the
    upper tail that ``gev_null_pvalue`` takes at that threshold.
    """
    pis = _as_pis(pis, process.m)
    n = process.n_events
    return [PointwiseTestResult(k_observed=int(k), n_events=n, success_prob=float(pi),
                                p_value=binom_tail(int(k), n, float(pi)))
            for k, pi in zip(process.counts, pis)]
