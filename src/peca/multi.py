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
hypergeometric analogue of the binomial chain and is sampled as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nulls import GevParams, binom_cdf, binom_logpmf, gev_sf
from .series import EventSeries, TimeSeries, check_same_grid, frozen_copy

__all__ = [
    "ThresholdLadder",
    "TriggerCoincidenceProcess",
    "MultiTestResult",
    "empirical_quantile",
    "build_ladder_from_quantiles",
    "success_probabilities",
    "permutation_success_probabilities",
    "compute_tcp",
    "tcp_nll",
    "null_nll_replicates",
    "mc_multi_threshold_test",
    "expected_process_with_band",
    "dp_extreme_nll",
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
        object.__setattr__(self, "thresholds", frozen_copy(thr))
        if self.levels is not None:
            lv = np.asarray(self.levels, dtype=float).ravel()
            if lv.size != thr.size:
                raise ValueError("levels must match thresholds in length")
            if np.any((lv < 0) | (lv > 1)):
                raise ValueError("quantile levels must lie in [0, 1]")
            object.__setattr__(self, "levels", frozen_copy(lv))
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
        object.__setattr__(self, "counts", frozen_copy(counts))

    @property
    def m(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class MultiTestResult:
    """Monte Carlo outcome for the process NLL statistic."""

    statistic: float
    replicates: int
    p_hat: float
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


def compute_tcp(e: EventSeries, rungs: np.ndarray, m: int) -> TriggerCoincidenceProcess:
    """Trigger coincidence counts at the m ladder thresholds.

    ``rungs`` is the rung of every step, ``rung_index(x, delta,
    ladder.thresholds)``; the count at threshold i (0-based) is the number
    of events at a rung above i.
    """
    rungs = np.asarray(rungs)
    check_same_grid(e.length, rungs.size)
    at_events = rungs[e.occurrences - 1]
    if np.any((at_events < 0) | (at_events > m)):
        raise ValueError(f"rungs must lie in [0, {m}]")
    counts = np.count_nonzero(at_events[:, None] > np.arange(m), axis=0)
    return TriggerCoincidenceProcess(counts=counts, n_events=e.n_events)


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


def tcp_nll(process: TriggerCoincidenceProcess, pis) -> float:
    """Negative log-likelihood of a trigger coincidence process under the chained null.

    The first term scores the lowest-threshold count against
    Binomial(n_events, pis[0]); each later term scores the count against
    Binomial(previous count, pis[i] / pis[i-1]).  The conditional success
    ratio is clamped to [0, 1] against floating-point overshoot.
    """
    pis = _as_pis(pis, process.m)
    return float(_nll_rows(process.counts[None, :], process.n_events, pis)[0])


def _steps_at_least(rungs: np.ndarray, m: int) -> np.ndarray:
    """A_0..A_m: the number of steps at rung >= i; A_0 is the series length."""
    rungs = np.asarray(rungs)
    if np.any((rungs < 0) | (rungs > m)):
        raise ValueError(f"rungs must lie in [0, {m}]")
    return np.bincount(rungs, minlength=m + 1)[::-1].cumsum()[::-1]


def permutation_success_probabilities(rungs: np.ndarray, m: int) -> np.ndarray:
    """Share A_i / T of steps at rung >= i, for i = 1..m.

    This is the chance that one uniformly placed event is counted at
    threshold i: the permutation null's counterpart of
    ``success_probabilities``, read off the series without the GEV fit.
    Non-increasing along the ladder.
    """
    at_least = _steps_at_least(rungs, m)
    return at_least[1:] / at_least[0]


def _null_counts(rungs: np.ndarray, n_events: int, m: int, r: int, seed: int) -> np.ndarray:
    """Counts of r uniform re-placements of n_events events, as an (r, m) matrix.

    With A_i the number of steps at rung >= i (A_0 the series length), the
    count at rung i is hypergeometric: k_1 ~ HG(A_1 of A_0, n_events draws)
    and k_i | k_{i-1} ~ HG(A_i of A_{i-1}, k_{i-1} draws).  Every replicate
    is drawn at once, one rung at a time, from ``default_rng(seed)``.
    """
    at_least = _steps_at_least(rungs, m)
    if not 0 <= n_events <= at_least[0]:
        raise ValueError(f"cannot place {n_events} events on {at_least[0]} steps")
    rng = np.random.default_rng(seed)
    counts = np.empty((r, m), dtype=np.int64)
    k = n_events
    for i in range(1, m + 1):
        k = rng.hypergeometric(at_least[i], at_least[i - 1] - at_least[i], k, size=r)
        counts[:, i - 1] = k
    return counts


def null_nll_replicates(rungs: np.ndarray, n_events: int, pis: np.ndarray, r: int,
                        seed: int) -> np.ndarray:
    """Process NLL statistics for r permutation replicates.

    ``rungs`` is the rung index of the series (see ``rung_index``) and
    ``pis`` the ladder's success probabilities (see
    ``success_probabilities``).  The replicates are exact draws of the
    process under uniform re-placement of ``n_events`` events, reproducible
    from ``seed``.
    """
    if r < 1:
        raise ValueError("need at least one replicate")
    pis = _as_pis(pis)
    return _nll_rows(_null_counts(rungs, n_events, pis.size, r, seed), n_events, pis)


def mc_multi_threshold_test(process: TriggerCoincidenceProcess, pis: np.ndarray,
                            null_stats: np.ndarray) -> MultiTestResult:
    """Monte Carlo test of the observed process NLL against event permutations.

    ``process`` is the observed process, ``compute_tcp(e, rungs, m)``,
    ``pis`` the ladder's success probabilities and ``null_stats`` the
    replicate NLLs, ``null_nll_replicates(rungs, process.n_events, pis, r,
    seed)``.  All three are computed once by the caller, so one draw of
    the null can score several event sets with the same number of events.
    The p-value estimate is (1 + #{null >= observed}) / (r + 1), which is
    never zero and counts ties against the alternative.
    """
    null_stats = np.asarray(null_stats, dtype=float).ravel()
    if null_stats.size < 1:
        raise ValueError("need at least one replicate")
    observed = tcp_nll(process, pis)
    r = null_stats.size
    p_hat = (1 + int(np.count_nonzero(null_stats >= observed))) / (r + 1)
    return MultiTestResult(statistic=float(observed), replicates=int(r), p_hat=float(p_hat),
                           null_min=float(null_stats.min()),
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
