"""Trigger coincidence processes over threshold ladders, and their joint test.

Counting trigger coincidences at a rising ladder of thresholds yields a
non-increasing count vector, the trigger coincidence process.  Under the
null the process is a Markov chain from k_0 = n, the number of events: each
count is a binomial thinning of the one below it (success probability pi_1, then
pi_i / pi_{i-1}), because a window exceeding the higher threshold also exceeds
the lower.  The negative log-likelihood of the whole process is the test
statistic; its null distribution is estimated by
re-placing the events uniformly at random.  Only the rung of each step
(see ``rung_index``) enters the counts, so the re-placed process is the
hypergeometric analogue of the binomial chain: the events per rung are
multivariate hypergeometric.  ``null_blocks`` draws them from one Generator in
blocks of ``_NULL_BLOCK``; ``null_nll_replicates`` scores each before the next
is drawn, so memory holds the r NLLs and one block of counts, whatever r is.
One kernel, ``steps_at_least``, does every count: the steps per rung of a
series, the observed process of an event set, and batches of event sets.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .nulls import binom_cdf, binom_logpmf
from .series import (EventSeries, TimeSeries, frozen_copy, integer_array, integer_scalar,
                     real_array, real_scalar)

# Coverage of the central null band around the expected process, the band the QTR chart draws.
BAND_LEVEL = 0.95

__all__ = [
    "BAND_LEVEL",
    "ThresholdLadder",
    "empirical_quantile",
    "build_ladder_from_quantiles",
    "steps_at_least",
    "compute_tcp",
    "tcp_nll",
    "null_blocks",
    "null_nll_replicates",
    "mc_p_value",
    "expected_process_with_band",
    "dp_extreme_nll",
]


@dataclass(frozen=True)
class ThresholdLadder:
    """Strictly increasing thresholds and optional quantile levels."""

    thresholds: np.ndarray
    levels: np.ndarray | None = None

    def __post_init__(self):
        thr = real_array(self.thresholds, "thresholds").ravel()
        if thr.size < 1:
            raise ValueError("ladder needs at least one threshold")
        if np.any(np.diff(thr) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", frozen_copy(thr))
        if self.levels is not None:
            lv = real_array(self.levels, "quantile levels", 0, 1).ravel()
            if lv.size != thr.size:
                raise ValueError("levels must match thresholds in length")
            object.__setattr__(self, "levels", frozen_copy(lv))

    @property
    def m(self) -> int:
        return int(self.thresholds.size)


def _quantile_rank(t: int, p: float) -> int:
    """Index, from 0, of the level-p order statistic of t values: the ceil(p*T)-th
    smallest, and the smallest at level 0.  ``p`` is a level its caller has read."""
    return min(max(1, math.ceil(p * t - 1e-9)), t) - 1


def empirical_quantile(values: np.ndarray, p: float) -> float:
    """Inverse-CDF quantile on order statistics: level p maps to the ceil(p*T)-th smallest.

    Level 0 maps to the minimum.  ``values`` need not be sorted; one partition finds the
    order statistic.
    """
    values = real_array(values, "values").ravel()
    if values.size < 1:
        raise ValueError("need at least one value")
    rank = _quantile_rank(values.size, real_scalar(p, "quantile level", 0, 1))
    return float(np.partition(values, rank)[rank])


def build_ladder_from_quantiles(x: TimeSeries, lo: float, hi: float, m: int) -> ThresholdLadder:
    """Thresholds at m equidistant quantile levels of x between lo and hi.

    Tied quantiles collapse to one threshold (keeping the lowest level), so
    the ladder can come out with fewer than m thresholds.
    """
    lo, hi = real_scalar(lo, "lo"), real_scalar(hi, "hi")
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("need 0 <= lo <= hi <= 1")
    m = integer_scalar(m, "m", 1)
    if np.ptp(x.values) == 0.0:
        raise ValueError("cannot build a threshold ladder from a constant series")
    levels = np.linspace(lo, hi, m)
    thresholds = np.sort(x.values)[[_quantile_rank(x.length, p) for p in levels]]
    keep = np.concatenate(([True], np.diff(thresholds) > 0))
    return ThresholdLadder(thresholds=thresholds[keep], levels=levels[keep])


def steps_at_least(rungs, m: int) -> np.ndarray:
    """Entries at rung >= i, for i = 0..m, along the last axis: the one counting kernel.

    Shape (..., k) gives shape (..., m + 1); each row is non-increasing and
    starts with its total, k.  Of a series' rung index (see ``rung_index``)
    it is A_0..A_m, the steps at rung >= i.  The permutation null reads the
    series through A alone: A_i / T is the chance that one uniformly placed
    event is counted at threshold i, the counterpart of
    ``nulls.success_probabilities`` read off the series without the GEV fit.  Of
    event sets' rungs, entries 1..m are their trigger counts (see
    ``compute_tcp``).  One ``bincount`` counts every row, offset by m + 1 per row, and a
    reversed running sum accumulates.
    """
    rungs, m = integer_array(rungs, "rungs"), integer_scalar(m, "m", 0)
    if np.any((rungs < 0) | (rungs > m)):
        raise ValueError(f"rungs must lie in [0, {m}]")
    rows = math.prod(rungs.shape[:-1])
    flat = rungs.reshape(rows, rungs.shape[-1]) + np.arange(0, rows * (m + 1), m + 1)[:, None]
    bins = np.bincount(flat.ravel(), minlength=rows * (m + 1))
    return bins.reshape(*rungs.shape[:-1], m + 1)[..., ::-1].cumsum(axis=-1)[..., ::-1]


def compute_tcp(e: EventSeries, rungs: np.ndarray, m: int) -> np.ndarray:
    """Trigger coincidence process of ``e``: its (m,) counts at the ladder thresholds.

    ``rungs`` is the rung of every step, ``rung_index(x, delta,
    ladder.thresholds)``; an event's rung is the rung of its step, so the
    count at threshold i is ``steps_at_least`` of the events' rungs, entry i.
    """
    rungs = integer_array(rungs, "rungs")
    if e.length != rungs.size:
        raise ValueError(f"series lengths differ: {e.length} vs {rungs.size}")
    return steps_at_least(rungs[e.occurrences - 1], m)[1:]


def _as_pis(pis, m: int | None = None) -> np.ndarray:
    """Success probabilities as a validated flat float array, of length m when given."""
    pis = real_array(pis, "success probabilities").ravel()
    if m is not None and pis.size != m:
        raise ValueError("pis must have one entry per ladder threshold")
    if pis.size < 1:
        raise ValueError("need at least one success probability")
    if np.any((pis <= 0.0) | (pis > 1.0)):
        raise ValueError("success probabilities must lie in (0, 1]")
    if np.any(pis[1:] > pis[:-1] * (1.0 + 1e-9)):
        raise ValueError("success probabilities must be non-increasing along the ladder")
    return pis


def _chain(pis: np.ndarray) -> list[float]:
    """The chain's m step probabilities: pis[0], then each pis[i] / pis[i-1] clamped to 1."""
    return [float(pis[0]), *np.minimum(pis[1:] / pis[:-1], 1.0).tolist()]


def _nll_rows(counts: np.ndarray, n_events: int, chain: list[float]) -> np.ndarray:
    """Process NLL for each row of a (rows, M) count matrix, chain from ``_chain`` (unchecked)."""
    total, prev = 0.0, n_events
    for i, rho in enumerate(chain):
        total = total - binom_logpmf(counts[:, i], prev, rho)
        prev = counts[:, i]
    return total


def tcp_nll(counts, n_events: int, pis) -> float:
    """Negative log-likelihood of a trigger coincidence process under the chained null.

    ``counts`` are the process's counts of ``n_events`` events along the
    ladder (see ``compute_tcp``): each in [0, n_events], non-increasing.  The chain starts
    from k_0 = n_events and scores each count against Binomial(previous count, pis[0], then
    pis[i] / pis[i-1] clamped to 1); the NLL is finite exactly on processes of positive
    likelihood.  A process whose every rung is certain (pi 1, count n_events) scores +0.0,
    never -0.0.
    """
    counts = integer_array(counts, "counts").ravel()
    n_events = integer_scalar(n_events, "n_events", 0)
    if np.any((counts < 0) | (counts > n_events)):
        raise ValueError("counts must lie in [0, n_events]")
    if np.any(np.diff(counts) > 0):
        raise ValueError("counts must be non-increasing along the ladder")
    pis = _as_pis(pis, counts.size)
    return float(_nll_rows(counts[None, :], n_events, _chain(pis))[0])


# Position draws that cost about one hypergeometric draw.  On a 2-core Xeon
# with NumPy 2.4 (r = 10^4; T 4096 to 2^20, m 8 to 128, every rung random)
# NumPy's "count" method won at n = 4 per random rung by 2.0x or more.  Beyond
# that "marginals" won by up to 14x at m = 8 (T = 2^20, n = 1000) and lost by
# up to 4.8x at m = 128 (T = 2^16, n = 509).
_POSITION_DRAWS_PER_RUNG_DRAW = 4


# Replicates drawn and scored at a time: a block holds 0.5 MB of counts at
# m = 32 and 2.1 MB at m = 128.  On a 2-core Xeon with NumPy 2.4 at r = 10^6
# (medians of 4 runs, m 32 and 128), blocks of 2048, 4096 and 16384 came
# within 12 % of each other, and 1024 took 10 to 30 % longer than 2048.
_NULL_BLOCK = 2048


def null_blocks(at_least, n_events: int, r: int, seed) -> Iterator[np.ndarray]:
    """Counts of r uniform re-placements of n_events events, in (rows, m) blocks.

    ``at_least`` is A_0..A_m (see ``steps_at_least``).  The call reads every argument and sets
    the draw up; the iterator then yields blocks of ``_NULL_BLOCK`` rows, the last one partial,
    from one ``np.random.default_rng(seed)`` (a Generator is used as it is).  Each is one
    ``multivariate_hypergeometric`` draw of the events per rung, rung m down to 0, summed up to
    the count at rung >= i.  NumPy's ``count`` method, n_events position draws per row from a
    temporary of one integer per step, runs when n_events is at most
    ``_POSITION_DRAWS_PER_RUNG_DRAW`` times the number of random rungs, 0 < A_i < A_{i-1}; its
    ``marginals`` method, a chain of hypergeometric draws over the rungs, otherwise.  A
    consumer holds one block at a time only if it drops each before asking for the next:
    ``map`` and ``next()`` do, while a ``for`` variable or a generator expression holds the
    previous block during each draw.
    """
    r = integer_scalar(r, "replicate count", 1)
    at_least = integer_array(at_least, "steps at rung >= i").ravel()
    n_events = integer_scalar(n_events, "n_events", 0)
    colors = -np.diff(at_least, append=0)[::-1]   # steps per rung, rung m down to 0
    if at_least.size < 1 or np.any(colors < 0):
        raise ValueError("steps at rung >= i, i = 0..m, must be non-negative and non-increasing")
    if n_events > at_least[0]:
        raise ValueError(f"cannot place {n_events} events on {at_least[0]} steps")
    random_rungs = int(np.count_nonzero((at_least[1:] > 0) & (at_least[1:] < at_least[:-1])))
    method = "count" if n_events <= _POSITION_DRAWS_PER_RUNG_DRAW * random_rungs else "marginals"
    rng = np.random.default_rng(seed)

    def block(rows):
        placed = rng.multivariate_hypergeometric(colors, n_events, size=rows, method=method)
        return np.cumsum(placed, axis=1, out=placed)[:, -2::-1]

    return (block(min(_NULL_BLOCK, r - start)) for start in range(0, r, _NULL_BLOCK))


def null_nll_replicates(at_least: np.ndarray, n_events: int, pis: np.ndarray, r: int,
                        seed: int) -> np.ndarray:
    """Process NLL statistics for r permutation replicates, reproducible from ``seed``.

    ``pis`` are the ladder's m success probabilities (see ``nulls.success_probabilities``).
    ``null_blocks`` reads the other arguments and draws the replicates, exact draws of the
    process under uniform re-placement of ``n_events`` events on the series' A_0..A_m; each
    block is scored into the r NLLs before the next is drawn.
    """
    r = integer_scalar(r, "replicate count", 1)
    pis = _as_pis(pis)
    at_least = integer_array(at_least, "steps at rung >= i")
    if at_least.shape != (pis.size + 1,):
        raise ValueError(f"need the steps at rung >= i for i = 0..{pis.size}: "
                         "one entry more than pis")
    blocks = null_blocks(at_least, n_events, r, seed)   # checks the rest before any draw
    chain = _chain(pis)
    nlls = np.empty(r)
    for start in range(0, r, _NULL_BLOCK):   # each block a temporary, freed before the next
        nlls[start:start + _NULL_BLOCK] = _nll_rows(next(blocks), n_events, chain)
    return nlls


def mc_p_value(statistic: float, null_stats) -> float:
    """Monte Carlo p-value of an observed statistic against r replicate statistics.

    The add-one rule (1 + #{null >= statistic}) / (r + 1) is never zero and
    counts ties against the alternative.  One draw of the null
    (``null_nll_replicates``) can score several event sets with the same
    number of events.  Both are read on [-inf, inf], so an infinite NLL is a statistic and
    nan or text raises ValueError.
    """
    statistic = real_scalar(statistic, "statistic", -math.inf, math.inf)
    null_stats = real_array(null_stats, "null statistics", -math.inf, math.inf).ravel()
    if null_stats.size < 1:
        raise ValueError("need at least one replicate")
    return (1 + int(np.count_nonzero(null_stats >= statistic))) / (null_stats.size + 1)


def expected_process_with_band(n_events: int, pis):
    """Central ``BAND_LEVEL`` binomial band for the process counts, the band the QTR chart draws.

    Returns (lower, upper): the (1 - BAND_LEVEL) / 2 and (1 + BAND_LEVEL) / 2
    quantiles of Binomial(n_events, pi) at each threshold.  A quantile q is the smallest
    count whose distribution function reaches q; at pi = 1 that function is [0, ..., 0, 1],
    so both bounds are n_events.
    """
    n_events = integer_scalar(n_events, "n_events", 0)
    pis = _as_pis(pis)
    lower, upper = np.empty((2, pis.size), dtype=np.int64)
    # (1 - 0.95) / 2 is 0.025000000000000022, not 0.025: keep the computed quantiles
    q_lo, q_hi = (1.0 - BAND_LEVEL) / 2.0, (1.0 + BAND_LEVEL) / 2.0
    for i, pi in enumerate(pis):
        cmf = binom_cdf(n_events, pi)
        lower[i], upper[i] = np.minimum(np.searchsorted(cmf, (q_lo, q_hi)), n_events)
    return lower, upper


def dp_extreme_nll(n_events: int, pis, direction: str) -> tuple[float, np.ndarray]:
    """Exact extreme of the process NLL over every process of positive likelihood.

    Dynamic program over the count at each threshold from k_0 = n_events, a step allowed
    when its ``binom_logpmf`` term is finite, O(M * n_events^2).  ``direction`` is "min" or
    "max", found as the minimum of -NLL.  Returns the optimal statistic together with the
    counts of a process attaining it; with every rung certain, or no events, it is +0.0.
    """
    if direction not in ("min", "max"):
        raise ValueError('direction must be "min" or "max"')
    n = integer_scalar(n_events, "n_events", 0)
    sign = 1.0 if direction == "min" else -1.0
    ks = np.arange(n + 1)
    prev, best, back = np.array([n]), np.zeros(1), []
    for rho in _chain(_as_pis(pis)):
        step = binom_logpmf(ks, prev[:, None], rho)
        cost = best[:, None] + np.where(step > -np.inf, -sign * step, np.inf)
        back.append(np.argmin(cost, axis=0))
        prev, best = ks, cost[back[-1], ks]

    path = [int(np.argmin(best))]
    for arg in reversed(back[1:]):
        path.append(int(arg[path[-1]]))
    return 0.0 + sign * float(best[path[0]]), np.array(path[::-1], dtype=np.int64)
