"""Synthetic data generators and the empirical-vs-analytical null comparison.

The generators build standardized smoothed-noise series plus independent or
planted event series; the comparison harness tabulates how well the
Bernoulli-based and GEV-based binomial nulls match the simulated
distribution of the trigger count as serial dependence grows.  Every
generator takes a ``seed`` that ``numpy.random.default_rng`` accepts; the
studies pass ``(root seed, *path)`` tuples, one named stream per draw.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .multi import count_at_rungs
from .nulls import bernoulli_success_prob, binom_cdf, block_maxima, fit_gev_mle, gev_sf
from .series import EventSeries, TimeSeries, rung_index

__all__ = [
    "SimConfig",
    "gen_ma_exponential",
    "gen_independent_events",
    "gen_dependent_events",
    "NullComparisonCell",
    "NullComparisonResult",
    "null_distribution_comparison",
    "write_comparison_csv",
]


@dataclass(frozen=True)
class SimConfig:
    """Settings for the null comparison runs.

    One series is simulated per entry of ``ma_orders``; each series is paired
    with ``replicates`` freshly drawn independent event series and evaluated
    at every threshold in ``thresholds``.
    """

    length: int = 4096
    ma_orders: tuple[int, ...] = (0, 32, 64)
    n_events: int = 32
    delta: int = 7
    thresholds: tuple[float, ...] = (3.0, 4.0, 5.0)
    replicates: int = 1000
    seed: int = 131

    def __post_init__(self):
        if not self.ma_orders:
            raise ValueError("need at least one filter order")
        if any(q < 0 for q in self.ma_orders):
            raise ValueError("filter orders must be non-negative")
        if self.length <= max(self.ma_orders):
            raise ValueError("series length must exceed the largest filter order")
        if not 0 <= self.n_events <= self.length:
            raise ValueError("n_events must lie in [0, length]")
        if self.delta < 0 or self.delta >= self.length:
            raise ValueError("delta must lie in [0, length)")
        if not self.thresholds or any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be non-empty and strictly increasing")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _causal_mean_filter(draws: np.ndarray, order: int) -> np.ndarray:
    """Unweighted mean over the current and previous order-1 entries.

    The first order-1 outputs average the available prefix instead of a full
    window.  Orders 0 and 1 return the input unchanged.
    """
    if order <= 1:
        return draws.copy()
    cs = np.cumsum(draws)
    out = np.empty_like(draws)
    head = min(order - 1, draws.size)
    out[:head] = cs[:head] / np.arange(1, head + 1)
    if draws.size >= order:
        shifted = np.concatenate(([0.0], cs[:-order]))
        out[order - 1:] = (cs[order - 1:] - shifted) / order
    return out


def _filtered_exponential(rng: np.random.Generator, t: int, order: int) -> np.ndarray:
    """Smoothed unit-exponential noise, before standardization."""
    return _causal_mean_filter(rng.exponential(1.0, size=t), order)


def gen_ma_exponential(t: int, order: int, seed) -> TimeSeries:
    """Standardized smoothed exponential noise, shifted so the minimum is exactly 0.

    ``order`` 0 (or 1) keeps the raw iid draws; larger orders apply the
    causal mean filter of that window size, which dials in serial
    dependence.  The filtered series is standardized to zero sample mean and
    unit sample variance before the shift.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if t <= order:
        raise ValueError("series length must exceed the filter order")
    y = _filtered_exponential(np.random.default_rng(seed), t, order)
    y = (y - y.mean()) / y.std(ddof=1)
    return TimeSeries(values=y - y.min())


def gen_independent_events(t: int, n: int, seed) -> EventSeries:
    """n event positions drawn uniformly without replacement from 1..t."""
    if not 0 <= n <= t:
        raise ValueError(f"cannot place {n} events on {t} steps")
    occ = np.random.default_rng(seed).choice(t, size=n, replace=False)
    occ.sort()
    return EventSeries(length=t, occurrences=occ + 1)


def gen_dependent_events(x: TimeSeries, n: int, trigger_tau: float, lag: int, seed) -> EventSeries:
    """Events planted ``lag`` steps before sampled strict exceedances of ``trigger_tau``.

    Every generated event is followed by an exceedance exactly ``lag`` steps
    later, so with any tolerance >= lag the trigger construction holds by
    design.  Raises when fewer than n usable exceedances exist.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if n < 0:
        raise ValueError("n must be non-negative")
    candidates = np.flatnonzero(x.values > trigger_tau) + 1
    candidates = candidates[candidates - lag >= 1]
    if candidates.size < n:
        raise ValueError(
            f"only {candidates.size} usable exceedance(s) of {trigger_tau}, need {n}")
    picked = np.random.default_rng(seed).choice(candidates, size=n, replace=False)
    return EventSeries(length=x.length, occurrences=np.sort(picked - lag))


def _seed_words(*path: int) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of a tuple of non-negative ints.

    Each int becomes its little-endian 32-bit words, at least one, and the
    tuple their concatenation; so ``SeedSequence`` of these words as a uint32
    array seeds exactly as ``default_rng(path)`` does, only faster.
    """
    words = []
    for v in path:
        words.append(v & 0xFFFFFFFF)
        while v := v >> 32:
            words.append(v & 0xFFFFFFFF)
    return words


@dataclass(frozen=True)
class NullComparisonCell:
    """Empirical and analytical trigger-count CMFs for one (order, threshold) pair."""

    ma_order: int
    tau: float
    k: np.ndarray
    empirical_cmf: np.ndarray
    bernoulli_cmf: np.ndarray
    gev_cmf: np.ndarray
    sup_bernoulli: float
    sup_gev: float


@dataclass(frozen=True)
class NullComparisonResult:
    config: SimConfig
    cells: tuple[NullComparisonCell, ...]

    def cell(self, ma_order: int, tau: float) -> NullComparisonCell:
        for c in self.cells:
            if c.ma_order == ma_order and c.tau == tau:
                return c
        raise KeyError(f"no cell for order {ma_order}, tau {tau}")


def null_distribution_comparison(config: SimConfig) -> NullComparisonResult:
    """Simulated trigger-count distribution under independence vs the two analytical nulls.

    For each filter order, one series is generated and a GEV is fitted to its
    block maxima; then ``replicates`` independent event series are drawn and
    the trigger count tabulated at each threshold.  Each cell reports the
    empirical CMF next to the Bernoulli-based and GEV-based binomial CMFs and
    their sup-distances, which double as an adequacy diagnostic for the
    analytical nulls.
    """
    cells = []
    n = config.n_events
    ks = np.arange(n + 1)
    taus = np.asarray(config.thresholds, dtype=float)
    for order in config.ma_orders:
        x = gen_ma_exponential(config.length, order, seed=(config.seed, order, 0))
        theta = fit_gev_mle(block_maxima(x, config.delta)).params
        rungs = rung_index(x, config.delta, taus)
        at_events = np.empty((config.replicates, n), dtype=np.int64)
        # replicate j draws the positions gen_independent_events(seed=(seed, order, 1, j))
        # draws, zero-based and unsorted; only the last seed word changes per replicate
        words = np.array(_seed_words(config.seed, order, 1, 0), dtype=np.uint32)
        for j in range(config.replicates):
            words[-1] = j
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
            at_events[j] = rungs[rng.choice(config.length, size=n, replace=False)]
        counts = count_at_rungs(at_events, taus.size)
        for ti, tau in enumerate(taus):
            emp = np.searchsorted(np.sort(counts[:, ti]), ks, side="right") / config.replicates
            p_exc = np.count_nonzero(x.values > tau) / config.length
            ber = binom_cdf(ks, n, bernoulli_success_prob(p_exc, config.delta))
            gev = binom_cdf(ks, n, gev_sf(float(tau), theta))
            cells.append(NullComparisonCell(
                ma_order=int(order), tau=float(tau), k=ks.copy(),
                empirical_cmf=emp, bernoulli_cmf=ber, gev_cmf=gev,
                sup_bernoulli=float(np.max(np.abs(emp - ber))),
                sup_gev=float(np.max(np.abs(emp - gev)))))
    return NullComparisonResult(config=config, cells=tuple(cells))


def write_comparison_csv(result: NullComparisonResult, path) -> None:
    """Long-format CSV of the comparison: one row per (k, order, tau)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "order", "tau", "empirical_cmf", "bernoulli_cmf", "gev_cmf"])
        for cell in result.cells:
            for i, k in enumerate(cell.k):
                writer.writerow([int(k), cell.ma_order, repr(cell.tau),
                                 repr(float(cell.empirical_cmf[i])),
                                 repr(float(cell.bernoulli_cmf[i])),
                                 repr(float(cell.gev_cmf[i]))])
