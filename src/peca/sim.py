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
from collections.abc import Iterator
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
        if len(set(self.ma_orders)) < len(self.ma_orders):
            raise ValueError(f"repeated filter order in {list(self.ma_orders)}")
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
    tuple their concatenation: the entropy ``default_rng(path)`` hashes, and
    the words ``_pcg64_states`` hashes into the same PCG64 states.
    """
    words = []
    for v in path:
        words.append(v & 0xFFFFFFFF)
        while v := v >> 32:
            words.append(v & 0xFFFFFFFF)
    return words


# SeedSequence's hash constants (pool of 4 words) and PCG64's multiplier; NumPy's
# stream-compatibility policy fixes both algorithms, so these never change
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
# replicates hashed per call: bounds the Python ints a block keeps alive (peak RSS)
_SEED_BLOCK = 1024


def _hash32(hc: int, mult: int):
    """SeedSequence's running hash: xor the constant, step it, multiply, fold."""
    def step(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * mult & _M32
        v = v * hc & _M32
        return v ^ v >> 16
    return step


def _pcg64_states(words: list[int], js) -> Iterator[dict]:
    """``PCG64(SeedSequence(words[:-1] + [j])).state`` for each uint32 j of ``js``.

    SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)`` run over
    all of ``js`` at once, as uint64 arrays masked to 32 bits (array products
    wrap silently); PCG64's ``srandom`` then runs on Python ints.  ``words``
    has at least the 4 words of SeedSequence's pool.
    """
    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    hashmix = _hash32(_INIT_A, _MULT_A)
    entropy = [*words[:-1], np.asarray(js, dtype=np.uint64)]
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    generate = _hash32(_INIT_B, _MULT_B)
    out = [generate(pool[i % 4]) for i in range(8)]
    # generate_state's little-endian uint64 pairs: the high and low halves of
    # PCG64's initstate, then of its initseq
    s_hi, s_lo, q_hi, q_lo = (((out[2 * i + 1] << 32) | out[2 * i]).tolist() for i in range(4))
    for a, b, c, d in zip(s_hi, s_lo, q_hi, q_lo):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        state = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def null_distribution_comparison(config: SimConfig) -> np.ndarray:
    """Simulated trigger-count distribution under independence vs the two analytical nulls.

    For each filter order, one series is generated and a GEV is fitted to its
    block maxima; then ``replicates`` independent event series are drawn and
    the trigger count tabulated at each threshold.  Returns the CMFs over
    k = 0..n_events as one array of shape (orders, thresholds, 3, n_events + 1),
    in the order of ``config.ma_orders`` and ``config.thresholds``: the
    empirical, the Bernoulli-based binomial and the GEV-based binomial CMF.
    The sup-distances of the two analytical CMFs from the empirical one,
    ``np.abs(cmfs[:, :, 1:] - cmfs[:, :, :1]).max(axis=-1)``, double as an
    adequacy diagnostic for the analytical nulls.
    """
    n = config.n_events
    ks = np.arange(n + 1)
    taus = np.asarray(config.thresholds, dtype=float)
    cmfs = np.empty((len(config.ma_orders), taus.size, 3, n + 1))
    for oi, order in enumerate(config.ma_orders):
        x = gen_ma_exponential(config.length, order, seed=(config.seed, order, 0))
        theta = fit_gev_mle(block_maxima(x, config.delta)).params
        rungs = rung_index(x, config.delta, taus)
        at_events = np.empty((config.replicates, n), dtype=np.int64)
        # replicate j draws the positions gen_independent_events(seed=(seed, order, 1, j))
        # draws, zero-based and unsorted: one Generator, set to each replicate's state
        words = _seed_words(config.seed, order, 1, 0)
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        for j0 in range(0, config.replicates, _SEED_BLOCK):
            js = np.arange(j0, min(j0 + _SEED_BLOCK, config.replicates))
            for j, state in enumerate(_pcg64_states(words, js), j0):
                bits.state = state
                at_events[j] = rungs[rng.choice(config.length, size=n, replace=False)]
        counts = count_at_rungs(at_events, taus.size)
        for ti, tau in enumerate(taus):
            p_exc = np.count_nonzero(x.values > tau) / config.length
            cmfs[oi, ti] = (
                np.searchsorted(np.sort(counts[:, ti]), ks, side="right") / config.replicates,
                binom_cdf(n, bernoulli_success_prob(p_exc, config.delta)),
                binom_cdf(n, gev_sf(float(tau), theta)))
    return cmfs


def write_comparison_csv(config: SimConfig, cmfs: np.ndarray, path) -> None:
    """Long-format CSV of ``null_distribution_comparison(config)``: one row per (k, order, tau)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "order", "tau", "empirical_cmf", "bernoulli_cmf", "gev_cmf"])
        for order, by_tau in zip(config.ma_orders, cmfs):
            for tau, cell in zip(config.thresholds, by_tau):
                for k, row in enumerate(cell.T):
                    writer.writerow([k, int(order), repr(float(tau)),
                                     *(repr(float(v)) for v in row)])
