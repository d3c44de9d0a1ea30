"""Synthetic data generators and the empirical-vs-analytical null comparison.

The generators build standardized smoothed-noise series (the
``series.trailing_mean`` of exponential draws) plus independent or planted
event series; the comparison harness tabulates how well the Bernoulli-based
and GEV-based binomial nulls match the simulated distribution of the
trigger count as serial dependence grows.  Every generator takes a
``seed`` that ``numpy.random.default_rng`` accepts; the studies pass
``(root seed, *path)`` tuples, one named stream per draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .multi import ThresholdLadder, steps_at_least
from .nulls import bernoulli_success_prob, binom_cdf, block_maxima, fit_gev_mle, gev_sf
from .series import EventSeries, TimeSeries, rung_index, trailing_mean

__all__ = [
    "SimConfig",
    "gen_ma_exponential",
    "gen_independent_events",
    "gen_dependent_events",
    "null_distribution_comparison",
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
        ThresholdLadder(self.thresholds)   # non-empty, finite, strictly increasing
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def gen_ma_exponential(t: int, order: int, seed) -> TimeSeries:
    """Standardized smoothed exponential noise, shifted so the minimum is exactly 0.

    ``order`` 0 (or 1) keeps the raw iid unit-exponential draws; larger
    orders take their ``series.trailing_mean`` over that window size, which
    dials in serial dependence.  The filtered series is standardized to zero
    sample mean and unit sample variance before the shift.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if t <= order:
        raise ValueError("series length must exceed the filter order")
    y = np.random.default_rng(seed).exponential(1.0, size=t)
    if order > 1:
        # at window 1 the kernel's cs[t] - cs[t-1] is not the draw bit for bit
        y = trailing_mean(y, order)
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
    the words ``_pcg64_seeded`` hashes into the same PCG64 states.
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
# the same as uint64 words, so that NumPy 1.x's value-based casting and NEP 50
# give the lane arithmetic one dtype; array products wrap mod 2**64 silently
_U32, _U58, _U63, _U64 = (np.uint64(v) for v in (32, 58, 63, 64))
_LOW = np.uint64(_M32)
_MUL_HI, _MUL_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_MUL_LO_HI, _MUL_LO_LO = _MUL_LO >> _U32, _MUL_LO & _LOW
# replicates drawn per block: bounds the NumPy temporaries a block keeps alive (peak RSS)
_SEED_BLOCK = 1024
# the most events a block emulates: its cost grows with n faster than Generator.choice's,
# whose per-call overhead it saves.  Per block of 1024 at length 4096 (2 cores, best of
# 21 and of 7 runs), 12.0-14.6 against 21.5-22.2 ms at n = 128 and 22.1-24.3 against
# 20.7-24.0 ms at n = 192: the crossover lies between them
_LANE_MAX_EVENTS = 128


def _hash32(hc: int, mult: int):
    """SeedSequence's running hash: xor the constant, step it, multiply, fold."""
    def step(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * mult & _M32
        v = v * hc & _M32
        return v ^ v >> 16
    return step


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step ``state * _PCG_MULT + inc`` mod 2**128, on (high, low) uint64 arrays.

    The wrapped array products give every term but the high word of
    ``lo * _MUL_LO``, which comes from the products of 32-bit halves.
    """
    lo_hi, lo_lo = lo >> _U32, lo & _LOW
    ll = lo_lo * _MUL_LO_LO
    mid = lo_hi * _MUL_LO_LO + (ll >> _U32)
    mid2 = lo_lo * _MUL_LO_HI + (mid & _LOW)
    new_lo = lo * _MUL_LO + inc_lo
    new_hi = (lo_hi * _MUL_LO_HI + (mid >> _U32) + (mid2 >> _U32)
              + hi * _MUL_LO + lo * _MUL_HI + inc_hi + (new_lo < inc_lo))
    return new_hi, new_lo


def _pcg64_seeded(words: list[int], js) -> tuple[np.ndarray, ...]:
    """``PCG64(SeedSequence(words[:-1] + [j]))``'s (state, inc) for each uint32 j of ``js``.

    Returns the uint64 arrays (state high, state low, inc high, inc low).
    SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)`` run over
    all of ``js`` at once, as uint64 arrays masked to 32 bits, and so does
    PCG64's ``srandom``.  ``words`` has at least the 4 words of
    SeedSequence's pool.
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
    s_hi, s_lo, q_hi, q_lo = ((out[2 * i + 1] << _U32) | out[2 * i] for i in range(4))
    # srandom: inc = initseq << 1 | 1, state = (inc + initstate) * mult + inc
    inc_hi, inc_lo = q_hi << np.uint64(1) | q_lo >> _U63, q_lo << np.uint64(1) | np.uint64(1)
    lo = inc_lo + s_lo
    return (*_pcg64_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_states(words: list[int], js) -> Iterator[dict]:
    """``PCG64(SeedSequence(words[:-1] + [j])).state`` for each uint32 j of ``js``."""
    s_hi, s_lo, i_hi, i_lo = (a.tolist() for a in _pcg64_seeded(words, js))
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        yield {"bit_generator": "PCG64", "state": {"state": a << 64 | b, "inc": c << 64 | d},
               "has_uint32": 0, "uinteger": 0}


def _pcg64_raw(words: list[int], js, k: int) -> np.ndarray:
    """``PCG64(SeedSequence(words[:-1] + [j])).random_raw(k)``, one column per j of ``js``.

    Each word steps the state, then outputs it by XSL-RR: the xor of its
    halves, rotated right by its top 6 bits.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_seeded(words, js)
    raw = np.empty((k, lo.size), dtype=np.uint64)
    for row in raw:
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58
        row[:] = x >> rot | x << ((_U64 - rot) & _U63)
    return raw


def _numpy_choice(words: list[int], js, length: int, n: int) -> np.ndarray:
    """``default_rng(words[:-1] + [j]).choice(length, n, replace=False)``, one row per j of ``js``.

    One Generator, set to each replicate's state in turn.
    """
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    rows = np.empty((len(js), n), dtype=np.int64)
    for row, state in zip(rows, _pcg64_states(words, js)):
        bits.state = state
        row[:] = rng.choice(length, size=n, replace=False)
    return rows


def _lane_choice(words: list[int], js, length: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets of ``_numpy_choice``'s rows, drawn for all of ``js`` at once, and which are exact.

    Reproduces the positions ``Generator.choice``'s Floyd branch picks from
    the raw words: a fresh PCG64 yields each word's low half, then its high
    half, as uint32 draws.  Floyd draws with inclusive bounds length-n ..
    length-1, each by Lemire's ``(u * (b + 1)) >> 32``, and a value already
    picked becomes the bound.  The Fisher-Yates shuffle NumPy then applies
    only reorders the picks, so each row holds the right set in Floyd's
    order.  Rows where a draw is rejected (Lemire's ``leftover < (2**32 - b
    - 1) % (b + 1)``), every row outside the branch (n == length, whose zero
    bound takes no draw; NumPy's tail shuffle; length >= 2**32), and every
    row past ``_LANE_MAX_EVENTS``, where emulating is slower, are not exact.
    """
    if (n == length or n > _LANE_MAX_EVENTS or length >= 1 << 32
            or (length > 10000 and n > length // 50)):
        return np.empty((len(js), n), dtype=np.int64), np.zeros(len(js), dtype=bool)
    if n == 0:
        return np.empty((len(js), 0), dtype=np.int64), np.ones(len(js), dtype=bool)
    raw = _pcg64_raw(words, js, (n + 1) // 2)
    # the n uint32 draws, low half then high half of each word, scaled in
    # place: fresh (n, block) temporaries cost more than the arithmetic
    m = np.empty((2 * raw.shape[0], raw.shape[1]), dtype=np.uint64)
    np.bitwise_and(raw, _LOW, out=m[0::2])
    np.right_shift(raw, _U32, out=m[1::2])
    m = m[:n]
    span = np.arange(length - n + 1, length + 1, dtype=np.uint64)
    m *= span[:, None]
    exact = ~np.any((m & _LOW) < ((np.uint64(1 << 32) - span) % span)[:, None], axis=0)
    m >>= _U32
    pos = m.view(np.int64)   # one column per replicate
    for k in range(1, n):
        pos[k, (pos[:k] == pos[k]).any(axis=0)] = length - n + k
    return pos.T, exact


def _replicate_positions(words: list[int], replicates: int, length: int,
                         n: int) -> Iterator[tuple[int, np.ndarray]]:
    """``_numpy_choice``'s row sets for js 0 .. replicates-1, as (first j, rows) per ``_SEED_BLOCK``.

    ``_lane_choice`` draws each block, and ``_numpy_choice`` redraws its
    inexact rows.  A row's order is not NumPy's, only its set of positions.
    NumPy's policy fixes PCG64 and SeedSequence but not ``choice``: the set
    of the first exact row is checked against ``_numpy_choice``'s, and on a
    mismatch every row is redrawn by it.
    """
    trusted = None   # until the first exact row is checked
    for j0 in range(0, replicates, _SEED_BLOCK):
        js = np.arange(j0, min(j0 + _SEED_BLOCK, replicates))
        rows, exact = _lane_choice(words, js, length, n)
        if trusted is None and exact.any():
            i = int(np.argmax(exact))
            trusted = np.array_equal(np.sort(rows[i]),
                                     np.sort(_numpy_choice(words, js[i:i + 1], length, n)[0]))
        redo = np.flatnonzero(~exact | (trusted is False))
        if redo.size:
            rows[redo] = _numpy_choice(words, js[redo], length, n)
        yield j0, rows


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
    counts = np.empty((config.replicates, taus.size), dtype=np.int64)
    for oi, order in enumerate(config.ma_orders):
        x = gen_ma_exponential(config.length, order, seed=(config.seed, order, 0))
        theta = fit_gev_mle(block_maxima(x, config.delta)).params
        rungs = rung_index(x, config.delta, taus)
        # replicate j draws the set of positions gen_independent_events(seed=(seed, order, 1, j))
        # draws, zero-based and in no set order: the counts do not read it
        words = _seed_words(config.seed, order, 1, 0)
        for j0, rows in _replicate_positions(words, config.replicates, config.length, n):
            counts[j0:j0 + len(rows)] = steps_at_least(rungs[rows], taus.size)[:, 1:]
        for ti, tau in enumerate(taus):
            p_exc = np.count_nonzero(x.values > tau) / config.length
            cmfs[oi, ti] = (
                np.searchsorted(np.sort(counts[:, ti]), ks, side="right") / config.replicates,
                binom_cdf(n, bernoulli_success_prob(p_exc, config.delta)),
                binom_cdf(n, gev_sf(float(tau), theta)))
    return cmfs
