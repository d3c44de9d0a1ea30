"""Threshold ladders, the coincidence process, and the Monte Carlo test."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peca.multi import (
    _NULL_BLOCK,
    _POSITION_DRAWS_PER_RUNG_DRAW,
    BAND_LEVEL,
    ThresholdLadder,
    _chain,
    _nll_rows,
    build_ladder_from_quantiles,
    compute_tcp,
    dp_extreme_nll,
    empirical_quantile,
    expected_process_with_band,
    mc_p_value,
    null_blocks,
    null_nll_replicates,
    steps_at_least,
    success_probabilities,
    tcp_nll,
)
from peca.nulls import GevFitError, GevParams, binom_logpmf, binom_tail, gev_sf
from peca.series import EventSeries, TimeSeries, rung_index
from shared import monotone_processes, placement_law, placement_p_value


def tcp(e, x, delta, ladder):
    return compute_tcp(e, rung_index(x, delta, ladder.thresholds), ladder.m)


# --- quantiles and ladders ----------------------------------------------------

def test_empirical_quantile_order_statistics():
    values = np.sort(np.random.default_rng(3).permutation(np.arange(1.0, 101.0)))
    assert empirical_quantile(values, 0.75) == 75.0
    assert empirical_quantile(values, 1.0) == 100.0
    assert empirical_quantile(values, 0.0) == 1.0
    assert empirical_quantile(values, 0.005) == 1.0
    # ceil boundary: 0.30 of 100 points is exactly the 30th order statistic
    assert empirical_quantile(values, 0.30) == 30.0


def sorted_order_statistic(values, p):
    """The ceil(p*T)-th smallest of ``values`` (the smallest at p = 0), from a full sort."""
    return float(np.sort(values)[min(max(1, math.ceil(p * values.size - 1e-9)), values.size) - 1])


@pytest.mark.parametrize("values", [
    np.random.default_rng(5).permutation(np.arange(1.0, 101.0)),
    np.random.default_rng(6).integers(0, 4, size=257).astype(float),
    np.full(64, 2.5),
], ids=["distinct", "tied", "constant"])
def test_partitioned_quantile_is_the_sorted_order_statistic(values):
    t = values.size
    before = values.copy()
    # the ends, levels where p*T is integral, and levels between them
    for p in [0.0, 1.0, 0.5, 0.25, 0.75, 1 / t, 3 / t, (t - 1) / t, 0.3, 0.999, 0.123, 0.001]:
        q = empirical_quantile(values, p)
        assert q == sorted_order_statistic(values, p), p
        if np.ptp(values) > 0:   # a ladder of one level picks the same order statistic
            assert build_ladder_from_quantiles(TimeSeries(values), p, p, 1).thresholds[0] == q
    assert values.tobytes() == before.tobytes()


def test_single_level_ladder():
    x = TimeSeries(np.arange(1.0, 101.0))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.5, 1)
    assert ladder.thresholds.tolist() == [50.0]
    assert ladder.levels.tolist() == [0.5]


def test_ladder_median_and_endpoints():
    x = TimeSeries(np.arange(1.0, 101.0))
    ladder = build_ladder_from_quantiles(x, 0.75, 1.0, 2)
    assert ladder.thresholds.tolist() == [75.0, 100.0]


def test_ladder_collapses_duplicate_thresholds():
    x = TimeSeries(np.concatenate([np.zeros(99), [1.0]]))
    ladder = build_ladder_from_quantiles(x, 0.0, 1.0, 11)
    # every level below the top resolves to the same threshold 0.0
    assert ladder.thresholds.tolist() == [0.0, 1.0]
    assert ladder.levels[0] == 0.0


def test_ladder_validation():
    with pytest.raises(ValueError):
        ThresholdLadder(thresholds=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ThresholdLadder(thresholds=np.array([2.0, 1.0]))
    x = TimeSeries(np.arange(10.0))
    with pytest.raises(ValueError):
        build_ladder_from_quantiles(x, 0.9, 0.1, 4)
    with pytest.raises(ValueError):
        build_ladder_from_quantiles(x, 0.0, 1.5, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: ThresholdLadder([1.0, 2.0], levels=[0.5]), "levels must match thresholds in length"),
    (lambda: tcp_nll([2, 1], 4, [0.5]), "pis must have one entry per ladder threshold"),
    (lambda: expected_process_with_band(3, []), "need at least one success probability"),
], ids=["levels-length", "pis-length", "pis-empty"])
def test_invalid_arguments_raise_their_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_success_probabilities_non_increasing_and_positive():
    theta = GevParams(0.05, 2.0, 1.0)
    x = TimeSeries(np.random.default_rng(1).exponential(size=500) + 1.0)
    ladder = build_ladder_from_quantiles(x, 0.5, 0.99, 8)
    pis = success_probabilities(ladder, theta)
    assert np.all(pis > 0.0)
    assert np.all(np.diff(pis) <= 0.0)
    for tau, pi in zip(ladder.thresholds, pis):
        assert pi <= gev_sf(tau, theta) + 1e-15


@pytest.mark.parametrize("theta, thresholds, match", [
    # thresholds beyond the upper support endpoint, 0 - 1/(-0.5) = 2, have survival zero:
    # a fault of the fit, named with the first such rung
    (GevParams(-0.5, 0.0, 1.0), [1.0, 5.0, 6.0],
     r"threshold 5\.0 \(rung 2 of 3\).*support end.* is 2\.0; .*--qhi"),
    # at the support end gev_sf's 1 + xi * ((tau - mu) / sigma) rounds to 0, where
    # 1 + xi * (tau - mu) / sigma is positive: the same off-support wording
    (GevParams(-0.7913094993573618, -0.8461417558896933, 7.102569173183813),
     [8.12957404046047], r"threshold 8\.12957404046047 \(rung 1 of 1\).*support end.* "
                         r"is 8\.12957404046047; .*--qhi"),
], ids=["beyond", "at-the-end"])
def test_success_probabilities_reject_zero_mass(theta, thresholds, match):
    with pytest.raises(GevFitError, match=match) as err:
        success_probabilities(ThresholdLadder(thresholds=np.array(thresholds)), theta)
    assert "underflows" not in str(err.value)


@pytest.mark.parametrize("shape", [0.0, 0.5])
def test_success_probabilities_name_an_underflow(shape):
    # inside an unbounded support the zero is an underflow, and no support end is named
    ladder = ThresholdLadder(thresholds=np.array([1.0, 800.0 if shape == 0.0 else 1e300]))
    with pytest.raises(GevFitError, match=r"\(rung 2 of 2\).*underflows to 0 there; .*--qhi") as err:
        success_probabilities(ladder, GevParams(shape, 0.0, 1.0))
    assert "support end" not in str(err.value)


# --- the observed process -----------------------------------------------------

def test_compute_tcp_agrees_with_single_counts():
    rng = np.random.default_rng(11)
    x = TimeSeries(rng.exponential(size=300))
    e = EventSeries(300, tuple(sorted(rng.choice(np.arange(1, 301), 20, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.1, 0.98, 13)
    counts = tcp(e, x, 5, ladder)
    assert counts.shape == (ladder.m,)
    for k, tau in zip(counts, ladder.thresholds):
        # an event at t <= T - delta counts when max(x[t..t+delta]) > tau
        want = sum(1 for t in e.occurrences if t <= 300 - 5 and max(x.values[t - 1:t + 5]) > tau)
        assert k == want
    assert np.all(np.diff(counts) <= 0)


@given(st.lists(st.integers(0, 4), max_size=2), st.integers(0, 12), st.integers(0, 6),
       st.integers(0, 2**31 - 1))
def test_steps_at_least_matches_a_loop_along_the_last_axis(lead, k, m, seed):
    # every row of any leading shape: entry i is the number of the row's rungs >= i
    rungs = np.random.default_rng(seed).integers(0, m + 1, size=(*lead, k))
    got = steps_at_least(rungs, m)
    assert got.shape == (*lead, m + 1)
    for index in np.ndindex(*lead):
        row = rungs[index].tolist()
        assert got[index].tolist() == [sum(r >= i for r in row) for i in range(m + 1)]


# the shapes a per-row bincount offset gets wrong; unsigned rungs, since an
# offset in uint8 would wrap at 1024 rows of 129 bins, and uint64 plus an
# int64 offset is float64, which bincount refuses
@pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
@pytest.mark.parametrize("shape, m", [((0,), 3), ((5, 0), 3), ((0, 7), 3), ((1024, 1000), 128)])
def test_steps_at_least_edge_shapes(shape, m, dtype):
    rungs = np.random.default_rng(7).integers(0, m + 1, size=shape, dtype=dtype)
    got = steps_at_least(rungs, m)
    assert got.shape == (*shape[:-1], m + 1)
    rows = rungs.reshape(math.prod(shape[:-1]), shape[-1])
    want = [np.count_nonzero(row[:, None] >= np.arange(m + 1), axis=0) for row in rows]
    np.testing.assert_array_equal(got.reshape(-1, m + 1), np.reshape(want, (-1, m + 1)))


def test_process_validation():
    pis = np.array([0.5, 0.25])
    with pytest.raises(ValueError):
        tcp_nll(np.array([2, 3]), 5, pis)   # increasing
    with pytest.raises(ValueError):
        tcp_nll(np.array([6, 2]), 5, pis)   # above n_events
    with pytest.raises(ValueError):
        tcp_nll(np.array([1, -1]), 5, pis)   # below zero
    with pytest.raises(ValueError):
        tcp_nll(np.array([0, 0]), -1, pis)   # negative n_events
    assert tcp_nll(np.array([0, 0]), 0, pis) == 0.0   # zero events is valid


# --- the chained-binomial likelihood -------------------------------------------

def test_nll_normalizes_exhaustively():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        for n in (1, 3, 6):
            pis = np.sort(rng.uniform(0.05, 0.95, size=m))[::-1].copy()
            total = 0.0
            for ks in monotone_processes(m, n):
                nll = tcp_nll(np.array(ks), n, pis)
                if np.isfinite(nll):
                    total += np.exp(-nll)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_nll_chain_hand_case():
    # two thresholds: Binom(k1; n, pi1) then Binom(k2; k1, pi2/pi1)
    pis = np.array([0.5, 0.25])
    want = -(binom_logpmf(3, 4, 0.5) + binom_logpmf(1, 3, 0.5))
    assert tcp_nll(np.array([3, 1]), 4, pis) == pytest.approx(float(want), abs=1e-12)


def test_nll_rejects_bad_pis():
    counts = np.array([2, 1])
    with pytest.raises(ValueError):
        tcp_nll(counts, 4, np.array([0.2, 0.5]))     # increasing
    with pytest.raises(ValueError):
        tcp_nll(counts, 4, np.array([0.5, 0.0]))     # zero mass
    with pytest.raises(ValueError):
        tcp_nll(counts, 4, np.array([1.2, 0.5]))     # above one


def test_nll_infinite_only_off_support():
    pis = np.array([0.9, 0.3])
    ok = tcp_nll(np.array([4, 2]), 4, pis)
    assert np.isfinite(ok)


def positive_zero(v):
    """True for +0.0 only: ``v == 0.0`` alone cannot tell it from -0.0, which a report writes."""
    return v == 0.0 and math.copysign(1.0, v) == 1.0


def test_nll_certain_outcome_scores_zero():
    assert positive_zero(tcp_nll(np.array([4]), 4, np.array([1.0])))
    for n, m in ((0, 1), (1, 1), (4, 3), (1000, 8)):
        assert positive_zero(tcp_nll([n] * m, n, [1.0] * m))


def test_null_replicates_of_a_certain_process_score_positive_zero():
    # every step sits on the top rung, so every replicate counts all 3 events at both rungs
    nlls = null_nll_replicates([10, 10, 10], 3, [1.0, 1.0], 5, 0)
    assert [positive_zero(v) for v in nlls.tolist()] == [True] * 5


def test_nll_tied_probabilities_force_equal_counts():
    pis = np.array([0.6, 0.6])   # ratio exactly one: the count cannot drop
    same = tcp_nll(np.array([3, 3]), 4, pis)
    drop = tcp_nll(np.array([3, 2]), 4, pis)
    assert np.isfinite(same)
    assert drop == np.inf


def test_tcp_thresholds_outside_data_range():
    x = TimeSeries(np.array([2.0, 5.0, 3.0, 7.0, 4.0, 6.0]))
    e = EventSeries(6, (1, 4, 6))
    ladder = ThresholdLadder(thresholds=np.array([0.0, 10.0]))
    # below the minimum every event with a full window scores; above the
    # maximum nothing does
    assert tcp(e, x, 1, ladder).tolist() == [2, 0]


def test_compute_tcp_validates_rungs():
    e = EventSeries(4, (1, 3))
    with pytest.raises(ValueError, match="^series lengths differ: 4 vs 3$"):
        compute_tcp(e, np.array([0, 1, 2]), 2)        # wrong grid
    with pytest.raises(ValueError):
        compute_tcp(e, np.array([0, 0, 3, 0]), 2)     # rung above m


# --- the permutation null -------------------------------------------------------

class CountingRng:
    """A Generator that counts its hypergeometric calls and records each multivariate method."""

    def __init__(self, rng):
        self.rng = rng
        self.hypergeometric_calls = 0
        self.methods = []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def hypergeometric(self, *args, **kwargs):
        self.hypergeometric_calls += 1
        return self.rng.hypergeometric(*args, **kwargs)

    def multivariate_hypergeometric(self, *args, **kwargs):
        self.methods.append(kwargs.get("method"))
        return self.rng.multivariate_hypergeometric(*args, **kwargs)


@pytest.fixture
def counting_rngs(monkeypatch):
    """Every Generator ``np.random.default_rng`` makes during the test, counting its draws."""
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        if isinstance(seed, CountingRng):   # as default_rng hands a Generator back unaltered
            return seed
        made.append(CountingRng(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    return made


def null_counts(at_least, n, r, rng):
    """Every block of ``null_blocks``, drawn from ``rng`` and stacked: r rows of counts."""
    return np.concatenate(list(null_blocks(at_least, n, r, rng)))


def test_null_blocks_take_positions_while_they_are_fewer_draws(counting_rngs):
    # two random rungs (0 < A_i < A_{i-1} at rungs 1 and 3)
    sizes = (20, 0, 15, 0, 0, 10, 0)
    m = len(sizes) - 1
    rungs = np.repeat(np.arange(m + 1), sizes)
    most = _POSITION_DRAWS_PER_RUNG_DRAW * 2
    for n, method in ((most, "count"), (most + 1, "marginals")):
        counts = null_counts(steps_at_least(rungs, m), n, 300, np.random.default_rng(3))
        assert counting_rngs[-1].methods == [method]
        # a certain rung repeats the count below it, and an empty one is 0
        np.testing.assert_array_equal(counts[:, 1], counts[:, 0])
        np.testing.assert_array_equal(counts[:, 3], counts[:, 2])
        np.testing.assert_array_equal(counts[:, 4], counts[:, 2])
        np.testing.assert_array_equal(counts[:, 5], 0)
        assert counts.shape == (300, m) and counts.max() <= n
    # every step on one rung: no count is random, under either method
    for n, method in ((0, "count"), (6, "marginals")):
        counts = null_counts(steps_at_least(np.full(10, 2), 4), n, 30, np.random.default_rng(3))
        np.testing.assert_array_equal(counts, [[n, n, 0, 0]] * 30)
        assert counting_rngs[-1].methods == [method]
    assert all(rng.hypergeometric_calls == 0 for rng in counting_rngs)


# Steps per rung from rung 0 up, with an empty middle and top rung.  On (3, 0, 5, 4, 0) rungs
# 1 and 3 are random: NumPy's "count" method places up to 8 events, "marginals" more, and both
# draw the complement above 6 of the 12 steps.  On (4, 0, 8, 0) rung 1 alone is random, so
# "marginals" draws 5 events.  No events, or one on every step, leave a law of one point
@pytest.mark.parametrize("sizes, n, method", [
    ((3, 0, 5, 4, 0), 4, "count"), ((3, 0, 5, 4, 0), 8, "count"),
    ((3, 0, 5, 4, 0), 10, "marginals"), ((4, 0, 8, 0), 5, "marginals"),
    ((3, 0, 5, 4, 0), 0, "count"), ((2, 2), 4, "count"), ((3, 0, 5, 4, 0), 12, "marginals"),
], ids=["count", "count-complement", "marginals-complement", "marginals",
        "no-events", "every-step-count", "every-step-marginals"])
def test_null_blocks_follow_the_exact_placement_law(counting_rngs, sizes, n, method):
    m = len(sizes) - 1
    rungs = np.repeat(np.arange(m + 1), sizes)
    drawn = null_counts(steps_at_least(rungs, m), n, 20000, np.random.default_rng(8))
    assert counting_rngs[-1].methods == [method] * math.ceil(20000 / _NULL_BLOCK)
    assert placement_p_value(drawn, placement_law(rungs, n, m)) > 1e-3


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 6))
def test_steps_at_least_match_window_count(seed, delta, m):
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=int(rng.integers(delta + 2, 80)))
    thresholds = np.sort(rng.choice(values, size=min(m, values.size), replace=False))
    got = steps_at_least(rung_index(TimeSeries(values), delta, thresholds), thresholds.size)
    # brute force: steps whose full window t..t+delta holds a strict exceedance
    t = values.size
    want = [t] + [sum(values[s:s + delta + 1].max() > tau for s in range(t - delta))
                  for tau in thresholds]
    np.testing.assert_array_equal(got, want)
    assert np.all(np.diff(got) <= 0)


def test_steps_at_least_validation():
    with pytest.raises(ValueError):
        steps_at_least(np.array([0, 3, 1]), 2)
    for rows in ([[0, 3]], [[0, 1], [-1, 2]]):   # a rung above m, or below 0, in a batch
        with pytest.raises(ValueError, match=r"rungs must lie in \[0, 2\]"):
            steps_at_least(np.array(rows), 2)


def test_null_draw_refuses_steps_that_do_not_fit_the_ladder():
    rungs = np.array([2, 0, 1, 2, 2, 0, 1, 0])
    pis = [0.5, 0.3]
    at_least = steps_at_least(rungs, 2)
    assert null_nll_replicates(at_least, 3, pis, 5, seed=0).shape == (5,)
    # a ladder of m rungs needs m + 1 entries; one more would be scored on its first m
    for wrong in (at_least[:-1], steps_at_least(rungs, 3)):
        with pytest.raises(ValueError, match="one entry more than pis"):
            null_nll_replicates(wrong, 3, pis, 5, seed=0)
    # the steps at rung >= i cannot grow with i
    with pytest.raises(ValueError, match="non-increasing"):
        null_nll_replicates(np.array([8, 3, 5]), 3, pis, 5, seed=0)


def test_one_null_draw_scores_several_event_sets():
    rng = np.random.default_rng(12)
    x = TimeSeries(rng.exponential(size=300))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.95, 5)
    pis = success_probabilities(ladder, GevParams(0.0, 1.5, 1.0))
    rungs = rung_index(x, 3, ladder.thresholds)
    nulls = null_nll_replicates(steps_at_least(rungs, ladder.m), 10, pis, r=199, seed=1)
    for _ in range(3):
        e = EventSeries(300, tuple(sorted(rng.choice(np.arange(1, 301), 10, replace=False))))
        statistic = tcp_nll(compute_tcp(e, rungs, ladder.m), 10, pis)
        assert mc_p_value(statistic, nulls) == (1 + np.count_nonzero(nulls >= statistic)) / 200
    with pytest.raises(ValueError):
        mc_p_value(statistic, np.array([]))


def test_null_blocks_edge_cases():
    rungs = np.array([2, 0, 1, 2, 2, 0, 1, 0])
    # no events: every count is zero, and so is every NLL
    at_least = steps_at_least(rungs, 3)
    np.testing.assert_array_equal(null_counts(at_least, 0, 5, np.random.default_rng(0)), 0)
    np.testing.assert_array_equal(null_nll_replicates(at_least, 0, [0.5, 0.3, 0.1], 5, seed=0),
                                  0.0)
    # rung 3 has no step, so its count is always zero
    counts = null_counts(at_least, 4, 200, np.random.default_rng(1))
    np.testing.assert_array_equal(counts[:, 2], 0)
    assert counts[:, 0].max() <= 5 and counts[:, 1].max() <= 3
    # every step drawn: four sit at the top rung, the late one at rung 0
    full = null_counts(steps_at_least(np.array([3, 3, 3, 3, 0]), 3), 5, 20,
                       np.random.default_rng(2))
    np.testing.assert_array_equal(full, [[4, 4, 4]] * 20)
    # a ladder of no rungs: every block is r rows of no count
    assert [b.shape for b in null_blocks([8], 3, 5, seed=0)] == [(5, 0)]
    # bad input raises on the call, before any block is asked for
    for args, message in (((at_least, 9, 5), "cannot place 9 events on 8 steps"),
                          (([8, 3, 5], 3, 5), "non-increasing"),
                          (((), 0, 5), "non-increasing"),
                          ((at_least, -1, 5), "n_events must be non-negative"),
                          ((at_least, 2, 0), "replicate count must be at least 1"),
                          ((at_least, 2, 2.5), "replicate count must be integer-valued")):
        with pytest.raises(ValueError, match=message):
            null_blocks(*args, seed=0)
    with pytest.raises(ValueError):
        steps_at_least(rungs, 1)                                 # rung above m
    with pytest.raises(ValueError):
        null_nll_replicates(at_least, 2, [0.5, 0.3, 0.1], 0, seed=0)


def test_events_only_in_final_window():
    rng = np.random.default_rng(6)
    x = TimeSeries(rng.exponential(size=100))
    e = EventSeries(100, (97, 99, 100))
    ladder = build_ladder_from_quantiles(x, 0.3, 0.9, 4)
    rungs = rung_index(x, 5, ladder.thresholds)
    counts = compute_tcp(e, rungs, ladder.m)
    assert counts.tolist() == [0, 0, 0, 0]
    pis = success_probabilities(ladder, GevParams(0.0, 1.0, 1.0))
    nulls = null_nll_replicates(steps_at_least(rungs, ladder.m), 3, pis, r=99, seed=4)
    p_hat = mc_p_value(tcp_nll(counts, 3, pis), nulls)
    assert 0.0 < p_hat <= 1.0


def test_full_occupancy_is_fixed_point():
    x = TimeSeries(np.random.default_rng(8).exponential(size=40))
    e = EventSeries(40, tuple(range(1, 41)))
    ladder = build_ladder_from_quantiles(x, 0.2, 0.9, 5)
    pis = success_probabilities(ladder, GevParams(0.0, np.median(x.values), 1.0))
    rungs = rung_index(x, 2, ladder.thresholds)
    statistic = tcp_nll(compute_tcp(e, rungs, ladder.m), 40, pis)
    # permuting all positions returns the same series, so every replicate ties
    nulls = null_nll_replicates(steps_at_least(rungs, ladder.m), 40, pis, r=50, seed=9)
    assert mc_p_value(statistic, nulls) == 1.0


def test_replicates_deterministic():
    rng = np.random.default_rng(21)
    x = TimeSeries(rng.exponential(size=400))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.99, 9)
    pis = success_probabilities(ladder, GevParams(0.05, 1.0, 0.8))
    at_least = steps_at_least(rung_index(x, 4, ladder.thresholds), ladder.m)
    a = null_nll_replicates(at_least, 25, pis, r=64, seed=5)
    b = null_nll_replicates(at_least, 25, pis, r=64, seed=5)
    c = null_nll_replicates(at_least, 25, pis, r=64, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# 60 steps, three random rungs: 13 events take NumPy's "marginals" method, 6 its
# "count" method
BLOCK_RUNGS = np.random.default_rng(17).permutation(
    np.repeat(np.arange(5), (20, 15, 15, 10, 0)))
BLOCK_PIS = np.array([0.6, 0.4, 0.2, 0.1])


def running_counts(placed):
    """Counts at rung >= 1..4 of NumPy's events per rung, rung 4 down to 0."""
    return np.cumsum(placed, axis=1)[:, 3::-1]


def drawn_nlls(placed, n):
    """NLLs of NumPy's events per rung, rung 4 down to 0, as ``null_blocks`` reads them."""
    return _nll_rows(running_counts(placed), n, _chain(BLOCK_PIS))


@pytest.mark.parametrize("r", [1, _NULL_BLOCK - 1, _NULL_BLOCK, _NULL_BLOCK + 1,
                               2 * _NULL_BLOCK + 1])
@pytest.mark.parametrize("n, method", [(6, "count"), (13, "marginals")],
                         ids=["count", "marginals"])
def test_null_blocks_split_one_stream(counting_rngs, r, n, method):
    at_least = steps_at_least(BLOCK_RUNGS, 4)
    colors = -np.diff(at_least, append=0)[::-1]
    blocks = null_blocks(at_least, n, r, seed=7)
    assert counting_rngs[0].methods == []          # the call sets up; drawing waits for next()
    blocks = list(blocks)
    # ceil(r / _NULL_BLOCK) blocks of four counts, each full but the last
    assert len(blocks) == math.ceil(r / _NULL_BLOCK)
    assert [b.shape for b in blocks[:-1]] == [(_NULL_BLOCK, 4)] * (len(blocks) - 1)
    assert blocks[-1].shape == (r - _NULL_BLOCK * (len(blocks) - 1), 4)
    assert counting_rngs[0].methods == [method] * len(blocks)
    # the running sums of one Generator's per-block draws
    rng = np.random.default_rng(7)
    for block in blocks:
        np.testing.assert_array_equal(block, running_counts(rng.multivariate_hypergeometric(
            colors, n, size=len(block), method=method)))
    # "marginals" reads the stream alike in blocks and in one call of all r rows
    if method == "marginals":
        one_call = np.random.default_rng(7).multivariate_hypergeometric(colors, n, size=r,
                                                                        method=method)
        np.testing.assert_array_equal(np.concatenate(blocks), running_counts(one_call))


@pytest.mark.parametrize("r", [_NULL_BLOCK - 1, _NULL_BLOCK, _NULL_BLOCK + 1, 2 * _NULL_BLOCK + 1])
def test_blocked_null_draws_one_stream(r):
    at_least = steps_at_least(BLOCK_RUNGS, 4)
    colors = -np.diff(at_least, append=0)[::-1]
    # "marginals" reads the stream alike in blocks and in one call: every NLL
    # is the one that a single draw of all r replicates gives
    one_call = np.random.default_rng(7).multivariate_hypergeometric(colors, 13, size=r,
                                                                    method="marginals")
    np.testing.assert_array_equal(null_nll_replicates(at_least, 13, BLOCK_PIS, r, seed=7),
                                  drawn_nlls(one_call, 13))
    # "count" restarts its state in every call: the NLLs are the per-block
    # draws of one Generator, and the seed reproduces them
    rng = np.random.default_rng(7)
    blocks = [rng.multivariate_hypergeometric(colors, 6, size=min(_NULL_BLOCK, r - start),
                                              method="count")
              for start in range(0, r, _NULL_BLOCK)]
    nlls = null_nll_replicates(at_least, 6, BLOCK_PIS, r, seed=7)
    np.testing.assert_array_equal(nlls, drawn_nlls(np.concatenate(blocks), 6))
    np.testing.assert_array_equal(nlls, null_nll_replicates(at_least, 6, BLOCK_PIS, r, seed=7))


@pytest.mark.parametrize("n", [20, 200], ids=["count", "marginals"])
def test_null_memory_grows_by_one_float_per_replicate(n):
    m = 32
    at_least = steps_at_least(np.random.default_rng(5).integers(0, m + 1, size=4096), m)
    pis = np.linspace(0.9, 0.05, m)

    def peak(r):
        tracemalloc.start()
        try:
            null_nll_replicates(at_least, n, pis, r, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)   # the log-factorial table is cached on first use
    small, large = 4096, 40960
    growth = (peak(large) - peak(small)) / (large - small)
    # the NLL vector's 8 bytes, not an (r, m + 1) count matrix's 8 * (m + 1) = 264;
    # below 16, what even a ladder of one rung would add per replicate
    assert 8.0 <= growth < 16.0
    # one block of counts at a time: a second block adds its NLLs, 8 bytes a replicate,
    # and is drawn after the first is dropped, not beside it
    assert peak(2 * _NULL_BLOCK) - peak(_NULL_BLOCK) < 16 * _NULL_BLOCK


def test_mc_pvalue_counting_rule():
    rng = np.random.default_rng(2)
    x = TimeSeries(rng.exponential(size=200))
    e = EventSeries(200, tuple(sorted(rng.choice(np.arange(1, 201), 12, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.4, 0.95, 6)
    pis = success_probabilities(ladder, GevParams(0.1, 1.0, 1.0))
    rungs = rung_index(x, 3, ladder.thresholds)
    statistic = tcp_nll(compute_tcp(e, rungs, ladder.m), 12, pis)
    nulls = null_nll_replicates(steps_at_least(rungs, ladder.m), 12, pis, r=99, seed=3)
    ge = int(np.count_nonzero(nulls >= statistic))
    assert mc_p_value(statistic, nulls) == (1 + ge) / (99 + 1)
    # a tie counts against the alternative; an observation above every replicate gets 1/(r+1)
    assert mc_p_value(float(nulls.max()), nulls) == (1 + np.count_nonzero(nulls == nulls.max())) / 100
    assert mc_p_value(np.inf, nulls) == 1 / 100


# --- expectation band and DP extremes -------------------------------------------

def test_expected_band_exact_quantiles():
    from scipy.stats import binom
    # near one, in the middle, and near zero; non-increasing as a ladder needs
    pis = np.array([1 - 1e-12, 1 - 1e-6, 0.999, 0.95, 0.6, 0.5, 0.2, 0.05,
                    1e-3, 1e-6, 1e-12])
    for n in (0, 1, 17, 32, 1000):
        lower, upper = expected_process_with_band(n, pis)
        np.testing.assert_array_equal(lower, binom.ppf((1 - BAND_LEVEL) / 2, n, pis))
        np.testing.assert_array_equal(upper, binom.ppf((1 + BAND_LEVEL) / 2, n, pis))


def test_expected_band_degenerate_pi():
    # a certain rung's distribution function is [0, ..., 0, 1]: both quantiles are n
    for n in (0, 1, 2, 10, 17, 1000, 2048):
        lower, upper = expected_process_with_band(n, np.array([1.0, 1.0, 0.5]))
        assert (lower[:2].tolist(), upper[:2].tolist()) == ([n, n], [n, n])


def test_expected_band_validation():
    with pytest.raises(ValueError):
        expected_process_with_band(-1, np.array([0.5]))


def test_dp_extremes_equal_brute_force():
    rng = np.random.default_rng(5)
    drawn = []
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        drawn.append((n, np.sort(rng.uniform(0.05, 0.95, size=m))[::-1].copy()))
    # a certain rung and tied rungs (chain ratio 1) allow only some processes
    fixed = [(n, pis) for pis in ([1.0, 0.5], [0.6, 0.6, 0.3], [1.0, 1.0, 0.5])
             for n in (0, 1, 3, 6)]
    for n, pis in drawn + fixed:
        m = len(pis)
        nlls = []
        for ks in monotone_processes(m, n):
            v = tcp_nll(np.array(ks), n, pis)
            if np.isfinite(v):
                nlls.append((v, ks))
        lo, proc_lo = dp_extreme_nll(n, pis, "min")
        hi, proc_hi = dp_extreme_nll(n, pis, "max")
        assert lo == min(v for v, _ in nlls)
        assert hi == max(v for v, _ in nlls)
        # the returned witnesses must attain their own statistic
        assert tcp_nll(proc_lo, n, pis) == lo
        assert tcp_nll(proc_hi, n, pis) == hi


def test_dp_extremes_of_certain_processes_are_positive_zero():
    for pis in ([0.5], [1.0, 1.0], [0.9, 0.3, 0.1]):   # no events: one process, in both directions
        for direction in ("min", "max"):
            statistic, counts = dp_extreme_nll(0, pis, direction)
            assert positive_zero(statistic)
            assert counts.tolist() == [0] * len(pis)
    for direction in ("min", "max"):   # every rung certain: one process of positive likelihood
        statistic, counts = dp_extreme_nll(5, [1.0, 1.0, 1.0], direction)
        assert positive_zero(statistic)
        assert counts.tolist() == [5, 5, 5]


def test_dp_direction_validation():
    with pytest.raises(ValueError):
        dp_extreme_nll(5, np.array([0.5]), "down")


@given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_dp_brackets_random_feasible_processes(n, m, seed):
    rng = np.random.default_rng(seed)
    pis = np.sort(rng.uniform(0.02, 0.98, size=m))[::-1].copy()
    lo, _ = dp_extreme_nll(n, pis, "min")
    hi, _ = dp_extreme_nll(n, pis, "max")
    ks = np.minimum.accumulate(rng.integers(0, n + 1, size=m))
    v = tcp_nll(ks, n, pis)
    if np.isfinite(v):
        assert lo - 1e-9 <= v <= hi + 1e-9


def test_pointwise_along_ladder_matches_direct():
    # each rung's test is the single-threshold test at that rung's threshold
    rng = np.random.default_rng(31)
    x = TimeSeries(rng.exponential(size=600))
    e = EventSeries(600, tuple(sorted(rng.choice(np.arange(1, 601), 24, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.98, 7)
    theta = GevParams(0.02, 1.2, 0.9)
    counts = tcp(e, x, 6, ladder)
    pis = success_probabilities(ladder, theta)
    for k, pi, tau in zip(counts, pis, ladder.thresholds):
        k_direct = int(compute_tcp(e, rung_index(x, 6, [float(tau)]), 1)[0])
        pi_direct = gev_sf(tau, theta)
        assert k == k_direct
        assert pi == pytest.approx(pi_direct, abs=1e-15)
        assert binom_tail(int(k), e.n_events, float(pi)) == pytest.approx(
            binom_tail(k_direct, e.n_events, pi_direct), abs=1e-15)
