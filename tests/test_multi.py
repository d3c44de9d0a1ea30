"""Threshold ladders, the coincidence process, and the Monte Carlo test."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency, hypergeom

from peca.multi import (
    MultiTestResult,
    ThresholdLadder,
    TriggerCoincidenceProcess,
    _null_counts,
    build_ladder_from_quantiles,
    compute_tcp,
    dp_extreme_nll,
    empirical_quantile,
    expected_process_with_band,
    mc_multi_threshold_test,
    null_nll_replicates,
    permutation_success_probabilities,
    success_probabilities,
    tcp_nll,
)
from peca.nulls import GevParams, binom_logpmf, binom_tail, gev_sf
from peca.series import EventSeries, TimeSeries, rung_index


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
    assert ladder.n_collapsed == 9
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


def test_success_probabilities_non_increasing_and_positive():
    theta = GevParams(0.05, 2.0, 1.0)
    x = TimeSeries(np.random.default_rng(1).exponential(size=500) + 1.0)
    ladder = build_ladder_from_quantiles(x, 0.5, 0.99, 8)
    pis = success_probabilities(ladder, theta)
    assert np.all(pis > 0.0)
    assert np.all(np.diff(pis) <= 0.0)
    for tau, pi in zip(ladder.thresholds, pis):
        assert pi <= gev_sf(float(tau), theta) + 1e-15


def test_success_probabilities_reject_zero_mass():
    # thresholds beyond the upper support endpoint have survival zero
    theta = GevParams(-0.5, 0.0, 1.0)
    ladder = ThresholdLadder(thresholds=np.array([1.0, 5.0]))
    with pytest.raises(ValueError):
        success_probabilities(ladder, theta)


# --- the observed process -----------------------------------------------------

def test_compute_tcp_agrees_with_single_counts():
    rng = np.random.default_rng(11)
    x = TimeSeries(rng.exponential(size=300))
    e = EventSeries(300, tuple(sorted(rng.choice(np.arange(1, 301), 20, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.1, 0.98, 13)
    proc = tcp(e, x, 5, ladder)
    for k, tau in zip(proc.counts, ladder.thresholds):
        # an event at t <= T - delta counts when max(x[t..t+delta]) > tau
        want = sum(1 for t in e.occurrences if t <= 300 - 5 and max(x.values[t - 1:t + 5]) > tau)
        assert k == want
    assert np.all(np.diff(proc.counts) <= 0)


def test_process_validation():
    with pytest.raises(ValueError):
        TriggerCoincidenceProcess(np.array([2, 3]), 5)   # increasing
    with pytest.raises(ValueError):
        TriggerCoincidenceProcess(np.array([6, 2]), 5)   # above n_events
    assert TriggerCoincidenceProcess(np.array([0, 0]), 0).m == 2   # zero events is valid


# --- the chained-binomial likelihood -------------------------------------------

def iter_monotone_processes(m, n):
    for ks in itertools.product(range(n + 1), repeat=m):
        if all(ks[i] >= ks[i + 1] for i in range(m - 1)):
            yield ks


def test_nll_normalizes_exhaustively():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        for n in (1, 3, 6):
            pis = np.sort(rng.uniform(0.05, 0.95, size=m))[::-1].copy()
            total = 0.0
            for ks in iter_monotone_processes(m, n):
                nll = tcp_nll(TriggerCoincidenceProcess(np.array(ks), n), pis)
                if np.isfinite(nll):
                    total += np.exp(-nll)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_nll_chain_hand_case():
    # two thresholds: Binom(k1; n, pi1) then Binom(k2; k1, pi2/pi1)
    pis = np.array([0.5, 0.25])
    proc = TriggerCoincidenceProcess(np.array([3, 1]), 4)
    want = -(binom_logpmf(3, 4, 0.5) + binom_logpmf(1, 3, 0.5))
    assert tcp_nll(proc, pis) == pytest.approx(float(want), abs=1e-12)


def test_nll_rejects_bad_pis():
    proc = TriggerCoincidenceProcess(np.array([2, 1]), 4)
    with pytest.raises(ValueError):
        tcp_nll(proc, np.array([0.2, 0.5]))     # increasing
    with pytest.raises(ValueError):
        tcp_nll(proc, np.array([0.5, 0.0]))     # zero mass
    with pytest.raises(ValueError):
        tcp_nll(proc, np.array([1.2, 0.5]))     # above one


def test_nll_infinite_only_off_support():
    pis = np.array([0.9, 0.3])
    ok = tcp_nll(TriggerCoincidenceProcess(np.array([4, 2]), 4), pis)
    assert np.isfinite(ok)


def test_nll_certain_outcome_scores_zero():
    assert tcp_nll(TriggerCoincidenceProcess(np.array([4]), 4), np.array([1.0])) == 0.0


def test_nll_tied_probabilities_force_equal_counts():
    pis = np.array([0.6, 0.6])   # ratio exactly one: the count cannot drop
    same = tcp_nll(TriggerCoincidenceProcess(np.array([3, 3]), 4), pis)
    drop = tcp_nll(TriggerCoincidenceProcess(np.array([3, 2]), 4), pis)
    assert np.isfinite(same)
    assert drop == np.inf


def test_tcp_thresholds_outside_data_range():
    x = TimeSeries(np.array([2.0, 5.0, 3.0, 7.0, 4.0, 6.0]))
    e = EventSeries(6, (1, 4, 6))
    ladder = ThresholdLadder(thresholds=np.array([0.0, 10.0]))
    # below the minimum every event with a full window scores; above the
    # maximum nothing does
    assert tcp(e, x, 1, ladder).counts.tolist() == [2, 0]


def test_compute_tcp_validates_rungs():
    e = EventSeries(4, (1, 3))
    with pytest.raises(ValueError):
        compute_tcp(e, np.array([0, 1, 2]), 2)        # wrong grid
    with pytest.raises(ValueError):
        compute_tcp(e, np.array([0, 0, 3, 0]), 2)     # rung above m


# --- the permutation null -------------------------------------------------------

def permute_occurrences(length, n, rng):
    """Reference placement: n distinct steps drawn uniformly from 1..length."""
    occ = rng.choice(length, size=n, replace=False)
    occ.sort()
    return occ + 1


def permutation_counts(rungs, n, m, r, rng):
    """Reference sampler: place the events one replicate at a time, count over the rungs."""
    return np.array([compute_tcp(EventSeries(rungs.size, permute_occurrences(rungs.size, n, rng)),
                                 rungs, m).counts for _ in range(r)])


def test_permute_preserves_count_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(100):
        occ = permute_occurrences(50, 3, rng)
        assert occ.size == 3
        assert np.all(np.diff(occ) > 0)
        assert 1 <= occ[0] and occ[-1] <= 50


def test_permute_occupancy_uniform():
    freq = np.zeros(12)
    rng = np.random.default_rng(123)
    draws = 10000
    for _ in range(draws):
        freq[permute_occurrences(12, 4, rng) - 1] += 1
    expect = draws * 4 / 12
    sd = np.sqrt(draws * (4 / 12) * (8 / 12))
    assert np.all(np.abs(freq - expect) < 4.5 * sd)


def test_chain_matches_permutation_oracle():
    # 60 steps over rungs 0..4, rung 4 empty; 9 events
    rungs = np.random.default_rng(17).permutation(np.repeat(np.arange(4), (20, 15, 15, 10)))
    t, n, m, r = rungs.size, 9, 4, 4000
    at_least = np.array([np.count_nonzero(rungs >= i) for i in range(1, m + 1)])
    p = at_least / t
    mean = n * p
    var = n * p * (1 - p) * (t - n) / (t - 1)
    chain = _null_counts(rungs, n, m, r, seed=1)
    oracle = permutation_counts(rungs, n, m, r, np.random.default_rng(2))
    for counts in (chain, oracle):
        assert np.all(np.diff(counts, axis=1) <= 0)
        np.testing.assert_array_equal(counts[:, 3], 0)
        se = np.sqrt(var[:3] / r)
        assert np.all(np.abs(counts[:, :3].mean(axis=0) - mean[:3]) < 4.5 * se)
        # the sample variance has a relative standard error near sqrt(2/r), 2.2 %
        np.testing.assert_allclose(counts[:, :3].var(axis=0, ddof=1), var[:3], rtol=0.12)
    # the count at the first rung: both samplers against each other, and the
    # chain against the exact hypergeometric law
    ks = np.arange(n + 1)
    table = np.array([np.bincount(chain[:, 0], minlength=n + 1),
                      np.bincount(oracle[:, 0], minlength=n + 1)])
    table = table[:, table.sum(axis=0) >= 10]
    assert chi2_contingency(table)[1] > 1e-3
    observed = np.bincount(chain[:, 0], minlength=n + 1)
    expected = r * hypergeom.pmf(ks, t, at_least[0], n)
    keep = expected >= 5
    stat = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    assert chi2.sf(stat, keep.sum() - 1) > 1e-3


@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 6))
def test_permutation_success_probs_match_window_count(seed, delta, m):
    rng = np.random.default_rng(seed)
    values = rng.exponential(size=int(rng.integers(delta + 2, 80)))
    thresholds = np.sort(rng.choice(values, size=min(m, values.size), replace=False))
    got = permutation_success_probabilities(rung_index(TimeSeries(values), delta, thresholds),
                                            thresholds.size)
    # brute force: steps whose full window t..t+delta holds a strict exceedance
    t = values.size
    want = [sum(values[s:s + delta + 1].max() > tau for s in range(t - delta)) / t
            for tau in thresholds]
    np.testing.assert_array_equal(got, want)
    assert np.all(np.diff(got) <= 0.0)


def test_permutation_success_probs_validation():
    with pytest.raises(ValueError):
        permutation_success_probabilities(np.array([0, 3, 1]), 2)


def test_one_null_draw_scores_several_event_sets():
    rng = np.random.default_rng(12)
    x = TimeSeries(rng.exponential(size=300))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.95, 5)
    pis = success_probabilities(ladder, GevParams(0.0, 1.5, 1.0))
    rungs = rung_index(x, 3, ladder.thresholds)
    nulls = null_nll_replicates(rungs, 10, pis, r=199, seed=1)
    for _ in range(3):
        e = EventSeries(300, tuple(sorted(rng.choice(np.arange(1, 301), 10, replace=False))))
        proc = compute_tcp(e, rungs, ladder.m)
        res = mc_multi_threshold_test(proc, pis, nulls)
        assert res.p_hat == (1 + np.count_nonzero(nulls >= tcp_nll(proc, pis))) / 200
    with pytest.raises(ValueError):
        mc_multi_threshold_test(proc, pis, np.array([]))


def test_chain_edge_cases():
    rungs = np.array([2, 0, 1, 2, 2, 0, 1, 0])
    # no events: every count is zero, and so is every NLL
    np.testing.assert_array_equal(_null_counts(rungs, 0, 3, 5, seed=0), 0)
    np.testing.assert_array_equal(null_nll_replicates(rungs, 0, [0.5, 0.3, 0.1], 5, seed=0), 0.0)
    # rung 3 has no step, so its count is always zero
    counts = _null_counts(rungs, 4, 3, 200, seed=1)
    np.testing.assert_array_equal(counts[:, 2], 0)
    assert counts[:, 0].max() <= 5 and counts[:, 1].max() <= 3
    # every step drawn: four sit at the top rung, the late one at rung 0
    full = _null_counts(np.array([3, 3, 3, 3, 0]), 5, 3, 20, seed=2)
    np.testing.assert_array_equal(full, [[4, 4, 4]] * 20)
    with pytest.raises(ValueError):
        _null_counts(rungs, 9, 3, 5, seed=0)         # more events than steps
    with pytest.raises(ValueError):
        _null_counts(rungs, 2, 1, 5, seed=0)         # rung above m
    with pytest.raises(ValueError):
        null_nll_replicates(rungs, 2, [0.5, 0.3, 0.1], 0, seed=0)


def test_events_only_in_final_window():
    rng = np.random.default_rng(6)
    x = TimeSeries(rng.exponential(size=100))
    e = EventSeries(100, (97, 99, 100))
    ladder = build_ladder_from_quantiles(x, 0.3, 0.9, 4)
    rungs = rung_index(x, 5, ladder.thresholds)
    proc = compute_tcp(e, rungs, ladder.m)
    assert proc.counts.tolist() == [0, 0, 0, 0]
    pis = success_probabilities(ladder, GevParams(0.0, 1.0, 1.0))
    res = mc_multi_threshold_test(proc, pis, null_nll_replicates(rungs, 3, pis, r=99, seed=4))
    assert res.statistic == tcp_nll(proc, pis)
    assert 0.0 < res.p_hat <= 1.0


def test_full_occupancy_is_fixed_point():
    x = TimeSeries(np.random.default_rng(8).exponential(size=40))
    e = EventSeries(40, tuple(range(1, 41)))
    ladder = build_ladder_from_quantiles(x, 0.2, 0.9, 5)
    pis = success_probabilities(ladder, GevParams(0.0, np.median(x.values), 1.0))
    rungs = rung_index(x, 2, ladder.thresholds)
    res = mc_multi_threshold_test(compute_tcp(e, rungs, ladder.m), pis,
                                  null_nll_replicates(rungs, 40, pis, r=50, seed=9))
    # permuting all positions returns the same series, so every replicate ties
    assert res.p_hat == 1.0


def test_replicates_deterministic():
    rng = np.random.default_rng(21)
    x = TimeSeries(rng.exponential(size=400))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.99, 9)
    pis = success_probabilities(ladder, GevParams(0.05, 1.0, 0.8))
    rungs = rung_index(x, 4, ladder.thresholds)
    a = null_nll_replicates(rungs, 25, pis, r=64, seed=5)
    b = null_nll_replicates(rungs, 25, pis, r=64, seed=5)
    c = null_nll_replicates(rungs, 25, pis, r=64, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_pvalue_counting_rule():
    rng = np.random.default_rng(2)
    x = TimeSeries(rng.exponential(size=200))
    e = EventSeries(200, tuple(sorted(rng.choice(np.arange(1, 201), 12, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.4, 0.95, 6)
    pis = success_probabilities(ladder, GevParams(0.1, 1.0, 1.0))
    rungs = rung_index(x, 3, ladder.thresholds)
    proc = compute_tcp(e, rungs, ladder.m)
    nulls = null_nll_replicates(rungs, e.n_events, pis, r=99, seed=3)
    res = mc_multi_threshold_test(proc, pis, nulls)
    assert res.statistic == tcp_nll(proc, pis)
    ge = int(np.count_nonzero(nulls >= res.statistic))
    assert res.p_hat == (1 + ge) / (99 + 1)
    assert res.replicates == 99
    assert res.null_min == nulls.min()
    assert res.null_max == nulls.max()
    assert res.null_min <= res.null_median <= res.null_max
    assert isinstance(res, MultiTestResult)


# --- expectation band and DP extremes -------------------------------------------

def test_expected_band_exact_quantiles():
    from scipy.stats import binom
    # near one, in the middle, and near zero; non-increasing as a ladder needs
    pis = np.array([1 - 1e-12, 1 - 1e-6, 0.999, 0.95, 0.6, 0.5, 0.2, 0.05,
                    1e-3, 1e-6, 1e-12])
    for n, level in itertools.product((0, 1, 17, 32, 1000), (0.9, 0.95)):
        expected, lower, upper = expected_process_with_band(n, pis, level=level)
        np.testing.assert_allclose(expected, n * pis)
        np.testing.assert_array_equal(lower, binom.ppf((1 - level) / 2, n, pis))
        np.testing.assert_array_equal(upper, binom.ppf((1 + level) / 2, n, pis))


def test_expected_band_degenerate_pi():
    expected, lower, upper = expected_process_with_band(10, np.array([1.0, 1.0]))
    assert lower.tolist() == [10, 10]
    assert upper.tolist() == [10, 10]
    np.testing.assert_allclose(expected, [10.0, 10.0])


def test_expected_band_validation():
    with pytest.raises(ValueError):
        expected_process_with_band(10, np.array([0.5]), level=1.0)
    with pytest.raises(ValueError):
        expected_process_with_band(-1, np.array([0.5]))


def test_dp_extremes_equal_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        pis = np.sort(rng.uniform(0.05, 0.95, size=m))[::-1].copy()
        nlls = []
        for ks in iter_monotone_processes(m, n):
            v = tcp_nll(TriggerCoincidenceProcess(np.array(ks), n), pis)
            if np.isfinite(v):
                nlls.append((v, ks))
        lo, proc_lo = dp_extreme_nll(n, pis, "min")
        hi, proc_hi = dp_extreme_nll(n, pis, "max")
        assert lo == min(v for v, _ in nlls)
        assert hi == max(v for v, _ in nlls)
        # the returned witnesses must attain their own statistic
        assert tcp_nll(proc_lo, pis) == lo
        assert tcp_nll(proc_hi, pis) == hi


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
    v = tcp_nll(TriggerCoincidenceProcess(ks, n), pis)
    if np.isfinite(v):
        assert lo - 1e-9 <= v <= hi + 1e-9


def test_pointwise_along_ladder_matches_direct():
    # each rung's test is the single-threshold test at that rung's threshold
    rng = np.random.default_rng(31)
    x = TimeSeries(rng.exponential(size=600))
    e = EventSeries(600, tuple(sorted(rng.choice(np.arange(1, 601), 24, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.98, 7)
    theta = GevParams(0.02, 1.2, 0.9)
    proc = tcp(e, x, 6, ladder)
    pis = success_probabilities(ladder, theta)
    for k, pi, tau in zip(proc.counts, pis, ladder.thresholds):
        k_direct = int(compute_tcp(e, rung_index(x, 6, [float(tau)]), 1).counts[0])
        pi_direct = gev_sf(float(tau), theta)
        assert k == k_direct
        assert pi == pytest.approx(pi_direct, abs=1e-15)
        assert binom_tail(int(k), e.n_events, float(pi)) == pytest.approx(
            binom_tail(k_direct, e.n_events, pi_direct), abs=1e-15)
