"""Threshold ladders, the coincidence process, and the Monte Carlo test."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peca.multi import (
    MultiTestResult,
    ThresholdLadder,
    TriggerCoincidenceProcess,
    build_ladder_from_quantiles,
    compute_tcp,
    dp_extreme_nll,
    empirical_quantile,
    expected_process_with_band,
    mc_multi_threshold_test,
    null_nll_replicates,
    permute_events,
    pointwise_tests_along_ladder,
    replicate_rng,
    success_probabilities,
    tcp_nll,
)
from peca.nulls import GevParams, binom_logpmf, gev_null_pvalue, gev_sf
from peca.series import EventSeries, TimeSeries, count_trigger_exceedances


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
    tcp = compute_tcp(e, x, 5, ladder)
    for k, tau in zip(tcp.counts, ladder.thresholds):
        assert k == count_trigger_exceedances(e, x, float(tau), 5).count
    assert np.all(np.diff(tcp.counts) <= 0)


def test_process_validation():
    with pytest.raises(ValueError):
        TriggerCoincidenceProcess(np.array([2, 3]), 5)   # increasing
    with pytest.raises(ValueError):
        TriggerCoincidenceProcess(np.array([6, 2]), 5)   # above n_events
    p = TriggerCoincidenceProcess(np.array([0, 0]), 0)
    assert np.all(np.isnan(p.rates()))


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
    tcp = compute_tcp(e, x, 1, ladder)
    # below the minimum every event with a full window scores; above the
    # maximum nothing does
    assert tcp.counts.tolist() == [2, 0]


# --- permutation machinery ------------------------------------------------------

def test_permute_preserves_count_and_bounds():
    e = EventSeries(50, (1, 9, 33))
    rng = replicate_rng(0, 0)
    for _ in range(100):
        p = permute_events(e, rng)
        assert p.n_events == 3
        assert p.length == 50
        assert 1 <= p.occurrences[0] and p.occurrences[-1] <= 50


def test_permute_occupancy_uniform():
    e = EventSeries(12, (1, 2, 3, 4))
    freq = np.zeros(12)
    rng = replicate_rng(123, 0)
    draws = 10000
    for _ in range(draws):
        freq[permute_events(e, rng).occurrences - 1] += 1
    expect = draws * 4 / 12
    sd = np.sqrt(draws * (4 / 12) * (8 / 12))
    assert np.all(np.abs(freq - expect) < 4.5 * sd)


def test_full_occupancy_is_fixed_point():
    x = TimeSeries(np.random.default_rng(8).exponential(size=40))
    e = EventSeries(40, tuple(range(1, 41)))
    ladder = build_ladder_from_quantiles(x, 0.2, 0.9, 5)
    pis = success_probabilities(ladder, GevParams(0.0, np.median(x.values), 1.0))
    res = mc_multi_threshold_test(e, x, 2, ladder, compute_tcp(e, x, 2, ladder), pis,
                                  r=50, seed=9)
    # permuting all positions returns the same series, so every replicate ties
    assert res.p_hat == 1.0


def test_replicates_deterministic_and_worker_independent():
    rng = np.random.default_rng(21)
    x = TimeSeries(rng.exponential(size=400))
    e = EventSeries(400, tuple(sorted(rng.choice(np.arange(1, 401), 25, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.99, 9)
    pis = success_probabilities(ladder, GevParams(0.05, 1.0, 0.8))
    a = null_nll_replicates(e, x, 4, ladder, pis, r=64, seed=5, workers=1)
    b = null_nll_replicates(e, x, 4, ladder, pis, r=64, seed=5, workers=4)
    c = null_nll_replicates(e, x, 4, ladder, pis, r=64, seed=5, workers=1)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_mc_pvalue_counting_rule():
    rng = np.random.default_rng(2)
    x = TimeSeries(rng.exponential(size=200))
    e = EventSeries(200, tuple(sorted(rng.choice(np.arange(1, 201), 12, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.4, 0.95, 6)
    pis = success_probabilities(ladder, GevParams(0.1, 1.0, 1.0))
    tcp = compute_tcp(e, x, 3, ladder)
    res = mc_multi_threshold_test(e, x, 3, ladder, tcp, pis, r=99, seed=3)
    nulls = null_nll_replicates(e, x, 3, ladder, pis, r=99, seed=3)
    assert res.statistic == tcp_nll(tcp, pis)
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
    rng = np.random.default_rng(31)
    x = TimeSeries(rng.exponential(size=600))
    e = EventSeries(600, tuple(sorted(rng.choice(np.arange(1, 601), 24, replace=False))))
    ladder = build_ladder_from_quantiles(x, 0.5, 0.98, 7)
    theta = GevParams(0.02, 1.2, 0.9)
    tcp = compute_tcp(e, x, 6, ladder)
    results = pointwise_tests_along_ladder(tcp, success_probabilities(ladder, theta))
    assert [r.k_observed for r in results] == tcp.counts.tolist()
    for r, tau in zip(results, ladder.thresholds):
        assert r.success_prob == pytest.approx(gev_sf(float(tau), theta), abs=1e-15)
        direct = gev_null_pvalue(r.k_observed, e.n_events, float(tau), theta)
        assert r.p_value == pytest.approx(direct.p_value, abs=1e-15)
