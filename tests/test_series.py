"""The counting kernel, ``compute_tcp`` over ``rung_index``, against literal loop oracles."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peca.cli import AnalysisConfig, run_pointwise
from peca.multi import compute_tcp
from peca.series import (
    EventSeries,
    TimeSeries,
    late_events,
    preprocess,
    rung_index,
    trailing_mean,
)


def brute_trigger(b_ind, a_ind, delta):
    # sum_{t=1}^{T-delta} B_t * max(A_t .. A_{t+delta}), written exactly as stated
    t_max = len(b_ind)
    count = 0
    for t in range(1, t_max - delta + 1):
        if b_ind[t - 1] and max(a_ind[t - 1:t - 1 + delta + 1]):
            count += 1
    return count


def brute_precursor(b_ind, a_ind, delta):
    # sum_{t=delta+1}^{T} A_t * max(B_{t-delta} .. B_t)
    t_max = len(a_ind)
    count = 0
    for t in range(delta + 1, t_max + 1):
        if a_ind[t - 1] and max(b_ind[t - 1 - delta:t]):
            count += 1
    return count


def all_indicator_pairs(t_max):
    for bits_b in itertools.product((0, 1), repeat=t_max):
        for bits_a in itertools.product((0, 1), repeat=t_max):
            yield bits_b, bits_a


def events_from_bits(bits):
    return EventSeries(len(bits), np.flatnonzero(bits) + 1)


def bits_of(length, occurrences):
    bits = np.zeros(length, dtype=int)
    bits[np.asarray(occurrences) - 1] = 1
    return bits


def kernel_trigger(bits_b, bits_a, delta):
    # event-to-event trigger count, and the events it counts: the kernel on a's
    # 0/1 series at tau = 0.5
    events = events_from_bits(bits_b)
    return int(compute_tcp(events, rung_index(TimeSeries(bits_a), delta, [0.5]), 1)[0]), events


def kernel_precursor(bits_b, bits_a, delta):
    # the precursor count is the trigger count of the time-reversed pair
    return kernel_trigger(bits_a[::-1], bits_b[::-1], delta)


def kernel_count(e, x, tau, delta):
    return int(compute_tcp(e, rung_index(x, delta, [tau]), 1)[0])


def test_trigger_matches_brute_force_exhaustively():
    for t_max in range(1, 6):
        for delta in range(t_max):
            for bits_b, bits_a in all_indicator_pairs(t_max):
                k, events = kernel_trigger(bits_b, bits_a, delta)
                assert k == brute_trigger(bits_b, bits_a, delta)
                assert events.n_events == sum(bits_b)


def test_precursor_matches_brute_force_exhaustively():
    for t_max in range(1, 6):
        for delta in range(t_max):
            for bits_b, bits_a in all_indicator_pairs(t_max):
                k, events = kernel_precursor(bits_b, bits_a, delta)
                assert k == brute_precursor(bits_b, bits_a, delta)
                assert events.n_events == sum(bits_a)


def test_worked_example_pair():
    # one fully hand-checked configuration on a 31-day grid
    b = bits_of(31, (6, 14, 26))
    a = bits_of(31, (2, 7, 14, 20, 27, 30))
    k_tr, e_tr = kernel_trigger(b, a, 4)
    k_pre, e_pre = kernel_precursor(b, a, 4)
    assert (k_tr, e_tr.n_events, k_tr / e_tr.n_events) == (3, 3, 1.0)
    assert (k_pre, e_pre.n_events) == (4, 6)
    assert k_pre / e_pre.n_events == pytest.approx(2.0 / 3.0)


def test_delta_zero_is_symmetric_intersection():
    for bits_b, bits_a in all_indicator_pairs(5):
        both = sum(x and y for x, y in zip(bits_b, bits_a))
        assert kernel_trigger(bits_b, bits_a, 0)[0] == both
        assert kernel_precursor(bits_b, bits_a, 0)[0] == both


def test_exceedance_trigger_equals_trigger_on_exceedance_series():
    values_grid = (0.0, 1.0, 2.0)
    taus = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    t_max = 4
    for values in itertools.product(values_grid, repeat=t_max):
        x = TimeSeries(values)
        for bits_e in itertools.product((0, 1), repeat=t_max):
            e = events_from_bits(bits_e)
            for delta in range(t_max):
                counts = compute_tcp(e, rung_index(x, delta, taus), len(taus))
                assert e.n_events == sum(bits_e)
                for k, tau in zip(counts, taus):
                    assert k == brute_trigger(bits_e, [v > tau for v in values], delta)


@st.composite
def series_and_events(draw):
    t_max = draw(st.integers(min_value=1, max_value=40))
    values = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=t_max, max_size=t_max))
    occ = draw(st.sets(st.integers(1, t_max), max_size=t_max))
    delta = draw(st.integers(0, t_max - 1))
    tau = draw(st.floats(-5, 5, allow_nan=False))
    return TimeSeries(values), EventSeries(t_max, tuple(sorted(occ))), tau, delta


@given(series_and_events())
def test_count_monotone_in_tau_and_delta(args):
    x, e, tau, delta = args
    k = kernel_count(e, x, tau, delta)
    assert kernel_count(e, x, tau + 0.25, delta) <= k
    if delta + 1 < x.length:
        # a wider window can only gain coincidences from events it still covers
        wider = kernel_count(e, x, tau, delta + 1)
        eligible_now = sum(1 for t in e.occurrences if t <= x.length - delta - 1)
        assert wider >= k - (e.n_events - eligible_now)


@given(series_and_events())
def test_exceedance_equivalence_randomized(args):
    x, e, tau, delta = args
    bits_e = bits_of(x.length, e.occurrences)
    assert kernel_count(e, x, tau, delta) == brute_trigger(bits_e, x.values > tau, delta)


def test_forward_window_max_oracle():
    # window maxima 3,1,4,1,5 / 4,4,5 / 5 against thresholds between the values
    x = TimeSeries((3.0, 1.0, 4.0, 1.0, 5.0))
    thresholds = (0.5, 1.5, 3.5, 4.5)
    np.testing.assert_array_equal(rung_index(x, 0, thresholds), (2, 1, 3, 1, 4))
    np.testing.assert_array_equal(rung_index(x, 2, thresholds), (3, 3, 4, 0, 0))
    np.testing.assert_array_equal(rung_index(x, 4, thresholds), (4, 0, 0, 0, 0))


@given(st.lists(st.integers(0, 6), min_size=1, max_size=30), st.data())
def test_rung_index_matches_window_loop(values, data):
    delta = data.draw(st.integers(0, len(values) - 1))
    thresholds = sorted(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.5, 2.0, 4.0, 9.0]),
                                           min_size=1, max_size=5)))
    rungs = rung_index(TimeSeries(values), delta, thresholds)
    t_max = len(values) - delta
    for t in range(1, len(values) + 1):
        window = values[t - 1:t + delta]
        want = sum(max(window) > tau for tau in thresholds) if t <= t_max else 0
        assert rungs[t - 1] == want


def test_rung_index_matches_sliding_window_max():
    rng = np.random.default_rng(11)
    for t in (1, 2, 3, 7, 64, 97, 1000, 4999, 5000):
        values = rng.standard_normal(t) * 3.0
        values[rng.integers(0, t, size=t // 4)] = 1.5       # ties with a threshold
        thresholds = np.sort(np.concatenate((rng.choice(values, size=min(t, 6)), [1.5])))
        for delta in sorted({0, min(1, t - 1), t - 1, int(rng.integers(0, t))}):
            window_max = np.lib.stride_tricks.sliding_window_view(values, delta + 1).max(axis=1)
            want = np.zeros(t, dtype=np.int64)
            want[:t - delta] = np.searchsorted(thresholds, window_max, side="left")
            np.testing.assert_array_equal(rung_index(TimeSeries(values), delta, thresholds),
                                          want)


def test_rung_index_validation():
    x = TimeSeries((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        rung_index(x, 3, [1.0])
    with pytest.raises(ValueError):
        rung_index(x, 1, [2.0, 1.0])


def test_rate_examples():
    # 9 of 17 events sit on exceedances; with delta 0 exactly those count
    x = TimeSeries(np.random.default_rng(5).exponential(size=400))
    tau = float(np.median(x.values))
    above, below = np.flatnonzero(x.values > tau) + 1, np.flatnonzero(x.values <= tau) + 1
    events = EventSeries(400, np.sort(np.concatenate((above[:9], below[:8]))))
    config = AnalysisConfig(delta=0)
    report = run_pointwise(config, x, events, tau=tau)
    assert (report["k_observed"], report["series"]["n_events"]) == (9, 17)
    assert report["rate"] == pytest.approx(9 / 17)
    empty = run_pointwise(config, x, EventSeries(400, ()), tau=tau)
    assert empty["k_observed"] == 0
    assert empty["rate"] is None
    assert json.loads(json.dumps(empty, allow_nan=False))["rate"] is None
    for both_or_neither in ({"tau": tau, "quantile": 0.5}, {}):
        with pytest.raises(ValueError, match="^exactly one of tau and quantile is required$"):
            run_pointwise(config, x, events, **both_or_neither)


def test_preprocess_hand_series():
    # log2(x+1) gives 1, 2, 3; the running mean then shifts each point
    out = preprocess(TimeSeries((1.0, 3.0, 7.0)), window=2)
    np.testing.assert_allclose(out.values, (0.0, 1.0, 1.5), atol=1e-12)


def test_preprocess_window_limits_history():
    x = TimeSeries((0.0, 0.0, 0.0, 15.0, 15.0, 15.0))
    out = preprocess(x, window=1)
    # with window 1 each step only sees its immediate predecessor
    expect = [0.0, 0.0, 0.0, 4.0, 0.0, 0.0]
    np.testing.assert_allclose(out.values, expect, atol=1e-12)


def preprocess_index_arrays(values, window):
    """Reference: each step's running mean from index arrays into one padded cumsum."""
    logs = np.log2(values + 1.0)
    cs = np.concatenate(([0.0], np.cumsum(logs)))
    t = np.arange(1, values.size + 1)
    lo = np.maximum(t - 1 - window, 0)
    hi = t - 1
    n_prior = hi - lo
    means = np.where(n_prior > 0, (cs[hi] - cs[lo]) / np.maximum(n_prior, 1), logs)
    return logs - means


def test_preprocess_matches_index_arrays():
    rng = np.random.default_rng(13)
    for window in range(1, 41):
        for length in (*range(1, window + 4), 3000):
            values = rng.exponential(50.0, size=length).round(rng.integers(0, 3))
            np.testing.assert_array_equal(preprocess(TimeSeries(values), window).values,
                                          preprocess_index_arrays(values, window))


def trailing_mean_index_arrays(values, window):
    """Reference: each entry's trailing mean from index arrays into one padded cumsum."""
    cs = np.concatenate(([0.0], np.cumsum(values)))
    hi = np.arange(1, values.size + 1)
    lo = np.maximum(hi - window, 0)
    return (cs[hi] - cs[lo]) / (hi - lo)


def test_trailing_mean_matches_index_arrays():
    rng = np.random.default_rng(17)
    for window in range(1, 71):
        for length in (*range(window + 4), 4096):
            values = rng.exponential(3.0, size=length)
            np.testing.assert_array_equal(trailing_mean(values, window),
                                          trailing_mean_index_arrays(values, window))
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be at least 1"):
            trailing_mean(np.ones(3), window)


def test_preprocess_checks_window_before_values():
    with pytest.raises(ValueError, match="window must be at least 1"):
        preprocess(TimeSeries((-1.0, 2.0)), 0)
    with pytest.raises(ValueError, match="requires non-negative values"):
        preprocess(TimeSeries((-1.0, 2.0)), 1)


def test_preprocess_zero_counts_are_fine():
    out = preprocess(TimeSeries((0.0, 0.0)), window=30)
    assert np.all(np.isfinite(out.values))


def test_late_events():
    e = EventSeries(10, (1, 5, 9, 10))
    np.testing.assert_array_equal(late_events(e, 2), (9, 10))
    np.testing.assert_array_equal(late_events(e, 0), ())


def test_event_series_validation():
    with pytest.raises(ValueError):
        EventSeries(5, (0,))
    with pytest.raises(ValueError):
        EventSeries(5, (6,))
    with pytest.raises(ValueError):
        EventSeries(5, (3, 3))
    with pytest.raises(ValueError):
        EventSeries(5, (4, 2))
    # a fractional step or length is refused, not truncated
    with pytest.raises(ValueError, match="occurrences must be integer-valued"):
        EventSeries(10, [1.5, 2.7])
    with pytest.raises(ValueError, match="occurrences must be integer-valued"):
        EventSeries(10, [1.0, float("nan")])
    with pytest.raises(ValueError, match="occurrences must be integer-valued"):
        EventSeries(10, ["1", "2"])
    with pytest.raises(ValueError, match="^series length must be integer-valued$"):
        EventSeries(10.7, [1, 10])
    with pytest.raises(ValueError, match="^series length must be at least 1$"):
        EventSeries(0, ())
    assert EventSeries(10, [1.0, 10.0]).occurrences.tolist() == [1, 10]
    assert EventSeries(400, ()).n_events == 0   # an empty float array
    assert EventSeries(400, np.array([])).n_events == 0


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(())
    with pytest.raises(ValueError):
        TimeSeries((1.0, float("nan")))
    with pytest.raises(ValueError):
        TimeSeries((1.0, float("inf")))


def test_delta_bounds_checked():
    e = EventSeries(5, (1,))
    x = TimeSeries((1.0,) * 5)
    with pytest.raises(ValueError):
        compute_tcp(e, rung_index(x, -1, [0.5]), 1)
    with pytest.raises(ValueError):
        compute_tcp(e, rung_index(x, 5, [0.5]), 1)


def test_grid_mismatch_rejected():
    e = EventSeries(5, (1,))
    x = TimeSeries((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        compute_tcp(e, rung_index(x, 1, [0.5]), 1)


def test_event_series_roundtrip_and_frozen():
    e = events_from_bits((0, 1, 0, 1))
    assert e.occurrences.tolist() == [2, 4]
    np.testing.assert_array_equal(bits_of(e.length, e.occurrences), (0, 1, 0, 1))
    with pytest.raises(ValueError):
        e.occurrences[0] = 3
