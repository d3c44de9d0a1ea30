"""Counting kernels checked against literal double-loop oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peca.series import (
    CoincidenceResult,
    EventSeries,
    TimeSeries,
    count_precursor,
    count_trigger,
    count_trigger_exceedances,
    exceedance_series,
    forward_window_max,
    late_events,
    preprocess,
    rung_index,
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


def test_trigger_matches_brute_force_exhaustively():
    for t_max in range(1, 6):
        for delta in range(t_max):
            for bits_b, bits_a in all_indicator_pairs(t_max):
                b = EventSeries.from_indicator(bits_b)
                a = EventSeries.from_indicator(bits_a)
                got = count_trigger(b, a, delta)
                assert got.count == brute_trigger(bits_b, bits_a, delta)
                assert got.n_events == sum(bits_b)


def test_precursor_matches_brute_force_exhaustively():
    for t_max in range(1, 6):
        for delta in range(t_max):
            for bits_b, bits_a in all_indicator_pairs(t_max):
                b = EventSeries.from_indicator(bits_b)
                a = EventSeries.from_indicator(bits_a)
                got = count_precursor(b, a, delta)
                assert got.count == brute_precursor(bits_b, bits_a, delta)
                assert got.n_events == sum(bits_a)


def test_worked_example_pair():
    # one fully hand-checked configuration on a 31-day grid
    b = EventSeries(31, (6, 14, 26))
    a = EventSeries(31, (2, 7, 14, 20, 27, 30))
    tr = count_trigger(b, a, 4)
    pre = count_precursor(b, a, 4)
    assert (tr.count, tr.n_events, tr.rate) == (3, 3, 1.0)
    assert (pre.count, pre.n_events) == (4, 6)
    assert pre.rate == pytest.approx(2.0 / 3.0)


def test_delta_zero_is_symmetric_intersection():
    for bits_b, bits_a in all_indicator_pairs(5):
        b = EventSeries.from_indicator(bits_b)
        a = EventSeries.from_indicator(bits_a)
        both = sum(x and y for x, y in zip(bits_b, bits_a))
        assert count_trigger(b, a, 0).count == both
        assert count_precursor(b, a, 0).count == both


def test_exceedance_trigger_equals_trigger_on_exceedance_series():
    values_grid = (0.0, 1.0, 2.0)
    taus = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    t_max = 4
    for values in itertools.product(values_grid, repeat=t_max):
        x = TimeSeries(values)
        for bits_e in itertools.product((0, 1), repeat=t_max):
            e = EventSeries.from_indicator(bits_e)
            for tau in taus:
                for delta in range(t_max):
                    direct = count_trigger_exceedances(e, x, tau, delta)
                    via_series = count_trigger(e, exceedance_series(x, tau), delta)
                    assert direct.count == via_series.count
                    assert direct.n_events == via_series.n_events


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
    k = count_trigger_exceedances(e, x, tau, delta).count
    assert count_trigger_exceedances(e, x, tau + 0.25, delta).count <= k
    if delta + 1 < x.length:
        # a wider window can only gain coincidences from events it still covers
        wider = count_trigger_exceedances(e, x, tau, delta + 1).count
        eligible_now = sum(1 for t in e.occurrences if t <= x.length - delta - 1)
        assert wider >= k - (e.n_events - eligible_now)


@given(series_and_events())
def test_exceedance_equivalence_randomized(args):
    x, e, tau, delta = args
    direct = count_trigger_exceedances(e, x, tau, delta)
    via = count_trigger(e, exceedance_series(x, tau), delta)
    assert direct.count == via.count


def test_forward_window_max_oracle():
    x = TimeSeries((3.0, 1.0, 4.0, 1.0, 5.0))
    np.testing.assert_array_equal(forward_window_max(x, 0), x.values)
    np.testing.assert_array_equal(forward_window_max(x, 2), (4.0, 4.0, 5.0))
    np.testing.assert_array_equal(forward_window_max(x, 4), (5.0,))


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


def test_rung_index_validation():
    x = TimeSeries((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        rung_index(x, 3, [1.0])
    with pytest.raises(ValueError):
        rung_index(x, 1, [2.0, 1.0])


def test_rate_examples():
    assert CoincidenceResult(9, 17).rate == pytest.approx(9 / 17)
    assert CoincidenceResult(0, 0).rate is None


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
        count_trigger_exceedances(e, x, 0.5, -1)
    with pytest.raises(ValueError):
        count_trigger_exceedances(e, x, 0.5, 5)


def test_grid_mismatch_rejected():
    b = EventSeries(5, (1,))
    a = EventSeries(6, (1,))
    with pytest.raises(ValueError):
        count_trigger(b, a, 1)


def test_event_series_roundtrip_and_frozen():
    e = EventSeries.from_indicator((0, 1, 0, 1))
    assert e.occurrences.tolist() == [2, 4]
    np.testing.assert_array_equal(e.indicator(), (0, 1, 0, 1))
    with pytest.raises(ValueError):
        e.occurrences[0] = 3
