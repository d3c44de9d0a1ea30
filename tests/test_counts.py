"""One integer rule for every count, size and setting the library takes.

Each public entry that takes a count is called with one count argument set
to each input of a fixed set.  Integer lists, bool arrays and whole-number
floats give one result; a fraction, nan, inf or text raises
``ValueError("<what> must be integer-valued")``, never a truncated count, a
parsed string, an ``IndexError`` or NumPy's own message.  A count that is one
number raises ValueError for an array too, even one of one entry or none.
Sizes and settings (a window, a tolerance, a ladder's length, a seed) follow
the same rule, and one below its floor raises "<what> must be non-negative"
or "<what> must be at least <floor>".
"""

import math

import numpy as np
import pytest

from peca.cli import AnalysisConfig
from peca.multi import (
    build_ladder_from_quantiles,
    compute_tcp,
    dp_extreme_nll,
    expected_process_with_band,
    null_nll_replicates,
    steps_at_least,
    tcp_nll,
)
from peca.nulls import (
    bernoulli_success_prob,
    binom_cdf,
    binom_logpmf,
    binom_tail,
    block_maxima,
    fit_gev_mle,
)
from peca.qtr import QtrTable
from peca.series import (
    EventSeries,
    TimeSeries,
    integer_array,
    late_events,
    preprocess,
    rung_index,
    trailing_mean,
)
from peca.sim import SimConfig, gen_dependent_events, gen_independent_events, gen_ma_exponential

LOG2 = math.log(2.0)


def _qtr_counts(counts):
    return QtrTable(levels=[0.5, 0.9], thresholds=[1.0, 2.0], observed_counts=counts, n_events=1,
                    expected_rates=[0.5, 0.25], band_lower_rates=[0.0, 0.0],
                    band_upper_rates=[1.0, 1.0]).observed_counts.tolist()


def _qtr_rates(n_events):
    return QtrTable(levels=[0.5, 0.9], thresholds=[1.0, 2.0], observed_counts=[1, 0],
                    n_events=n_events, expected_rates=[0.5, 0.25], band_lower_rates=[0.0, 0.0],
                    band_upper_rates=[1.0, 1.0]).observed_rates.tolist()


def _replicates(r):
    return null_nll_replicates([1, 0], 1, [0.5], r, seed=0).tolist()


def _dp_min(n_events):
    statistic, counts = dp_extreme_nll(n_events, [0.5, 0.25], "min")
    return [statistic, *counts.tolist()]


# entry: (call with the count argument, its valid value, the result of that value,
#         the result of the empty tuple, the subject of the message)
ARRAY_ENTRIES = {
    "binom_logpmf-k": (lambda v: binom_logpmf(v, 2, 0.5).tolist(), [1, 0],
                       [math.log(0.5), math.log(0.25)], [], "binomial k"),
    "binom_logpmf-n": (lambda v: binom_logpmf(1, v, 0.5).tolist(), [1, 0],
                       [math.log(0.5), -math.inf], [], "binomial n"),
    "EventSeries": (lambda v: EventSeries(2, v).occurrences.tolist(), [1], [1], [],
                    "occurrences"),
    "tcp_nll-counts": (lambda v: tcp_nll(v, 1, [0.5, 0.25]), [1, 0], 2 * LOG2,
                       "pis must have one entry per ladder threshold", "counts"),
    "steps_at_least": (lambda v: steps_at_least(v, 1).tolist(), [1, 0], [2, 1], [0, 0],
                       "rungs"),
    "compute_tcp": (lambda v: compute_tcp(EventSeries(2, [1]), v, 1).tolist(), [1, 0], [1],
                    "series lengths differ: 2 vs 0", "rungs"),
    "null_nll_replicates-steps": (lambda v: null_nll_replicates(v, 1, [0.5], 2, seed=0).tolist(),
                                  [1, 0], [LOG2, LOG2],
                                  "need the steps at rung >= i for i = 0..1: "
                                  "one entry more than pis",
                                  "steps at rung >= i"),
    "QtrTable": (_qtr_counts, [1, 0], [1, 0], "QTR table columns must have equal length",
                 "observed counts"),
}

# entry: (call with the count, the result of the count 1, the subject of the message);
# a count that is one number takes no array, not even one of one entry or none
SCALAR_ENTRIES = {
    "binom_tail-k": (lambda v: binom_tail(v, 2, 0.5), 0.75, "binomial k"),
    "binom_tail-n": (lambda v: binom_tail(1, v, 0.5), 0.5, "binomial n"),
    "binom_cdf-n": (lambda v: binom_cdf(v, 0.5).tolist(), [0.5, 1.0], "binomial n"),
    "tcp_nll-n_events": (lambda v: tcp_nll([1, 0], v, [0.5, 0.25]), 2 * LOG2, "n_events"),
    "null_nll_replicates-n_events": (lambda v: null_nll_replicates([1, 0], v, [0.5], 2,
                                                                   seed=0).tolist(),
                                     [LOG2, LOG2], "n_events"),
    "expected_process_with_band": (lambda v: [b[0] for b in expected_process_with_band(v, [0.5])],
                                   [0, 1], "n_events"),
    "dp_extreme_nll": (_dp_min, [LOG2, 0, 0], "n_events"),
    "null_nll_replicates-r": (_replicates, [LOG2], "replicate count"),
    "QtrTable-n_events": (_qtr_rates, [1.0, 0.0], "n_events"),
}

INVALID = {"fraction": 1.7, "nan": math.nan, "inf": math.inf, "text": "2"}
NOT_SCALAR = {"one-element-list": [1], "empty-tuple": ()}


def _rows():
    for name, (call, base, result, empty, what) in ARRAY_ENTRIES.items():
        yield f"{name}-int-list", call, base, result
        yield f"{name}-bool-array", call, np.array(base, dtype=bool), result
        yield f"{name}-whole-floats", call, np.array(base, dtype=float), result
        yield f"{name}-empty-tuple", call, (), empty
        for kind, value in INVALID.items():
            yield f"{name}-{kind}", call, [value, *base[1:]], f"{what} must be integer-valued"
    for name, (call, result, what) in SCALAR_ENTRIES.items():
        yield f"{name}-int", call, 1, result
        yield f"{name}-bool", call, np.True_, result
        yield f"{name}-whole-float", call, 1.0, result
        for kind, value in INVALID.items():
            yield f"{name}-{kind}", call, value, f"{what} must be integer-valued"
        for kind, value in NOT_SCALAR.items():
            yield f"{name}-{kind}", call, value, f"{what} must be a single integer-valued number"


ROWS = list(_rows())


@pytest.mark.parametrize("call, value, expected", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_every_count_follows_one_integer_rule(call, value, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            call(value)
        assert str(raised.value) == expected
    else:
        np.testing.assert_allclose(call(value), expected, rtol=1e-15, atol=0)


# the count entries above whose count has a floor, and the message below it
COUNT_FLOORS = {
    "binom_tail-n": "binomial n must be non-negative",
    "binom_cdf-n": "binomial n must be non-negative",
    "tcp_nll-n_events": "n_events must be non-negative",
    "expected_process_with_band": "n_events must be non-negative",
    "dp_extreme_nll": "n_events must be non-negative",
}

STEPS = TimeSeries([1.0, 3.0, 2.0, 0.0])
PEAK = TimeSeries([0.0, 2.0])   # one exceedance of 1.0, at step 2
GEV_SAMPLE = np.random.default_rng(0).gumbel(size=40)

def _occurrences(events):
    return events.occurrences.tolist()


# entry: (call with the size or setting, the subject of the message,
#         integer values and their results: one valid, one out of range)
SETTING_ENTRIES = {
    "AnalysisConfig-delta": (lambda v: AnalysisConfig(delta=v).delta, "delta",
                             {7: 7, -1: "delta must be non-negative"}),
    "AnalysisConfig-m": (lambda v: AnalysisConfig(m=v).m, "m", {1: 1, 0: "m must be at least 1"}),
    "AnalysisConfig-r": (lambda v: AnalysisConfig(r=v).r, "r", {1: 1, 0: "r must be at least 1"}),
    "AnalysisConfig-seed": (lambda v: AnalysisConfig(seed=v).seed, "seed",
                            {0: 0, -1: "seed must be non-negative"}),
    "AnalysisConfig-window": (lambda v: AnalysisConfig(window=v).window, "window",
                              {1: 1, 0: "window must be at least 1"}),
    "AnalysisConfig-min_blocks": (lambda v: AnalysisConfig(min_blocks=v).min_blocks, "min_blocks",
                                  {2: 2, 1: "min_blocks must be at least 2"}),
    "SimConfig-length": (lambda v: SimConfig(length=v, ma_orders=(0,), n_events=0,
                                             delta=0).length, "length",
                         {1: 1, 0: "series length must exceed the largest filter order"}),
    "SimConfig-ma_orders": (lambda v: SimConfig(ma_orders=(v,)).ma_orders, "filter orders",
                            {0: (0,), -1: "filter orders must be non-negative"}),
    "SimConfig-n_events": (lambda v: SimConfig(n_events=v).n_events, "n_events",
                           {0: 0, -1: "n_events must lie in [0, length]"}),
    "SimConfig-delta": (lambda v: SimConfig(delta=v).delta, "delta",
                        {0: 0, -1: "delta must lie in [0, length)"}),
    "SimConfig-replicates": (lambda v: SimConfig(replicates=v).replicates, "replicates",
                             {1: 1, 0: "need at least one replicate"}),
    "SimConfig-seed": (lambda v: SimConfig(seed=v).seed, "seed",
                       {0: 0, -1: "seed must be non-negative"}),
    "EventSeries-length": (lambda v: EventSeries(v, ()).length, "series length",
                           {1: 1, 0: "series length must be at least 1"}),
    "rung_index-delta": (lambda v: rung_index(STEPS, v, [1.5]).tolist(), "delta",
                         {1: [1, 1, 1, 0], -1: "delta must be non-negative"}),
    "late_events-delta": (lambda v: late_events(EventSeries(4, [1, 4]), v).tolist(), "delta",
                          {1: [4], -1: "delta must be non-negative"}),
    "trailing_mean-window": (lambda v: trailing_mean(np.array([1.0, 3.0, 5.0]), v).tolist(),
                             "window", {2: [1.0, 2.0, 4.0], 0: "window must be at least 1"}),
    "preprocess-window": (lambda v: preprocess(TimeSeries([0.0, 1.0, 3.0]), v).values.tolist(),
                          "window", {2: [0.0, 1.0, 1.5], 0: "window must be at least 1"}),
    "block_maxima-delta": (lambda v: block_maxima(STEPS, v).tolist(), "delta",
                           {1: [3.0, 2.0], -1: "delta must be non-negative"}),
    "bernoulli_success_prob-delta": (lambda v: bernoulli_success_prob(0.5, v), "delta",
                                     {1: 0.75, -1: "delta must be non-negative"}),
    "fit_gev_mle-min_samples": (lambda v: fit_gev_mle(GEV_SAMPLE, min_samples=v).n_samples,
                                "min_samples", {1: 40, 40: 40}),
    "build_ladder_from_quantiles-m": (
        lambda v: build_ladder_from_quantiles(TimeSeries([0.0, 1.0, 2.0, 3.0, 4.0]), 0.0, 1.0,
                                              v).thresholds.tolist(),
        "m", {3: [0.0, 2.0, 4.0], 0: "m must be at least 1"}),
    "gen_ma_exponential-t": (lambda v: gen_ma_exponential(v, 0, seed=0).length, "t",
                             {2: 2, 0: "series length must exceed the filter order"}),
    "gen_ma_exponential-order": (lambda v: gen_ma_exponential(4, v, seed=0).length, "order",
                                 {1: 4, -1: "order must be non-negative"}),
    "gen_independent_events-t": (lambda v: _occurrences(gen_independent_events(v, 1, seed=0)),
                                 "t", {1: [1], 0: "cannot place 1 events on 0 steps"}),
    "gen_independent_events-n": (lambda v: _occurrences(gen_independent_events(1, v, seed=0)),
                                 "n", {1: [1], -1: "cannot place -1 events on 1 steps"}),
    "gen_dependent_events-n": (lambda v: _occurrences(gen_dependent_events(PEAK, v, 1.0, 1, 0)),
                               "n", {1: [1], -1: "n must be non-negative"}),
    "gen_dependent_events-lag": (lambda v: _occurrences(gen_dependent_events(PEAK, 1, 1.0, v, 0)),
                                 "lag", {1: [1], -1: "lag must be non-negative"}),
}


def _setting_rows():
    for name, text in COUNT_FLOORS.items():
        yield f"{name}-negative", SCALAR_ENTRIES[name][0], -1, text
    for name, (call, what, cases) in SETTING_ENTRIES.items():
        # an integer reads the same as a whole float, a NumPy int or, for 0 and 1, a bool
        for value, result in cases.items():
            yield f"{name}-{value}", call, value, result
            yield f"{name}-{value}-whole-float", call, float(value), result
            yield f"{name}-{value}-int64", call, np.int64(value), result
            if value in (0, 1):
                yield f"{name}-{value}-bool", call, np.bool_(value), result
        for kind, value in INVALID.items():
            yield f"{name}-{kind}", call, value, f"{what} must be integer-valued"
        for kind, value in NOT_SCALAR.items():
            yield f"{name}-{kind}", call, value, f"{what} must be a single integer-valued number"


SETTING_ROWS = list(_setting_rows())


@pytest.mark.parametrize("call, value, expected", [row[1:] for row in SETTING_ROWS],
                         ids=[row[0] for row in SETTING_ROWS])
def test_every_size_and_setting_follows_the_integer_rule(call, value, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as raised:
            call(value)
        assert str(raised.value) == expected
    else:
        # the int, not a float or NumPy int, so a config field dumps as JSON
        result = call(value)
        assert result == expected and type(result) is type(expected)


def test_integer_array_keeps_int64_and_refuses_what_int64_cannot_hold():
    rungs = np.arange(5, dtype=np.int64)
    assert integer_array(rungs, "rungs") is rungs   # no copy of an int64 array
    for value in (np.array([True, False]), np.arange(3, dtype=np.uint8), 7, 7.0):
        assert integer_array(value, "count").dtype == np.int64
    assert int(integer_array(7.0, "count")) == 7   # a scalar is a 0-d array
    largest = float(np.nextafter(2.0**63, 0.0))
    assert integer_array([largest, -largest], "count").tolist() == [int(largest), -int(largest)]
    for value in ([2.0**63], [-2.0**63], [-math.inf], np.array([1, None], dtype=object), b"1"):
        with pytest.raises(ValueError, match="^count must be integer-valued$"):
            integer_array(value, "count")
