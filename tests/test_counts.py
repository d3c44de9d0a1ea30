"""One integer rule for every count, size and setting the library takes, and one real rule
for every real number.

Each public entry that takes a count is called with one count argument set
to each input of a fixed set.  Integer lists, bool arrays and whole-number
floats give one result; a fraction, nan, inf or text raises
``ValueError("<what> must be integer-valued")``, never a truncated count, a
parsed string, an ``IndexError`` or NumPy's own message.  A count that is one
number raises ValueError for an array too, even one of one entry or none.
Sizes and settings (a window, a tolerance, a ladder's length, a seed) follow
the same rule, and one below its floor raises "<what> must be non-negative"
or "<what> must be at least <floor>".

Every real input is read the same way: Python and NumPy floats, ints and
bools give one result, stored as a Python float; text, None or an array where
one number belongs raises "<what> must be a real number" ("<what> must be real
numbers" for an array input), and nan or inf raises "<what> must be finite",
or "<what> must lie in [<low>, <high>]" where the input is bounded; an NLL is
read on [-inf, inf], so only nan raises.  An empty array gives a result or the entry's own
error, never an ``IndexError`` or NumPy's message.  Flags take True or False only.
"""

import math
from datetime import date

import numpy as np
import pytest

from peca.adjust import adjust, reject_set
from peca.cli import AnalysisConfig, run_pointwise
from peca.ingest import DayGrid
from peca.multi import (
    ThresholdLadder,
    build_ladder_from_quantiles,
    compute_tcp,
    dp_extreme_nll,
    empirical_quantile,
    expected_process_with_band,
    mc_p_value,
    null_blocks,
    null_nll_replicates,
    steps_at_least,
    tcp_nll,
)
from peca.nulls import (
    GevFitError,
    GevParams,
    bernoulli_success_prob,
    binom_cdf,
    binom_logpmf,
    binom_tail,
    block_maxima,
    fit_gev_mle,
    gev_sf,
    success_probabilities,
)
from peca.qtr import QtrTable
from peca.series import (
    EventSeries,
    TimeSeries,
    bool_scalar,
    integer_array,
    late_events,
    preprocess,
    real_array,
    real_scalar,
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
    "null_blocks-steps": (lambda v: next(null_blocks(v, 1, 2, seed=0)).tolist(), [1, 1],
                          [[1], [1]],
                          "steps at rung >= i, i = 0..m, must be non-negative and non-increasing",
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
    "null_blocks-n_events": (lambda v: next(null_blocks([1, 1], v, 2, seed=0)).tolist(),
                             [[1], [1]], "n_events"),
    "null_blocks-r": (lambda v: [len(b) for b in null_blocks([1, 1], 1, v, seed=0)], [1],
                      "replicate count"),
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


# the count entries above whose count has a floor: counts below it and their message
COUNT_FLOORS = {
    "binom_tail-n": {-1: "binomial n must be non-negative"},
    "binom_cdf-n": {-1: "binomial n must be non-negative"},
    "tcp_nll-n_events": {-1: "n_events must be non-negative"},
    "null_nll_replicates-n_events": {-1: "n_events must be non-negative"},
    "expected_process_with_band": {-1: "n_events must be non-negative"},
    "dp_extreme_nll": {-1: "n_events must be non-negative"},
    "null_nll_replicates-r": {0: "replicate count must be at least 1",
                              -1: "replicate count must be at least 1"},
    "null_blocks-n_events": {-1: "n_events must be non-negative"},
    "null_blocks-r": {0: "replicate count must be at least 1",
                      -1: "replicate count must be at least 1"},
    "QtrTable-n_events": {0: "n_events must be at least 1"},
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
    "SimConfig-ma_orders-scalar": (lambda v: SimConfig(ma_orders=v).ma_orders, "filter orders",
                                   {3: (3,), -1: "filter orders must be non-negative"}),
    "SimConfig-n_events": (lambda v: SimConfig(n_events=v).n_events, "n_events",
                           {0: 0, -1: "n_events must be non-negative"}),
    "SimConfig-delta": (lambda v: SimConfig(delta=v).delta, "delta",
                        {0: 0, -1: "delta must be non-negative"}),
    "SimConfig-replicates": (lambda v: SimConfig(replicates=v).replicates, "replicates",
                             {1: 1, 0: "replicates must be at least 1"}),
    "SimConfig-seed": (lambda v: SimConfig(seed=v).seed, "seed",
                       {0: 0, -1: "seed must be non-negative"}),
    "EventSeries-length": (lambda v: EventSeries(v, ()).length, "series length",
                           {1: 1, 0: "series length must be at least 1"}),
    "DayGrid-length": (lambda v: DayGrid(date(2020, 1, 1), v).length, "series length",
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
    "steps_at_least-m": (lambda v: steps_at_least([1, 0], v).tolist(), "m",
                         {2: [2, 1, 0], -1: "m must be non-negative"}),
    "compute_tcp-m": (lambda v: compute_tcp(EventSeries(2, [1]), [1, 0], v).tolist(), "m",
                      {2: [1, 0], -1: "m must be non-negative"}),
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
                                 "n", {1: [1], -1: "n must be non-negative"}),
    "gen_dependent_events-n": (lambda v: _occurrences(gen_dependent_events(PEAK, v, 1.0, 1, 0)),
                               "n", {1: [1], -1: "n must be non-negative"}),
    "gen_dependent_events-lag": (lambda v: _occurrences(gen_dependent_events(PEAK, 1, 1.0, v, 0)),
                                 "lag", {1: [1], -1: "lag must be non-negative"}),
}


# the filter orders are read as one array: a list is a set of orders, an empty one none
ORDERS_GIVEN = {"one-element-list": (1,), "empty-tuple": "need at least one filter order"}
ARRAY_SETTINGS = {"SimConfig-ma_orders": ORDERS_GIVEN, "SimConfig-ma_orders-scalar": ORDERS_GIVEN}


def _setting_rows():
    for name, cases in COUNT_FLOORS.items():
        for value, text in cases.items():
            below = "negative" if value < 0 else value
            yield f"{name}-{below}", SCALAR_ENTRIES[name][0], value, text
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
            yield f"{name}-{kind}", call, value, ARRAY_SETTINGS.get(name, {}).get(
                kind, f"{what} must be a single integer-valued number")


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
    for value in ([2.0**63], [-2.0**63], [-math.inf], np.array([1, None], dtype=object), b"1",
                  np.array([2**63 + 5], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^count must be integer-valued$"):
            integer_array(value, "count")
    largest = np.array([2**63 - 1, 0], dtype=np.uint64)
    assert integer_array(largest, "count").tolist() == [2**63 - 1, 0]


def test_integer_array_reads_half_floats_without_a_warning():
    # pyproject makes a RuntimeWarning an error: 2.0**63 overflows float16
    half = np.array([1.0, 2.0, -3.0], dtype=np.float16)
    assert integer_array(half, "count").tolist() == [1, 2, -3]
    with pytest.raises(ValueError, match="^count must be integer-valued$"):
        integer_array(np.array([1.5, np.inf], dtype=np.float16), "count")


def test_a_wrapped_unsigned_occurrence_is_not_out_of_order():
    with pytest.raises(ValueError, match="^occurrences must be integer-valued$"):
        EventSeries(10, np.array([3, 2**64 - 1], dtype=np.uint64))


GUMBEL = TimeSeries(GEV_SAMPLE - GEV_SAMPLE.min())   # 40 values, the least of them 0
TWO_EVENTS = EventSeries(40, [1, 2])
POINTWISE = AnalysisConfig(delta=0, min_blocks=2)


def _pointwise(key, **threshold):
    return run_pointwise(POINTWISE, GUMBEL, TWO_EVENTS, **threshold)[key]


def _qtr_column(name, values):
    columns = {"levels": [0.5, 0.75], "thresholds": [1.0, 2.0], "expected_rates": [0.5, 0.25],
               "band_lower_rates": [0.0, 0.0], "band_upper_rates": [1.0, 1.0], name: values}
    return getattr(QtrTable(observed_counts=[1, 0], n_events=1, **columns), name).tolist()


# entry: (call with the real number, the subject of the message, its bounds as the message
#         writes them or None, a float and its result, an int and its result, and an
#         out-of-range value and its message, or None where every finite value is in range);
# the floats are exact in float32, so a float32 reads as the same number
REAL_SCALAR_ENTRIES = {
    "empirical_quantile": (lambda v: empirical_quantile(np.array([3.0, 1.0, 2.0, 4.0]), v),
                           "quantile level", "[0, 1]", (0.5, 2.0), (1, 4.0),
                           (1.5, "quantile level must lie in [0, 1]")),
    "build_ladder_from_quantiles-lo": (
        lambda v: build_ladder_from_quantiles(TimeSeries([0.0, 1.0, 2.0, 3.0, 4.0]), v, 1.0,
                                              3).levels.tolist(),
        "lo", None, (0.5, [0.5, 0.75, 1.0]), (0, [0.0, 0.5, 1.0]),
        (1.5, "need 0 <= lo <= hi <= 1")),
    "build_ladder_from_quantiles-hi": (
        lambda v: build_ladder_from_quantiles(TimeSeries([0.0, 1.0, 2.0, 3.0, 4.0]), 0.0, v,
                                              3).levels.tolist(),
        "hi", None, (0.5, [0.0, 0.25, 0.5]), (1, [0.0, 0.5, 1.0]),
        (1.5, "need 0 <= lo <= hi <= 1")),
    "GevParams-shape": (lambda v: GevParams(v, 0.0, 1.0).shape, "GEV shape", None,
                        (0.5, 0.5), (1, 1.0), None),
    "GevParams-location": (lambda v: GevParams(0.0, v, 1.0).location, "GEV location", None,
                           (0.5, 0.5), (1, 1.0), None),
    "GevParams-scale": (lambda v: GevParams(0.0, 0.0, v).scale, "GEV scale", None,
                        (0.5, 0.5), (1, 1.0), (0.0, "GEV scale must be positive")),
    "gev_sf": (lambda v: gev_sf(v, GevParams(0.0, 0.0, 1.0)), "threshold", None,
               (0.5, -math.expm1(-math.exp(-0.5))), (1, -math.expm1(-math.exp(-1.0))), None),
    "binom_logpmf-p": (lambda v: binom_logpmf([0, 1], 1, v).tolist(),
                       "binomial success probability", "[0, 1]",
                       (0.25, [math.log(0.75), math.log(0.25)]), (1, [-math.inf, 0.0]),
                       (1.5, "binomial success probability must lie in [0, 1]")),
    "binom_cdf-p": (lambda v: binom_cdf(1, v).tolist(), "binomial success probability", "[0, 1]",
                    (0.25, [0.75, 1.0]), (1, [0.0, 1.0]),
                    (-0.5, "binomial success probability must lie in [0, 1]")),
    "binom_tail-p": (lambda v: binom_tail(1, 2, v), "binomial success probability", "[0, 1]",
                     (0.5, 0.75), (1, 1.0),
                     (1.5, "binomial success probability must lie in [0, 1]")),
    "binom_tail-p-k0": (lambda v: binom_tail(0, 2, v), "binomial success probability", "[0, 1]",
                        (0.5, 1.0), (0, 1.0),
                        (1.5, "binomial success probability must lie in [0, 1]")),
    "bernoulli_success_prob": (lambda v: bernoulli_success_prob(v, 1), "p_a", "[0, 1]",
                               (0.5, 0.75), (1, 1.0), (1.5, "p_a must lie in [0, 1]")),
    "reject_set": (lambda v: reject_set(np.array([0.125, 0.75]), v).tolist(), "alpha", None,
                   (0.5, [True, False]), (1, "alpha must lie in (0, 1)"),
                   (-0.5, "alpha must lie in (0, 1)")),
    "AnalysisConfig-qlo": (lambda v: AnalysisConfig(qlo=v).qlo, "qlo", None, (0.5, 0.5), (0, 0.0),
                           (1.5, "need 0 <= qlo <= qhi <= 1")),
    "AnalysisConfig-qhi": (lambda v: AnalysisConfig(qhi=v).qhi, "qhi", None, (0.875, 0.875),
                           (1, 1.0), (0.5, "need 0 <= qlo <= qhi <= 1")),
    "AnalysisConfig-alpha": (lambda v: AnalysisConfig(alpha=v).alpha, "alpha", None,
                             (0.25, 0.25), (1, "alpha must lie in (0, 1)"),
                             (-0.25, "alpha must lie in (0, 1)")),
    "run_pointwise-tau": (lambda v: _pointwise("threshold", tau=v), "tau", None, (0.5, 0.5),
                          (1, 1.0), None),
    "run_pointwise-quantile": (lambda v: _pointwise("quantile_level", quantile=v),
                               "quantile level", "[0, 1]", (0.5, 0.5), (0, 0.0),
                               (1.5, "quantile level must lie in [0, 1]")),
    "gen_dependent_events": (lambda v: _occurrences(gen_dependent_events(PEAK, 1, v, 1, 0)),
                             "trigger_tau", None, (0.5, [1]), (1, [1]),
                             (2.0, "only 0 usable exceedance(s) of 2.0, need 1")),
    "mc_p_value-statistic": (lambda v: mc_p_value(v, [1.0, 2.0, 3.0]), "statistic",
                             "[-inf, inf]", (2.5, 0.5), (1, 1.0), None),
}

# None is "not given" where the call has another threshold to take instead
NONE_GIVEN = {"run_pointwise-tau": "exactly one of tau and quantile is required",
              "run_pointwise-quantile": "exactly one of tau and quantile is required"}
# an infinite NLL is a statistic: the result where inf is read as a value
INFINITE_GIVEN = {"mc_p_value-statistic": 0.25, "mc_p_value-null_stats": 2 / 3}


def _gumbel_sf(v):
    return success_probabilities(v, GevParams(0.0, 0.0, 1.0)).tolist()


# entry: (call with the real numbers, the subject of the message, their bounds as the message
#         writes them or None, floats and their result, ints and their result, the result of
#         the empty tuple, a message or an exception where it raises, and an out-of-range list
#         and its message, or None)
REAL_ARRAY_ENTRIES = {
    "TimeSeries": (lambda v: TimeSeries(v).values.tolist(), "time series values", None,
                   ([0.5, 2.0], [0.5, 2.0]), ([1, 0], [1.0, 0.0]),
                   "time series must contain at least one value", None),
    "ThresholdLadder-thresholds": (lambda v: ThresholdLadder(v).thresholds.tolist(), "thresholds",
                                   None, ([0.5, 2.0], [0.5, 2.0]), ([0, 1], [0.0, 1.0]),
                                   "ladder needs at least one threshold", None),
    "ThresholdLadder-levels": (lambda v: ThresholdLadder([1.0, 2.0], v).levels.tolist(),
                               "quantile levels", "[0, 1]", ([0.25, 0.5], [0.25, 0.5]),
                               ([0, 1], [0.0, 1.0]), "levels must match thresholds in length",
                               ([0.5, 1.5], "quantile levels must lie in [0, 1]")),
    "rung_index-thresholds": (lambda v: rung_index(STEPS, 1, v).tolist(), "thresholds", None,
                              ([0.5, 2.0], [2, 2, 1, 0]), ([0, 1], [2, 2, 2, 0]), [0, 0, 0, 0],
                              None),
    "success_probabilities-thresholds": (
        _gumbel_sf, "thresholds", None,
        ([0.5, 2.0], [-math.expm1(-math.exp(-0.5)), -math.expm1(-math.exp(-2.0))]),
        ([0, 1], [-math.expm1(-1.0), -math.expm1(-math.exp(-1.0))]), [], None),
    "tcp_nll-pis": (lambda v: tcp_nll([1, 1], 1, v), "success probabilities", None,
                    ([0.5, 0.25], 2 * LOG2), ([1, 1], 0.0),
                    "pis must have one entry per ladder threshold",
                    ([1.5, 0.5], "success probabilities must lie in (0, 1]")),
    "SimConfig-thresholds": (lambda v: SimConfig(thresholds=v).thresholds, "thresholds", None,
                             ([0.5, 2.0], (0.5, 2.0)), ([0, 1], (0.0, 1.0)),
                             "ladder needs at least one threshold", None),
    "adjust": (lambda v: adjust(v, "bonferroni").tolist(), "p-values", "[0, 1]",
               ([0.25, 0.5], [0.5, 1.0]), ([0, 1], [0.0, 1.0]), "need at least one p-value",
               ([0.5, 1.5], "p-values must lie in [0, 1]")),
    "reject_set-adjusted": (lambda v: reject_set(v, 0.5).tolist(), "adjusted p-values", "[0, 1]",
                            ([0.25, 0.75], [True, False]), ([0, 1], [True, False]), [],
                            ([0.25, 1.5], "adjusted p-values must lie in [0, 1]")),
    "mc_p_value-null_stats": (lambda v: mc_p_value(2.0, v), "null statistics", "[-inf, inf]",
                              ([0.5, 2.5], 2 / 3), ([0, 1], 1 / 3), "need at least one replicate",
                              None),
    "fit_gev_mle": (lambda v: fit_gev_mle(v, min_samples=3).n_samples, "block maxima", None,
                    ([0.5, 1.0, 2.0], 3), ([0, 1, 2], 3),
                    GevFitError("need at least 3 block maxima, got 0"), None),
    "empirical_quantile-values": (lambda v: empirical_quantile(v, 0.5), "values", None,
                                  ([0.5, 2.0], 0.5), ([1, 0], 0.0), "need at least one value",
                                  None),
    "trailing_mean-values": (lambda v: trailing_mean(v, 2).tolist(), "values", None,
                             ([0.5, 2.0], [0.5, 1.25]), ([1, 0], [1.0, 0.5]), [], None),
    **{f"QtrTable-{name}": ((lambda v, name=name: _qtr_column(name, v)), name.replace("_", " "),
                            None, ([0.25, 0.5], [0.25, 0.5]), ([1, 0], [1.0, 0.0]),
                            "QTR table needs at least one row" if name == "levels"
                            else "QTR table columns must have equal length", None)
       for name in ("levels", "thresholds", "expected_rates", "band_lower_rates",
                    "band_upper_rates")},
}


def _real_rows():
    for name, (call, what, bounds, (real, result), (whole, whole_result), outside) in (
            REAL_SCALAR_ENTRIES.items()):
        unreadable = f"{what} must be a real number"
        non_finite = f"{what} must lie in {bounds}" if bounds else f"{what} must be finite"
        yield f"{name}-float", call, real, result
        yield f"{name}-float64", call, np.float64(real), result
        yield f"{name}-float32", call, np.float32(real), result
        yield f"{name}-int", call, whole, whole_result
        yield f"{name}-bool", call, bool(whole), whole_result
        yield f"{name}-numpy-bool", call, np.bool_(whole), whole_result
        yield f"{name}-text", call, str(real), unreadable
        yield f"{name}-None", call, None, NONE_GIVEN.get(name, unreadable)
        yield f"{name}-nan", call, math.nan, non_finite
        yield f"{name}-inf", call, math.inf, INFINITE_GIVEN.get(name, non_finite)
        yield f"{name}-one-element-list", call, [real], unreadable
        if outside:
            yield f"{name}-out-of-range", call, *outside
    for name, (call, what, bounds, (reals, result), (wholes, whole_result), empty, outside) in (
            REAL_ARRAY_ENTRIES.items()):
        unreadable = f"{what} must be real numbers"
        non_finite = f"{what} must lie in {bounds}" if bounds else f"{what} must be finite"
        yield f"{name}-float-list", call, reals, result
        yield f"{name}-float64-array", call, np.array(reals), result
        yield f"{name}-float32-array", call, np.array(reals, dtype=np.float32), result
        yield f"{name}-int-list", call, wholes, whole_result
        yield f"{name}-bool-array", call, np.array(wholes, dtype=bool), whole_result
        yield f"{name}-empty-tuple", call, (), empty
        yield f"{name}-text", call, [str(v) for v in reals], unreadable
        yield f"{name}-None", call, [None, *reals[1:]], unreadable
        yield f"{name}-nan", call, [math.nan, *reals[1:]], non_finite
        yield f"{name}-inf", call, [*reals[:-1], math.inf], INFINITE_GIVEN.get(name, non_finite)
        if outside:
            yield f"{name}-out-of-range", call, *outside


REAL_ROWS = list(_real_rows())


@pytest.mark.parametrize("call, value, expected", [row[1:] for row in REAL_ROWS],
                         ids=[row[0] for row in REAL_ROWS])
def test_every_real_input_follows_the_real_rule(call, value, expected):
    if isinstance(expected, (str, Exception)):
        error = ValueError(expected) if isinstance(expected, str) else expected
        with pytest.raises(type(error)) as raised:
            call(value)
        assert str(raised.value) == str(error)
    else:
        # a Python float, not a NumPy scalar, so a config field or report entry dumps as JSON
        result = call(value)
        assert type(result) is type(expected)
        if isinstance(expected, (list, tuple)):
            assert list(map(type, result)) == list(map(type, expected))
        np.testing.assert_allclose(result, expected, rtol=1e-15, atol=0)


def test_real_array_keeps_float64_and_refuses_what_is_not_real():
    values = np.linspace(0.0, 1.0, 5)
    assert real_array(values, "x") is values   # no copy of a float64 array
    for value in (np.array([1, 2], dtype=np.uint64), np.array([0.5], dtype=np.float16), 7, True):
        assert real_array(value, "x").dtype == np.float64
    assert real_array([2.0**1023, -1e-300], "x").tolist() == [2.0**1023, -1e-300]
    for value in ([1 + 2j], b"1", np.array(["2020-01-01"], dtype="M8[D]"), [[1.0], ["a"]]):
        with pytest.raises(ValueError, match="^x must be real numbers$"):
            real_array(value, "x")
    with pytest.raises(ValueError, match=r"^x must lie in \[-1, 1\]$"):
        real_array([-1.0, 1.0, 1.5], "x", -1, 1)


def test_real_scalar_reads_python_numbers_exactly_and_refuses_arrays():
    assert real_scalar(2**53 + 1, "x") == float(2**53 + 1)
    assert real_scalar(np.array(0.5), "x") == 0.5   # a 0-d array is one number
    assert type(real_scalar(np.float64(0.5), "x")) is float
    assert real_scalar(np.uint64(2**64 - 1), "x") == 2.0**64
    assert real_scalar(np.float32(0.9), "x") == 0.8999999761581421
    for value in (10**400, -(10**400), math.nan):
        with pytest.raises(ValueError, match="^x must be finite$"):
            real_scalar(value, "x")
    for value in ((), (0.5,), np.array([0.5]), 1 + 0j, b"1", object()):
        with pytest.raises(ValueError, match="^x must be a real number$"):
            real_scalar(value, "x")
    assert real_scalar(1, "x", 0, 1) == 1.0   # the bounds are closed
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
        real_scalar(-0.0001, "x", 0, 1)


@pytest.mark.parametrize("call, what", [
    (lambda v: AnalysisConfig(preprocess=v).preprocess, "preprocess"),
    (lambda v: bool_scalar(v, "fill_zero"), "fill_zero"),
], ids=["AnalysisConfig-preprocess", "bool_scalar"])
def test_flags_take_true_or_false_only(call, what):
    for value in (True, np.True_, False, np.False_):
        result = call(value)
        assert result is bool(value)   # the Python bool, which dumps as JSON
    for value in ("no", "", None, 0, 1, 1.0, np.int64(1), [True]):
        with pytest.raises(ValueError, match=f"^{what} must be True or False$"):
            call(value)
