"""One integer rule for every count the library takes.

Each public entry that takes a count is called with one count argument set
to each input of a fixed set.  Integer lists, bool arrays and whole-number
floats give one result; a fraction, nan, inf or text raises
``ValueError("<what> must be integer-valued")``, never a truncated count, a
parsed string, an ``IndexError`` or NumPy's own message.
"""

import math

import numpy as np
import pytest

from peca.multi import (
    compute_tcp,
    dp_extreme_nll,
    expected_process_with_band,
    null_nll_replicates,
    steps_at_least,
    tcp_nll,
)
from peca.nulls import binom_cdf, binom_logpmf, binom_tail
from peca.qtr import QtrTable
from peca.series import EventSeries, integer_array

LOG2 = math.log(2.0)


def _qtr_counts(counts):
    return QtrTable(levels=[0.5, 0.9], thresholds=[1.0, 2.0], observed_counts=counts, n_events=1,
                    expected_rates=[0.5, 0.25], band_lower_rates=[0.0, 0.0],
                    band_upper_rates=[1.0, 1.0]).observed_counts.tolist()


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
# a count that is one number has no empty form
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
}

INVALID = {"fraction": 1.7, "nan": math.nan, "inf": math.inf, "text": "2"}


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
