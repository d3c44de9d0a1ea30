"""Event series, time series, and the rung index that every trigger count reads.

An event series marks occurrences (attacks, outages, announcements) on a
discrete time grid; a time series holds one real value per step.  An event
at step t is triggered at threshold tau when the window [t, t+delta] holds a
strict exceedance of tau.  ``rung_index`` gives every step its rung against
an ascending ladder of thresholds, and ``multi.compute_tcp`` counts the
events over those rungs; a single threshold is a ladder of one.

Every input the library takes is read here, each by one rule: counts, sizes
and settings by ``integer_array`` (``integer_scalar`` for one number), real
numbers by ``real_array`` (``real_scalar`` for one number) and flags by
``bool_scalar``.  Each refuses what it cannot read with one ValueError and
returns the Python type that a report dumps as JSON.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["EventSeries", "TimeSeries", "rung_index", "trailing_mean", "preprocess",
           "late_events"]


def frozen_copy(arr: np.ndarray) -> np.ndarray:
    """Read-only copy of ``arr``, for the array fields of frozen containers."""
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def integer_array(values, what: str) -> np.ndarray:
    """Counts as int64: integer and bool arrays pass, int64 ones without a copy, and so do floats
    that are all whole and below 2**63 in size; a fraction, nan, inf, text or a larger uint64
    raises ValueError."""
    arr = np.asarray(values)
    kind = arr.dtype.kind   # float magnitudes are compared in float64: 2.0**63 overflows float16
    if not (kind in "bi" or (kind == "u" and np.all(arr < 2**63)) or (kind == "f" and np.all(
            (np.trunc(arr) == arr) & (np.abs(arr, dtype=np.float64) < 2.0**63)))):
        raise ValueError(f"{what} must be integer-valued")
    return arr.astype(np.int64, copy=False)


def integer_scalar(value, what: str, minimum: int | None = None) -> int:
    """One count, size or setting as an int.  Python and NumPy ints pass exactly, whatever their
    size; anything else is read by ``integer_array``, and an array of any shape, even of one
    entry or none, raises ValueError.  So does a value below ``minimum``: "<what> must be
    non-negative" for 0 and "<what> must be at least <minimum>" otherwise."""
    if isinstance(value, (int, np.integer)):
        number = int(value)
    else:
        arr = integer_array(value, what)
        if arr.ndim:
            raise ValueError(f"{what} must be a single integer-valued number")
        number = int(arr)
    if minimum is not None and number < minimum:
        raise ValueError(f"{what} must be non-negative" if minimum == 0
                         else f"{what} must be at least {minimum}")
    return number


def real_array(values, what: str, low=None, high=None) -> np.ndarray:
    """Reals as float64: bool, integer and float arrays pass, float64 ones without a copy, and
    text, None, complex or objects raise "<what> must be real numbers"; nan and inf raise "<what>
    must be finite", or with bounds, as any value outside them, "<what> must lie in [low, high]"."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers")
    arr = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(arr) if low is None else (arr >= low) & (arr <= high)):
        raise ValueError(f"{what} must be finite" if low is None
                         else f"{what} must lie in [{low}, {high}]")
    return arr


def real_scalar(value, what: str, low=None, high=None) -> float:
    """One real as a Python float, read by ``real_array`` as a 0-d array; text or an array of any
    shape raises "<what> must be a real number".  A Python int (bools too) is made a float
    first, or inf past the float range, which the read refuses: NumPy holds no wider int."""
    if isinstance(value, int):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if (arr := np.asarray(value)).dtype.kind not in "biuf" or arr.ndim:
        raise ValueError(f"{what} must be a real number")
    return float(real_array(arr, what, low, high))


def bool_scalar(value, what: str) -> bool:
    """True or False as a Python bool; NumPy's bools pass, anything else raises ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be True or False")
    return bool(value)


@dataclass(frozen=True)
class EventSeries:
    """Sparse binary series: sorted 1-based occurrence indices on a grid of ``length`` steps."""

    length: int
    occurrences: np.ndarray

    def __post_init__(self):
        length = integer_scalar(self.length, "series length", 1)
        object.__setattr__(self, "length", length)
        occ = integer_array(self.occurrences, "occurrences").ravel()
        if np.any(np.diff(occ) <= 0):
            raise ValueError("occurrences must be strictly increasing")
        if occ.size and (occ[0] < 1 or occ[-1] > length):
            raise ValueError(f"occurrences must lie in [1, {length}]")
        object.__setattr__(self, "occurrences", frozen_copy(occ))

    @property
    def n_events(self) -> int:
        return int(self.occurrences.size)


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued series: values must be finite."""

    values: np.ndarray

    def __post_init__(self):
        vals = real_array(self.values, "time series values").ravel()
        if vals.size < 1:
            raise ValueError("time series must contain at least one value")
        object.__setattr__(self, "values", frozen_copy(vals))

    @property
    def length(self) -> int:
        return int(self.values.size)


def _check_delta(delta: int, length: int) -> int:
    delta = integer_scalar(delta, "delta", 0)
    if delta >= length:
        raise ValueError(f"delta must be smaller than the series length ({length})")
    return delta


def rung_index(x: TimeSeries, delta: int, thresholds) -> np.ndarray:
    """Rung of every step: how many ``thresholds`` its window maximum strictly exceeds.

    Entry t-1 belongs to step t and counts the thresholds below the maximum
    of x over [t, t+delta]; the final ``delta`` steps, whose window runs past
    the end, get rung 0.  ``thresholds`` must be ascending.  An event at step
    t counts at the i-th threshold (1-based) exactly when its rung is >= i,
    so every trigger count along a ladder is a count over this array.
    """
    delta = _check_delta(delta, x.length)
    thr = real_array(thresholds, "thresholds").ravel()
    if np.any(np.diff(thr) < 0):
        raise ValueError("thresholds must be ascending")
    # window maxima by doubling: after each pass span_max[s] is the maximum over
    # [s, s + span); two spans of the largest power of two <= delta + 1, one
    # flush with each end, cover the window exactly
    n = x.length - delta
    span_max, span = x.values, 1
    while 2 * span <= delta + 1:
        span_max = np.maximum(span_max[:-span], span_max[span:])
        span *= 2
    window_max = np.maximum(span_max[:n], span_max[delta + 1 - span:delta + 1 - span + n])
    rungs = np.zeros(x.length, dtype=np.int64)
    rungs[:n] = np.searchsorted(thr, window_max, side="left")
    return rungs


def trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Mean of each entry and the ``window`` - 1 entries before it.

    The first ``window`` - 1 entries average the available prefix instead of
    a full window.  ``values`` are read by ``real_array``.  ``cumsum`` adds in
    sequence, so the result for a prefix of ``values`` is the same prefix of
    the result, bit for bit.
    """
    window = integer_scalar(window, "window", 1)
    cs = np.cumsum(real_array(values, "values").ravel())
    head = min(window, cs.size)
    out = np.empty_like(cs)
    out[:head] = cs[:head] / np.arange(1, head + 1)
    np.subtract(cs[window:], cs[:-window], out=out[window:])
    out[head:] /= window
    return out


def preprocess(x: TimeSeries, window: int) -> TimeSeries:
    """log2(x+1) minus the running mean of the preceding ``window`` transformed values.

    Detrends heavy-tailed count data.  The mean window expands at the start:
    step t averages the transformed values of steps max(1, t-window)..t-1,
    and step 1 subtracts its own value, so the first output is always 0.
    Requires non-negative input; output length equals input length.
    """
    window = integer_scalar(window, "window", 1)
    if np.any(x.values < 0):
        raise ValueError("preprocess requires non-negative values")
    logs = np.log2(x.values + 1.0)
    means = np.empty_like(logs)
    means[0] = logs[0]
    means[1:] = trailing_mean(logs[:-1], window)
    return TimeSeries(values=logs - means)


def late_events(e: EventSeries, delta: int) -> np.ndarray:
    """Occurrences in the final ``delta`` steps, which no trigger window can count."""
    delta = _check_delta(delta, e.length)
    return np.array(e.occurrences[e.occurrences > e.length - delta])
