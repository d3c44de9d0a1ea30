"""Event series, time series, and the rung index that every trigger count reads.

An event series marks occurrences (attacks, outages, announcements) on a
discrete time grid; a time series holds one real value per step.  An event
at step t is triggered at threshold tau when the window [t, t+delta] holds a
strict exceedance of tau.  ``rung_index`` gives every step its rung against
an ascending ladder of thresholds, and ``multi.compute_tcp`` counts the
events over those rungs; a single threshold is a ladder of one.
"""

from __future__ import annotations

import numbers
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
    that are all whole and below 2**63 in size; a fraction, nan, inf or text raises ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu" and not (
            arr.dtype.kind == "f" and np.all((np.trunc(arr) == arr) & (np.abs(arr) < 2.0**63))):
        raise ValueError(f"{what} must be integer-valued")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class EventSeries:
    """Sparse binary series: sorted 1-based occurrence indices on a grid of ``length`` steps,
    read by ``integer_array``, so a fractional index raises ValueError instead of truncating."""

    length: int
    occurrences: np.ndarray

    def __post_init__(self):
        if not isinstance(self.length, numbers.Integral) or self.length < 1:
            raise ValueError("series length must be an integer of at least 1")
        occ = integer_array(self.occurrences, "occurrences").ravel()
        if np.any(np.diff(occ) <= 0):
            raise ValueError("occurrences must be strictly increasing")
        if occ.size and (occ[0] < 1 or occ[-1] > self.length):
            raise ValueError(f"occurrences must lie in [1, {self.length}]")
        object.__setattr__(self, "occurrences", frozen_copy(occ))

    @property
    def n_events(self) -> int:
        return int(self.occurrences.size)


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued series; values must be finite."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size < 1:
            raise ValueError("time series must contain at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("time series values must be finite")
        object.__setattr__(self, "values", frozen_copy(vals))

    @property
    def length(self) -> int:
        return int(self.values.size)


def _check_delta(delta: int, length: int) -> None:
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta >= length:
        raise ValueError(f"delta must be smaller than the series length ({length})")


def rung_index(x: TimeSeries, delta: int, thresholds) -> np.ndarray:
    """Rung of every step: how many ``thresholds`` its window maximum strictly exceeds.

    Entry t-1 belongs to step t and counts the thresholds below the maximum
    of x over [t, t+delta]; the final ``delta`` steps, whose window runs past
    the end, get rung 0.  ``thresholds`` must be ascending.  An event at step
    t counts at the i-th threshold (1-based) exactly when its rung is >= i,
    so every trigger count along a ladder is a count over this array.
    """
    _check_delta(delta, x.length)
    thr = np.asarray(thresholds, dtype=float).ravel()
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
    a full window.  ``cumsum`` adds in sequence, so the result for a prefix
    of ``values`` is the same prefix of the result, bit for bit.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    cs = np.cumsum(values, dtype=np.float64)
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
    if window < 1:
        raise ValueError("window must be at least 1")
    if np.any(x.values < 0):
        raise ValueError("preprocess requires non-negative values")
    logs = np.log2(x.values + 1.0)
    means = np.empty_like(logs)
    means[0] = logs[0]
    means[1:] = trailing_mean(logs[:-1], window)
    return TimeSeries(values=logs - means)


def late_events(e: EventSeries, delta: int) -> np.ndarray:
    """Occurrences in the final ``delta`` steps, which no trigger window can count."""
    _check_delta(delta, e.length)
    return np.array(e.occurrences[e.occurrences > e.length - delta])
