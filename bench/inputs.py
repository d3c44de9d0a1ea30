"""Seeded synthetic inputs for the benchmark workloads.

Every input file is a pure function of (workload, seed).  The raw values are
returned alongside the paths so the output checks can recount from them
without reading the program's own parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

START = np.datetime64("2000-01-01", "D")


@dataclass(frozen=True)
class SeriesInput:
    series_path: Path
    events_path: Path
    values: np.ndarray      # raw series values, one per step
    events: np.ndarray      # sorted 1-based event steps


def _dates(steps) -> np.ndarray:
    return (START + np.asarray(steps, dtype=np.int64)).astype(str)


def _write(series_path: Path, events_path: Path, values: np.ndarray, events: np.ndarray) -> None:
    dates = _dates(np.arange(values.size))
    with open(series_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,value\n")
        fh.write("\n".join(f"{d},{v}" for d, v in zip(dates.tolist(), values.tolist())))
        fh.write("\n")
    with open(events_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"{d}\n" for d in _dates(events - 1).tolist()))


def paper_daily(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The shape of the paper's reported case: 1096 daily counts, 17 events.

    Weekly-cycled Poisson counts with rare bursts, events uniform over all days.
    """
    t = 1096
    base = rng.poisson(40 + 12 * np.sin(np.arange(t) * 2 * np.pi / 7.0))
    bursts = (rng.random(t) < 0.03) * rng.poisson(300, t)
    events = np.sort(rng.choice(t, size=17, replace=False)) + 1
    return (base + bursts).astype(np.int64), events


def long_hourly(rng: np.random.Generator, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """The large shape: 2**20 hourly counts with a daily cycle, 1000 events.

    999 events fall uniformly in the steps a trigger window can count; one
    falls in the final ``delta`` steps, the late-event edge case, so every
    seed exercises it instead of roughly one seed in seven.
    """
    t, n = 1 << 20, 1000
    base = rng.poisson(20 + 8 * np.sin(np.arange(t) * 2 * np.pi / 24.0))
    bursts = (rng.random(t) < 0.002) * rng.poisson(120, t)
    early = rng.choice(t - delta, size=n - 1, replace=False) + 1
    late = t - delta + 1 + rng.integers(delta)
    return (base + bursts).astype(np.int64), np.sort(np.append(early, late))


def make_series_input(workload: str, seed: int, out_dir: Path, delta: int) -> SeriesInput:
    """Write the series CSV and event file of ``workload`` under ``out_dir``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, sum(map(ord, workload))]))
    if workload == "paper-daily":
        values, events = paper_daily(rng)
    elif workload == "long-hourly":
        values, events = long_hourly(rng, delta)
    else:
        raise ValueError(f"no series input for workload {workload!r}")
    series_path, events_path = out_dir / "series.csv", out_dir / "events.txt"
    _write(series_path, events_path, values, events)
    return SeriesInput(series_path, events_path, values, events)
