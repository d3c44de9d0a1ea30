"""What several test files share: the input writers, the CLI runner and the exact references."""

import contextlib
import datetime
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import chi2

from peca.cli import main

SERIES_HEAD = "date,value\n"


def series_text(start, values):
    """A ``date,value`` series of ``values`` on consecutive days from the ISO date ``start``.

    Each value is written as given (an array's as ``tolist`` gives them), so
    text such as ``"007.50"`` keeps its digits.
    """
    day = datetime.date.fromisoformat(start)
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return SERIES_HEAD + "".join(
        f"{day + datetime.timedelta(days=i)},{v}\n" for i, v in enumerate(values))


def write_inputs(directory, values, days, start, names=("series.csv", "events.txt")):
    """Write ``series_text(start, values)`` and the event dates ``start + days`` (day offsets,
    from 0) into ``directory`` under ``names``; returns the two paths."""
    series, events = (directory / name for name in names)
    series.write_text(series_text(start, values), encoding="utf-8")
    day = datetime.date.fromisoformat(start)
    events.write_text("".join(f"{day + datetime.timedelta(days=int(d))}\n" for d in days),
                      encoding="utf-8")
    return series, events


def run_cli(argv):
    """Exit code, stdout and stderr of ``peca.cli.main``, each argument passed as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def monotone_processes(m, n):
    """Every non-increasing process of m counts in [0, n], as tuples."""
    for ks in itertools.product(range(n + 1), repeat=m):
        if all(a >= b for a, b in zip(ks, ks[1:])):
            yield ks


def placement_law(rungs, n, m):
    """Exact law of the process of n events placed uniformly on distinct steps of ``rungs``.

    Enumerates all C(T, n) placements on the T <= 12 steps and counts each
    one's process with a plain loop: entry i - 1 is its events at rung >= i,
    for i = 1..m.  Returns {process: probability} with Fraction values.
    """
    rungs = [int(r) for r in rungs]
    law = Counter(tuple(sum(r >= i for r in placed) for i in range(1, m + 1))
                  for placed in itertools.combinations(rungs, n))
    total = math.comb(len(rungs), n)
    return {process: Fraction(count, total) for process, count in law.items()}


def placement_p_value(processes, law):
    """Chi-square p-value of drawn processes, one per row, against a ``placement_law``.

    Asserts that every row lies in the law's support; the test runs over the
    processes expected at least 5 times, and a law of one point gives 1.0.
    """
    observed = Counter(map(tuple, np.asarray(processes).tolist()))
    assert set(observed) <= set(law)
    if len(law) == 1:
        return 1.0
    rows = observed.total()
    expected = {process: rows * p for process, p in law.items() if rows * p >= 5}
    stat = sum((observed[process] - e) ** 2 / e for process, e in expected.items())
    return float(chi2.sf(float(stat), len(expected) - 1))


def sup_distances(cmfs):
    """(order, tau, [Bernoulli, GEV]) sup-distances of the analytical CMFs from the empirical one."""
    return np.abs(cmfs[:, :, 1:] - cmfs[:, :, :1]).max(axis=-1)
