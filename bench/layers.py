"""Per-layer metrics: which spans and import timings feed them, and what each should move.

``PER_LAYER`` is the one list of per-layer metrics; ``BENCHMARK.json`` repeats
its names, units and directions, and ``test_bench.py`` keeps the two equal.
``moves`` names the end-to-end metric, and the workloads, that a change in the
layer metric should show up in.
"""

from __future__ import annotations

import json
import re
import statistics
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


def _self(fn: str, moves: str) -> LayerMetric:
    return LayerMetric(f"{fn}.self_s", "s", "lower", moves)


def _calls(fn: str, moves: str) -> LayerMetric:
    return LayerMetric(f"{fn}.calls", "count", "lower", moves)


_IMPORTS = "setup_s everywhere; most of pointwise_s on paper-daily and of job_s on simulate"
_INGEST = "pointwise_s, multi_s and peak_rss_mb on long-hourly; no move on paper-daily"
_NULL_LOOP = "multi_s (fig4 on simulate) and job_s on every workload; never pointwise_s"
_APPENDIX_B1 = "pointwise_s (appendix-b1) and job_s on simulate only"
_CONTROL = "nothing end to end (a control of a few ms)"

PER_LAYER = (
    # cli, with imports: cumulative times from `python -X importtime -c "import peca.cli"`
    LayerMetric("import.peca_cli_s", "s", "lower", _IMPORTS),
    LayerMetric("import.scipy_stats_s", "s", "lower", _IMPORTS),
    LayerMetric("import.scipy_optimize_s", "s", "lower", _IMPORTS),
    LayerMetric("import.numpy_s", "s", "lower", _IMPORTS),
    _self("cli.main", "pointwise_s and multi_s by a few ms"),
    # ingest
    _self("ingest.ingest_timeseries", _INGEST),
    LayerMetric("ingest.rows_per_s", "rows/s", "higher", _INGEST),
    _self("ingest.ingest_events", _INGEST),
    # series
    _self("series.preprocess", "pointwise_s on long-hourly"),
    _self("series.count_trigger_exceedances", "pointwise_s on long-hourly"),
    # nulls: 10-45 ms per fit today
    _self("nulls.block_maxima", _CONTROL),
    _self("nulls.fit_gev_mle", _CONTROL),
    _self("nulls.binom_tail", _CONTROL),
    _calls("nulls.fit_gev_mle", _CONTROL),
    _calls("nulls.binom_tail", _CONTROL),
    _calls("nulls.binom_logpmf", _CONTROL),
    # multi: the null loop
    _self("multi.null_nll_replicates", _NULL_LOOP),
    _self("multi.permute_events", _NULL_LOOP),
    _self("multi.replicate_rng", _NULL_LOOP),
    _calls("multi.permute_events", _NULL_LOOP),
    LayerMetric("multi.replicates_per_s", "replicates/s", "higher", _NULL_LOOP),
    # multi: the rest
    _self("multi.compute_tcp", "multi_s on long-hourly"),
    _calls("multi.compute_tcp", "multi_s on long-hourly"),
    _self("multi.build_ladder_from_quantiles", "multi_s on long-hourly"),
    _calls("multi.success_probabilities", "multi_s by a few ms"),
    _self("multi.expected_process_with_band", "multi_s by a few ms"),
    _self("multi.pointwise_tests_along_ladder", "multi_s by a few ms"),
    _self("multi.dp_extreme_nll", "multi_s (fig4) on simulate"),
    # adjust, qtr
    _self("adjust.adjust", _CONTROL),
    _self("qtr.write_qtr_csv", _CONTROL),
    _self("qtr.write_qtr_svg", _CONTROL),
    # sim
    _self("sim.null_distribution_comparison", _APPENDIX_B1),
    _self("sim.gen_independent_events", _APPENDIX_B1),
    _calls("sim.gen_independent_events", _APPENDIX_B1),
    _self("sim.gen_ma_exponential", "pointwise_s and multi_s on simulate only"),
    _self("sim.write_comparison_csv", _APPENDIX_B1),
    # the tracing itself
    LayerMetric("trace.overhead_s", "s", "lower", "nothing: traced job_s minus untraced job_s"),
)

IMPORT_MODULES = {
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.numpy_s": "numpy",
}

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import metrics from ``-X importtime`` output; a module never imported is absent.

    ``import.peca_cli_s`` sums the top-level entries of the ``peca`` package,
    which is everything the statement ``import peca.cli`` imports.
    """
    cumulative: dict[str, float] = {}
    peca_total = 0.0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        seconds, indent, module = int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)
        cumulative.setdefault(module, seconds)
        if indent == 1 and (module == "peca" or module.startswith("peca.")):
            peca_total += seconds
    out = {metric: cumulative[mod] for metric, mod in IMPORT_MODULES.items() if mod in cumulative}
    if peca_total:
        out["import.peca_cli_s"] = peca_total
    return out


@dataclass
class FunctionTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate_spans(paths) -> tuple[set[str], dict[str, FunctionTotals]]:
    """Sum calls, inclusive and self time per function over the span files of one job.

    Returns the names of every wrapped function (present in the program,
    called or not) and the totals of those that were called.
    """
    wrapped: set[str] = set()
    totals: dict[str, FunctionTotals] = defaultdict(FunctionTotals)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        wrapped.update(names)
        child_s = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name_id, start, end, _) in enumerate(spans):
            t = totals[names[name_id]]
            t.calls += 1
            t.total_s += end - start
            t.self_s += end - start - child_s[i]
    return wrapped, dict(totals)


def job_layer_metrics(wrapped: set[str], totals: dict[str, FunctionTotals],
                      rows_per_ingest: int, replicates_per_call: int) -> dict[str, float]:
    """Per-layer values of one traced job.

    ``.calls`` is reported for every function the program still has, 0 when
    this workload never calls it; times and rates only for functions called.
    A function the program no longer has yields no metric here (``select``
    then reads it as 0).
    """
    out: dict[str, float] = {}
    for fn in sorted(wrapped):
        t = totals.get(fn)
        out[f"{fn}.calls"] = t.calls if t else 0
        if t:
            out[f"{fn}.self_s"] = t.self_s
    ingest = totals.get("ingest.ingest_timeseries")
    if ingest and ingest.total_s > 0:
        out["ingest.rows_per_s"] = ingest.calls * rows_per_ingest / ingest.total_s
    loop = totals.get("multi.null_nll_replicates")
    if loop and loop.total_s > 0:
        out["multi.replicates_per_s"] = loop.calls * replicates_per_call / loop.total_s
    return out


def select(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median over samples of every listed per-layer metric.

    Each sample holds one round's values.  A metric missing from a sample
    reads 0 there: no time spent, no calls, no module imported.  The result
    line must hold every listed metric, so a function this workload never
    calls, or one the program no longer has, reads 0 rather than being left out.
    """
    return {m.name: statistics.median(s.get(m.name, 0.0) for s in samples) for m in PER_LAYER}
