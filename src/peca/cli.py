"""Command-line front end: ingest daily data, run the tests, write reports.

Three subcommands: ``pointwise`` (single-threshold test), ``multi``
(multi-threshold Monte Carlo test with a QTR table), and ``simulate``
(bundled simulation studies).  Reports are JSON with a stable key order;
errors go to stderr as one JSON object with a machine-readable category,
and the exit code is 0 only when every requested output was written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .adjust import METHODS, adjust, reject_set
from .ingest import IngestError, ingest_events, ingest_timeseries
from .multi import (build_ladder_from_quantiles, compute_tcp, dp_extreme_nll, empirical_quantile,
                    expected_process_with_band, mc_multi_threshold_test, null_nll_replicates,
                    pointwise_tests_along_ladder, success_probabilities, tcp_nll)
from .nulls import GevFit, GevFitError, block_maxima, estimate_event_rate, fit_gev_mle, gev_null_pvalue
from .qtr import QtrTable, write_qtr_csv, write_qtr_svg
from .series import (EventSeries, TimeSeries, count_trigger_exceedances, late_events, preprocess,
                     rung_index)
from .sim import (SimConfig, gen_dependent_events, gen_independent_events, gen_ma_exponential,
                  null_distribution_comparison, write_comparison_csv, _substream)

__all__ = ["AnalysisConfig", "run_pointwise", "run_multi", "run_simulate", "main"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis settings; defaults suit daily data with a week of tolerance."""

    delta: int = 7
    qlo: float = 0.75
    qhi: float = 1.0
    m: int = 32
    r: int = 10000
    alpha: float = 0.05
    adjust_method: str = "holm"
    seed: int = 0
    preprocess: bool = False
    window: int = 30
    min_blocks: int = 20

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if not 0.0 <= self.qlo <= self.qhi <= 1.0:
            raise ValueError("need 0 <= qlo <= qhi <= 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.adjust_method not in METHODS:
            raise ValueError(f"adjust method must be one of {METHODS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.min_blocks < 2:
            raise ValueError("min_blocks must be at least 2")


def _gev_dict(fit: GevFit) -> dict:
    return {
        "shape": fit.params.shape,
        "location": fit.params.location,
        "scale": fit.params.scale,
        "converged": fit.converged,
        "nll": fit.nll,
        "n_blocks": fit.n_samples,
    }


def _late_event_warning(events: EventSeries, delta: int, warn: list[str]) -> None:
    late = late_events(events, delta)
    if late.size:
        warn.append(f"{late.size} event(s) in the final {delta} steps can never be counted "
                    f"but stay in the rate denominator: steps {late.tolist()}")


def run_pointwise(config: AnalysisConfig, series: TimeSeries, events: EventSeries,
                  tau: float | None = None, quantile: float | None = None,
                  warnings: list[str] | None = None) -> dict:
    """Single-threshold trigger test; returns the JSON-ready report dict."""
    if (tau is None) == (quantile is None):
        raise ValueError("exactly one of tau and quantile is required")
    warn = list(warnings or [])
    x = preprocess(series, config.window) if config.preprocess else series
    if quantile is not None:
        threshold = empirical_quantile(np.sort(x.values), quantile)
    else:
        threshold = float(tau)
    fit = fit_gev_mle(block_maxima(x, config.delta), min_samples=config.min_blocks)
    if not fit.converged:
        warn.append("GEV fit did not satisfy the optimizer's convergence test")
    observed = count_trigger_exceedances(events, x, threshold, config.delta)
    test = gev_null_pvalue(observed.count, observed.n_events, threshold, fit.params)
    _late_event_warning(events, config.delta, warn)
    return {
        "command": "pointwise",
        "config": asdict(config),
        "series": {
            "length": x.length,
            "n_events": events.n_events,
            "event_rate": estimate_event_rate(events),
        },
        "threshold": threshold,
        "quantile_level": quantile,
        "k_observed": observed.count,
        "rate": observed.rate,
        "success_prob": test.success_prob,
        "p_value": test.p_value,
        "gev": _gev_dict(fit),
        "warnings": warn,
    }


def run_multi(config: AnalysisConfig, series: TimeSeries, events: EventSeries,
              warnings: list[str] | None = None) -> tuple[dict, QtrTable]:
    """Multi-threshold Monte Carlo test; returns the report dict and QTR table."""
    if events.n_events == 0:
        raise ValueError("multi needs at least one event")
    warn = list(warnings or [])
    x = preprocess(series, config.window) if config.preprocess else series
    ladder = build_ladder_from_quantiles(x, config.qlo, config.qhi, config.m)
    if ladder.n_collapsed:
        warn.append(f"{ladder.n_collapsed} duplicate threshold(s) collapsed; "
                    f"effective ladder size {ladder.m}")
    fit = fit_gev_mle(block_maxima(x, config.delta), min_samples=config.min_blocks)
    if not fit.converged:
        warn.append("GEV fit did not satisfy the optimizer's convergence test")
    _late_event_warning(events, config.delta, warn)

    rungs = rung_index(x, config.delta, ladder.thresholds)
    tcp = compute_tcp(events, rungs, ladder.m)
    pis = success_probabilities(ladder, fit.params)
    result = mc_multi_threshold_test(tcp, rungs, pis, config.r, config.seed)
    pointwise = pointwise_tests_along_ladder(tcp, pis)
    adjusted = adjust([t.p_value for t in pointwise], config.adjust_method)
    rejected = reject_set(adjusted, config.alpha)

    _, lower, upper = expected_process_with_band(events.n_events, pis, level=0.95)
    table = QtrTable(
        levels=ladder.levels,
        thresholds=ladder.thresholds,
        observed_counts=tcp.counts,
        n_events=events.n_events,
        expected_rates=pis,
        band_lower_rates=lower / events.n_events,
        band_upper_rates=upper / events.n_events,
    )
    multi_test = {
        "statistic": result.statistic,
        "replicates": result.replicates,
        "p_hat": result.p_hat,
        "seed": result.seed,
        "null_min": result.null_min,
        "null_median": result.null_median,
        "null_max": result.null_max,
    }
    infinite = [key for key, v in multi_test.items() if not math.isfinite(v)]
    multi_test.update(dict.fromkeys(infinite))
    if infinite:
        warn.append(f"multi_test {', '.join(infinite)} infinite, written as null: the fitted GEV "
                    "null gives a rung success probability 1 (or ties it with the rung below), "
                    "so a count below its predecessor there, as a late event makes, has zero "
                    "likelihood")
    report = {
        "command": "multi",
        "config": asdict(config),
        "series": {
            "length": x.length,
            "n_events": events.n_events,
            "event_rate": estimate_event_rate(events),
        },
        "ladder": {
            "size": ladder.m,
            "requested": config.m,
            "collapsed": ladder.n_collapsed,
            "levels": [float(v) for v in ladder.levels],
            "thresholds": [float(v) for v in ladder.thresholds],
        },
        "gev": _gev_dict(fit),
        "multi_test": multi_test,
        "pointwise": {
            "k_observed": [int(k) for k in tcp.counts],
            "success_probs": [float(t.success_prob) for t in pointwise],
            "raw_p_values": [float(t.p_value) for t in pointwise],
            "adjust_method": config.adjust_method,
            "adjusted_p_values": [float(v) for v in adjusted.adjusted],
            "reject_at_alpha": [bool(v) for v in rejected],
            "alpha": config.alpha,
        },
        "warnings": warn,
    }
    return report, table


def _simulate_comparison(seed: int, out_dir: Path, length: int | None,
                         replicates: int | None, orders: tuple[int, ...] | None) -> dict:
    config = SimConfig(length=length or 4096, ma_orders=orders or (0, 32, 64),
                       replicates=replicates or 1000, seed=seed)
    result = null_distribution_comparison(config)
    csv_path = out_dir / "null_comparison.csv"
    write_comparison_csv(result, csv_path)
    summary = {
        "preset": "appendix-b1",
        "config": {
            "length": config.length,
            "ma_orders": list(config.ma_orders),
            "n_events": config.n_events,
            "delta": config.delta,
            "thresholds": list(config.thresholds),
            "replicates": config.replicates,
            "seed": config.seed,
        },
        "cells": [
            {"order": c.ma_order, "tau": c.tau,
             "sup_bernoulli": c.sup_bernoulli, "sup_gev": c.sup_gev}
            for c in result.cells
        ],
        "outputs": [csv_path.name],
    }
    return summary


def _simulate_qtr_extremes(seed: int, out_dir: Path, length: int | None,
                           replicates: int | None) -> dict:
    t = length or 4096
    r = replicates or 1000
    delta, n, trigger_tau, lag = 7, 32, 4.0, 4
    x = gen_ma_exponential(t, 8, seed=_substream(seed, 100))
    dependent = gen_dependent_events(x, n, trigger_tau, lag, seed=_substream(seed, 101))
    independent = gen_independent_events(t, n, seed=_substream(seed, 102))

    ladder = build_ladder_from_quantiles(x, 0.75, 1.0, 32)
    fit = fit_gev_mle(block_maxima(x, delta))
    pis = success_probabilities(ladder, fit.params)
    _, lower, upper = expected_process_with_band(n, pis, level=0.95)
    rungs = rung_index(x, delta, ladder.thresholds)

    outputs = []
    results = {}
    for label, events in (("dependent", dependent), ("independent", independent)):
        tcp = compute_tcp(events, rungs, ladder.m)
        table = QtrTable(levels=ladder.levels, thresholds=ladder.thresholds,
                         observed_counts=tcp.counts, n_events=n, expected_rates=pis,
                         band_lower_rates=lower / n, band_upper_rates=upper / n)
        path = out_dir / f"qtr_{label}.csv"
        write_qtr_csv(table, path)
        write_qtr_svg(table, out_dir / f"qtr_{label}.svg", title=f"{label} events")
        outputs.extend([path.name, f"qtr_{label}.svg"])
        test = mc_multi_threshold_test(tcp, rungs, pis, r, seed)
        results[label] = {
            "statistic": test.statistic,
            "p_hat": test.p_hat,
            "rate_at_trigger_tau": count_trigger_exceedances(events, x, trigger_tau, delta).rate,
        }

    nlls = null_nll_replicates(rungs, n, pis, r, seed)
    nll_path = out_dir / "replicate_nlls.csv"
    with open(nll_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("replicate,nll\n")
        for j, v in enumerate(nlls):
            fh.write(f"{j},{float(v)!r}\n")
    outputs.append(nll_path.name)

    stat_min, proc_min = dp_extreme_nll(n, pis, "min")
    stat_max, proc_max = dp_extreme_nll(n, pis, "max")
    ext_path = out_dir / "extreme_processes.csv"
    with open(ext_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("quantile_level,threshold,min_count,max_count\n")
        for i in range(ladder.m):
            fh.write(f"{ladder.levels[i]!r},{ladder.thresholds[i]!r},"
                     f"{int(proc_min.counts[i])},{int(proc_max.counts[i])}\n")
    outputs.append(ext_path.name)

    return {
        "preset": "fig4",
        "config": {"length": t, "ma_order": 8, "n_events": n, "delta": delta,
                   "trigger_tau": trigger_tau, "lag": lag, "qlo": 0.75, "qhi": 1.0,
                   "m": 32, "replicates": r, "seed": seed},
        "results": results,
        "dp": {"min_statistic": stat_min, "max_statistic": stat_max,
               "replicate_nll_min": float(nlls.min()), "replicate_nll_max": float(nlls.max())},
        "outputs": outputs,
    }


def run_simulate(preset: str, seed: int, out_dir, length: int | None = None,
                 replicates: int | None = None, orders: tuple[int, ...] | None = None) -> dict:
    """Run a bundled simulation study and write its outputs under ``out_dir``.

    ``appendix-b1`` runs the null comparison harness; ``fig4`` builds the
    planted-trigger demonstration with QTR curves, permutation NLLs, and the
    exact NLL envelope.  Returns the summary dict (also written as JSON).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if preset == "appendix-b1":
        summary = _simulate_comparison(seed, out, length, replicates, orders)
    elif preset == "fig4":
        summary = _simulate_qtr_extremes(seed, out, length, replicates)
    else:
        raise ValueError(f"unknown preset: {preset!r}")
    summary_path = out / "summary.json"
    summary["outputs"].append(summary_path.name)
    summary_path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n",
                            encoding="utf-8")
    return summary


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peca",
        description="Does a sparse event series systematically trigger peaks in a time series?")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ingest_args(p):
        p.add_argument("--series", required=True, help="CSV with a date,value row per day")
        p.add_argument("--events", required=True, help="text file with one ISO event date per line")
        p.add_argument("--fill-zero", action="store_true",
                       help="insert zero values for missing days instead of failing")
        p.add_argument("--delta", type=int, default=7, help="tolerance window in steps")
        p.add_argument("--preprocess", action="store_true",
                       help="log2(x+1) then subtract the running mean")
        p.add_argument("--window", type=int, default=30, help="running-mean window for --preprocess")
        p.add_argument("--min-blocks", type=int, default=20,
                       help="minimum number of block maxima for the GEV fit")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    pw = sub.add_parser("pointwise", help="single-threshold trigger test")
    add_ingest_args(pw)
    which = pw.add_mutually_exclusive_group(required=True)
    which.add_argument("--tau", type=float, help="absolute threshold")
    which.add_argument("--quantile", type=float, help="threshold as an empirical quantile level")

    mu = sub.add_parser("multi", help="multi-threshold Monte Carlo test")
    add_ingest_args(mu)
    mu.add_argument("--qlo", type=float, default=0.75, help="lowest quantile level")
    mu.add_argument("--qhi", type=float, default=1.0, help="highest quantile level")
    mu.add_argument("--m", type=int, default=32, help="number of quantile levels")
    mu.add_argument("--r", type=int, default=10000, help="Monte Carlo replicates")
    mu.add_argument("--seed", type=int, default=0, help="replication seed")
    mu.add_argument("--adjust", choices=METHODS, default="holm", help="multiplicity adjustment")
    mu.add_argument("--alpha", type=float, default=0.05, help="family-wise level")
    mu.add_argument("--qtr", help="write the QTR table CSV here")
    mu.add_argument("--svg", help="write the QTR chart here")

    si = sub.add_parser("simulate", help="bundled simulation studies")
    si.add_argument("--preset", choices=("appendix-b1", "fig4"), required=True)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--out", required=True, help="output directory")
    si.add_argument("--length", type=int, help="override the series length")
    si.add_argument("--replicates", type=int, help="override the replicate count")
    si.add_argument("--orders", help="comma-separated filter orders (appendix-b1 only)")
    return parser


def _fail(category: str, exc: Exception) -> int:
    print(json.dumps({"error": {"category": category, "message": str(exc)}}), file=sys.stderr)
    return 1


def _emit_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("pointwise", "multi"):
            series, grid = ingest_timeseries(args.series, fill_zero=args.fill_zero)
            events, warn = ingest_events(args.events, grid)
            if args.command == "pointwise":
                config = AnalysisConfig(delta=args.delta, preprocess=args.preprocess,
                                        window=args.window, min_blocks=args.min_blocks)
                report = run_pointwise(config, series, events, tau=args.tau,
                                       quantile=args.quantile, warnings=warn)
                _emit_report(report, args.out)
            else:
                config = AnalysisConfig(delta=args.delta, qlo=args.qlo, qhi=args.qhi, m=args.m,
                                        r=args.r, alpha=args.alpha, adjust_method=args.adjust,
                                        seed=args.seed, preprocess=args.preprocess,
                                        window=args.window, min_blocks=args.min_blocks)
                report, table = run_multi(config, series, events, warnings=warn)
                _emit_report(report, args.out)
                if args.qtr:
                    write_qtr_csv(table, args.qtr)
                if args.svg:
                    write_qtr_svg(table, args.svg, title="quantile-trigger-rate")
        else:
            orders = None
            if args.orders:
                orders = tuple(int(tok) for tok in args.orders.split(","))
            run_simulate(args.preset, args.seed, args.out, length=args.length,
                         replicates=args.replicates, orders=orders)
    except IngestError as exc:
        return _fail("ingest", exc)
    except GevFitError as exc:
        return _fail("fit", exc)
    except OSError as exc:
        return _fail("io", exc)
    except ValueError as exc:
        return _fail("config", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
