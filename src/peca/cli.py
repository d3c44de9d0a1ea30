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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adjust import METHODS, adjust, reject_set
from .ingest import IngestError, ingest_events, ingest_timeseries
from .multi import (ThresholdLadder, build_ladder_from_quantiles, compute_tcp, dp_extreme_nll,
                    empirical_quantile, expected_process_with_band, mc_p_value, null_nll_replicates,
                    steps_at_least, success_probabilities, tcp_nll)
from .nulls import GevFit, GevFitError, binom_tail, block_maxima, fit_gev_mle
from .qtr import QtrTable, write_csv, write_qtr_svg
from .series import EventSeries, TimeSeries, late_events, preprocess, rung_index
from .sim import (SimConfig, gen_dependent_events, gen_independent_events, gen_ma_exponential,
                  null_distribution_comparison)

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


def _trigger_count(events: EventSeries, x: TimeSeries, tau: float, delta: int) -> int:
    """Events whose window [t, t+delta] holds a strict exceedance of ``tau``: a ladder of one."""
    return int(compute_tcp(events, rung_index(x, delta, [tau]), 1)[0])


def run_pointwise(config: AnalysisConfig, series: TimeSeries, events: EventSeries,
                  tau: float | None = None, quantile: float | None = None,
                  warnings: list[str] | None = None) -> dict:
    """Single-threshold trigger test; returns the JSON-ready report dict."""
    if (tau is None) == (quantile is None):
        raise ValueError("exactly one of tau and quantile is required")
    if tau is not None and not math.isfinite(tau):
        raise ValueError("tau must be finite")
    warn = list(warnings or [])
    x = preprocess(series, config.window) if config.preprocess else series
    if quantile is not None:
        threshold = empirical_quantile(x.values, quantile)
    else:
        threshold = float(tau)
    fit = fit_gev_mle(block_maxima(x, config.delta), min_samples=config.min_blocks)
    if not fit.converged:
        warn.append("GEV fit did not satisfy the optimizer's convergence test")
    k = _trigger_count(events, x, threshold, config.delta)
    pi = float(success_probabilities(ThresholdLadder(thresholds=[threshold]), fit.params)[0])
    _late_event_warning(events, config.delta, warn)
    return {
        "command": "pointwise",
        "config": asdict(config),
        "series": {
            "length": x.length,
            "n_events": events.n_events,
            "event_rate": events.n_events / events.length,
        },
        "threshold": threshold,
        "quantile_level": quantile,
        "k_observed": k,
        "rate": k / events.n_events if events.n_events else None,
        "success_prob": pi,
        "p_value": binom_tail(k, events.n_events, pi),
        "gev": _gev_dict(fit),
        "warnings": warn,
    }


@dataclass(frozen=True)
class _MultiNull:
    """The null side of the multi-threshold test, shared by every event set of one size."""

    ladder: ThresholdLadder
    fit: GevFit
    rungs: np.ndarray
    at_least: np.ndarray
    pis: np.ndarray
    null_stats: np.ndarray
    band_lower_rates: np.ndarray
    band_upper_rates: np.ndarray


def _multi_null(config: AnalysisConfig, x: TimeSeries, n_events: int) -> _MultiNull:
    """Ladder, GEV fit, steps per rung, success probabilities, replicate NLLs and the 95% band."""
    ladder = build_ladder_from_quantiles(x, config.qlo, config.qhi, config.m)
    fit = fit_gev_mle(block_maxima(x, config.delta), min_samples=config.min_blocks)
    rungs = rung_index(x, config.delta, ladder.thresholds)
    at_least = steps_at_least(rungs, ladder.m)
    pis = success_probabilities(ladder, fit.params)
    null_stats = null_nll_replicates(at_least, n_events, pis, config.r, config.seed)
    lower, upper = expected_process_with_band(n_events, pis)
    return _MultiNull(ladder=ladder, fit=fit, rungs=rungs, at_least=at_least, pis=pis,
                      null_stats=null_stats, band_lower_rates=lower / n_events,
                      band_upper_rates=upper / n_events)


def _score(null: _MultiNull, events: EventSeries
           ) -> tuple[np.ndarray, float, float, QtrTable]:
    """Observed counts, NLL statistic, Monte Carlo p-value and QTR table of one event set."""
    counts = compute_tcp(events, null.rungs, null.ladder.m)
    statistic = tcp_nll(counts, events.n_events, null.pis)
    table = QtrTable(levels=null.ladder.levels, thresholds=null.ladder.thresholds,
                     observed_counts=counts, n_events=events.n_events,
                     expected_rates=null.pis, band_lower_rates=null.band_lower_rates,
                     band_upper_rates=null.band_upper_rates)
    return counts, statistic, mc_p_value(statistic, null.null_stats), table


def _median(a: np.ndarray) -> float:
    """``np.median`` of a non-empty array without NaN, bit for bit, without the
    ``numpy.ma`` import that ``np.median`` costs."""
    h = a.size // 2
    if a.size % 2:
        return float(np.partition(a, h)[h])
    low, high = np.partition(a, (h - 1, h))[h - 1:h + 1]
    return float((low + high) / 2)


def run_multi(config: AnalysisConfig, series: TimeSeries, events: EventSeries,
              warnings: list[str] | None = None) -> tuple[dict, QtrTable]:
    """Multi-threshold Monte Carlo test; returns the report dict and QTR table."""
    if events.n_events == 0:
        raise ValueError("multi needs at least one event")
    warn = list(warnings or [])
    x = preprocess(series, config.window) if config.preprocess else series
    null = _multi_null(config, x, events.n_events)
    ladder, fit, pis = null.ladder, null.fit, null.pis
    collapsed = config.m - ladder.m
    if collapsed:
        warn.append(f"{collapsed} duplicate threshold(s) collapsed; "
                    f"effective ladder size {ladder.m}")
    if not fit.converged:
        warn.append("GEV fit did not satisfy the optimizer's convergence test")
    _late_event_warning(events, config.delta, warn)

    counts, statistic, p_hat, table = _score(null, events)
    raw_p_values = [binom_tail(int(k), events.n_events, float(pi)) for k, pi in zip(counts, pis)]
    adjusted = adjust(raw_p_values, config.adjust_method)
    rejected = reject_set(adjusted, config.alpha)

    nlls = null.null_stats
    multi_test = {
        "statistic": statistic,
        "replicates": nlls.size,
        "p_hat": p_hat,
        "p_hat_se": math.sqrt(p_hat * (1.0 - p_hat) / nlls.size),
        "seed": config.seed,
        "null_min": float(nlls.min()),
        "null_median": _median(nlls),
        "null_max": float(nlls.max()),
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
            "event_rate": events.n_events / events.length,
        },
        "ladder": {
            "size": ladder.m,
            "requested": config.m,
            "collapsed": collapsed,
            "levels": [float(v) for v in ladder.levels],
            "thresholds": [float(v) for v in ladder.thresholds],
        },
        "gev": _gev_dict(fit),
        "multi_test": multi_test,
        "pointwise": {
            "k_observed": [int(k) for k in counts],
            "success_probs": [float(pi) for pi in pis],
            "permutation_success_probs": [
                float(v) for v in null.at_least[1:] / null.at_least[0]],
            "raw_p_values": raw_p_values,
            "adjust_method": config.adjust_method,
            "adjusted_p_values": [float(v) for v in adjusted],
            "reject_at_alpha": [bool(v) for v in rejected],
            "alpha": config.alpha,
        },
        "warnings": warn,
    }
    return report, table


def _simulate_comparison(out_dir: Path, config: SimConfig) -> dict:
    cmfs = null_distribution_comparison(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "null_comparison.csv"
    # long format, one row per (order, tau, k); a library caller may pass int thresholds
    order, tau, k = (a.ravel() for a in np.meshgrid(
        np.asarray(config.ma_orders, dtype=int), np.asarray(config.thresholds, dtype=float),
        np.arange(cmfs.shape[-1]), indexing="ij"))
    empirical, bernoulli, gev = cmfs.transpose(2, 0, 1, 3).reshape(3, -1)
    write_csv(csv_path, {"k": k, "order": order, "tau": tau, "empirical_cmf": empirical,
                         "bernoulli_cmf": bernoulli, "gev_cmf": gev})
    sups = np.abs(cmfs[:, :, 1:] - cmfs[:, :, :1]).max(axis=-1)
    return {
        "preset": "appendix-b1",
        "config": asdict(config),
        "cells": [
            {"order": int(order), "tau": float(tau),
             "sup_bernoulli": float(sups[oi, ti, 0]), "sup_gev": float(sups[oi, ti, 1])}
            for oi, order in enumerate(config.ma_orders)
            for ti, tau in enumerate(config.thresholds)
        ],
        "outputs": [csv_path.name],
    }


def _simulate_qtr_extremes(out_dir: Path, seed: int = AnalysisConfig.seed, length: int = 4096,
                           replicates: int = 1000) -> dict:
    config = AnalysisConfig(r=replicates, seed=seed)
    ma_order, n, trigger_tau, lag = 8, 32, 4.0, 4
    x = gen_ma_exponential(length, ma_order, seed=(seed, 100))
    event_sets = {
        "dependent": gen_dependent_events(x, n, trigger_tau, lag, seed=(seed, 101)),
        "independent": gen_independent_events(length, n, seed=(seed, 102)),
    }
    # one null draw scores both event sets: both have n events on the same rungs
    null = _multi_null(config, x, n)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    results = {}
    for label, events in event_sets.items():
        _, statistic, p_hat, table = _score(null, events)
        path = out_dir / f"qtr_{label}.csv"
        write_csv(path, table.columns)
        write_qtr_svg(table, out_dir / f"qtr_{label}.svg", title=f"{label} events")
        outputs.extend([path.name, f"qtr_{label}.svg"])
        results[label] = {
            "statistic": statistic,
            "p_hat": p_hat,
            "rate_at_trigger_tau":
                _trigger_count(events, x, trigger_tau, config.delta) / events.n_events,
        }

    nlls = null.null_stats
    nll_path = out_dir / "replicate_nlls.csv"
    write_csv(nll_path, {"replicate": np.arange(nlls.size), "nll": nlls})
    outputs.append(nll_path.name)

    stat_min, counts_min = dp_extreme_nll(n, null.pis, "min")
    stat_max, counts_max = dp_extreme_nll(n, null.pis, "max")
    ext_path = out_dir / "extreme_processes.csv"
    write_csv(ext_path, {"quantile_level": null.ladder.levels,
                         "threshold": null.ladder.thresholds,
                         "min_count": counts_min, "max_count": counts_max})
    outputs.append(ext_path.name)

    return {
        "preset": "fig4",
        "config": {"length": length, "ma_order": ma_order, "n_events": n, "delta": config.delta,
                   "trigger_tau": trigger_tau, "lag": lag, "qlo": config.qlo, "qhi": config.qhi,
                   "m": config.m, "replicates": config.r, "seed": config.seed},
        "results": results,
        "dp": {"min_statistic": stat_min, "max_statistic": stat_max,
               "replicate_nll_min": float(nlls.min()), "replicate_nll_max": float(nlls.max())},
        "outputs": outputs,
    }


def run_simulate(preset: str, seed: int | None, out_dir, length: int | None = None,
                 replicates: int | None = None, orders: tuple[int, ...] | None = None) -> dict:
    """Run a bundled simulation study and write its outputs under ``out_dir``.

    ``appendix-b1`` runs the null comparison harness on ``SimConfig``;
    ``fig4`` builds the planted-trigger demonstration with QTR curves,
    permutation NLLs, and the exact NLL envelope, analysed with
    ``AnalysisConfig``.  An argument left ``None`` keeps the preset's
    default; ``orders`` applies to ``appendix-b1`` only.  Returns the
    summary dict (also written as JSON).
    """
    given = {name: value for name, value in (("seed", seed), ("length", length),
                                               ("replicates", replicates), ("ma_orders", orders))
             if value is not None}
    out = Path(out_dir)
    if preset == "appendix-b1":
        summary = _simulate_comparison(out, replace(SimConfig(), **given))
    elif preset == "fig4":
        if "ma_orders" in given:
            raise ValueError("filter orders apply to the appendix-b1 preset only")
        summary = _simulate_qtr_extremes(out, **given)
    else:
        raise ValueError(f"unknown preset: {preset!r}")
    summary_path = out / "summary.json"
    summary["outputs"].append(summary_path.name)
    _emit_report(summary, summary_path)
    return summary


def build_parser() -> argparse.ArgumentParser:
    defaults = AnalysisConfig()
    parser = argparse.ArgumentParser(
        prog="peca",
        description="Does a sparse event series systematically trigger peaks in a time series?")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ingest_args(p):
        p.add_argument("--series", required=True, help="CSV with a date,value row per day")
        p.add_argument("--events", required=True, help="text file with one ISO event date per line")
        p.add_argument("--fill-zero", action="store_true",
                       help="insert zero values for missing days instead of failing")
        p.add_argument("--delta", type=int, default=defaults.delta,
                       help="tolerance window in steps")
        p.add_argument("--preprocess", action="store_true",
                       help="log2(x+1) then subtract the running mean")
        p.add_argument("--window", type=int, default=defaults.window,
                       help="running-mean window for --preprocess")
        p.add_argument("--min-blocks", type=int, default=defaults.min_blocks,
                       help="minimum number of block maxima for the GEV fit")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    pw = sub.add_parser("pointwise", help="single-threshold trigger test")
    add_ingest_args(pw)
    which = pw.add_mutually_exclusive_group(required=True)
    which.add_argument("--tau", type=float, help="absolute threshold")
    which.add_argument("--quantile", type=float, help="threshold as an empirical quantile level")

    mu = sub.add_parser("multi", help="multi-threshold Monte Carlo test")
    add_ingest_args(mu)
    mu.add_argument("--qlo", type=float, default=defaults.qlo, help="lowest quantile level")
    mu.add_argument("--qhi", type=float, default=defaults.qhi, help="highest quantile level")
    mu.add_argument("--m", type=int, default=defaults.m, help="number of quantile levels")
    mu.add_argument("--r", type=int, default=defaults.r, help="Monte Carlo replicates")
    mu.add_argument("--seed", type=int, default=defaults.seed, help="replication seed")
    mu.add_argument("--adjust", dest="adjust_method", choices=METHODS,
                    default=defaults.adjust_method, help="multiplicity adjustment")
    mu.add_argument("--alpha", type=float, default=defaults.alpha, help="family-wise level")
    mu.add_argument("--qtr", help="write the QTR table CSV here")
    mu.add_argument("--svg", help="write the QTR chart here")

    si = sub.add_parser("simulate", help="bundled simulation studies")
    si.add_argument("--preset", choices=("appendix-b1", "fig4"), required=True)
    si.add_argument("--seed", type=int,
                    help=f"replication seed (default {AnalysisConfig.seed} for fig4, "
                         f"{SimConfig.seed} for appendix-b1)")
    si.add_argument("--out", required=True, help="output directory")
    si.add_argument("--length", type=int, help="override the series length")
    si.add_argument("--replicates", type=int, help="override the replicate count")
    si.add_argument("--orders", help="comma-separated filter orders (appendix-b1 only)")
    return parser


def _fail(category: str, exc: Exception) -> int:
    print(json.dumps({"error": {"category": category, "message": str(exc)}}), file=sys.stderr)
    return 1


def _emit_report(report: dict, out: str | Path | None) -> None:
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
            # pointwise parses no multi-only option, so those fields keep their defaults
            given = vars(args)
            config = AnalysisConfig(**{f.name: given[f.name] for f in fields(AnalysisConfig)
                                       if f.name in given})
            if args.command == "pointwise":
                report = run_pointwise(config, series, events, tau=args.tau,
                                       quantile=args.quantile, warnings=warn)
                _emit_report(report, args.out)
            else:
                report, table = run_multi(config, series, events, warnings=warn)
                _emit_report(report, args.out)
                if args.qtr:
                    write_csv(args.qtr, table.columns)
                if args.svg:
                    write_qtr_svg(table, args.svg, title="quantile-trigger-rate")
        else:
            orders = None
            if args.orders is not None:
                orders = tuple(int(tok) for tok in args.orders.split(","))
            summary = run_simulate(args.preset, args.seed, args.out, length=args.length,
                                   replicates=args.replicates, orders=orders)
            _emit_report(summary, None)
    except IngestError as exc:
        return _fail("ingest", exc)
    except GevFitError as exc:
        return _fail("fit", exc)
    except OSError as exc:
        return _fail("io", exc)
    except ValueError as exc:
        return _fail("config", exc)
    except MemoryError as exc:
        return _fail("memory", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
