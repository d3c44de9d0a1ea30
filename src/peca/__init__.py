"""peca: statistical association between sparse events and peaks in a time series.

The package counts how often events are followed, within a tolerance
window, by strict exceedances of one or many thresholds, and judges the
counts against analytical and permutation null distributions.
"""

from .adjust import METHODS, AdjustedPValues, adjust, reject_set
from .ingest import DayGrid, IngestError, ingest_events, ingest_timeseries
from .multi import (MultiTestResult, ThresholdLadder, TriggerCoincidenceProcess,
                    build_ladder_from_quantiles, compute_tcp, dp_extreme_nll, empirical_quantile,
                    expected_process_with_band, mc_multi_threshold_test, null_nll_replicates,
                    permutation_success_probabilities, pointwise_tests_along_ladder,
                    success_probabilities, tcp_nll)
from .nulls import (GevFit, GevFitError, GevParams, PointwiseTestResult, bernoulli_null_pvalue,
                    binom_logpmf, binom_tail, block_maxima, estimate_event_rate, fit_gev_mle,
                    gev_cdf, gev_null_pvalue, gev_sf)
from .qtr import QTR_COLUMNS, QtrTable, write_qtr_csv, write_qtr_svg
from .series import (CoincidenceResult, EventSeries, TimeSeries, count_precursor, count_trigger,
                     count_trigger_exceedances, exceedance_series, forward_window_max, late_events,
                     preprocess, rung_index)
from .sim import (NullComparisonCell, NullComparisonResult, SimConfig, gen_dependent_events,
                  gen_independent_events, gen_ma_exponential, null_distribution_comparison,
                  write_comparison_csv)

__version__ = "0.1.0"

__all__ = [
    "AdjustedPValues", "CoincidenceResult", "DayGrid", "EventSeries", "GevFit", "GevFitError",
    "GevParams", "IngestError", "METHODS", "MultiTestResult", "NullComparisonCell",
    "NullComparisonResult", "PointwiseTestResult", "QTR_COLUMNS", "QtrTable", "SimConfig",
    "ThresholdLadder", "TimeSeries", "TriggerCoincidenceProcess", "adjust",
    "bernoulli_null_pvalue", "binom_logpmf", "binom_tail", "block_maxima",
    "build_ladder_from_quantiles", "compute_tcp", "count_precursor", "count_trigger",
    "count_trigger_exceedances", "dp_extreme_nll", "empirical_quantile", "estimate_event_rate",
    "exceedance_series", "expected_process_with_band", "fit_gev_mle", "forward_window_max",
    "gen_dependent_events", "gen_independent_events", "gen_ma_exponential", "gev_cdf",
    "gev_null_pvalue", "gev_sf", "ingest_events", "ingest_timeseries", "late_events",
    "mc_multi_threshold_test", "null_distribution_comparison", "null_nll_replicates",
    "permutation_success_probabilities", "pointwise_tests_along_ladder", "preprocess",
    "reject_set", "rung_index", "success_probabilities", "tcp_nll", "write_comparison_csv",
    "write_qtr_csv", "write_qtr_svg",
]
