"""Analysis: theorem formulas, proof machinery, ratio measurement, tables."""

from .anomalies import RemovalAnomaly, find_removal_anomalies
from .bounds import (
    BoundCheck,
    check_bound,
    mff_bound_known_mu,
    mff_bound_unknown_mu,
    mff_generic_bound,
    mff_optimal_k,
    theorem3_bound,
    theorem4_bound,
    theorem5_bound,
)
from .ff_decomposition import (
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_V,
    DecompositionError,
    DecompositionReport,
    FFDecomposition,
    SubPeriod,
    classify_case,
    decompose_first_fit,
    verify_decomposition,
)
from .classic_dbp import (
    CHAN_UNIT_FRACTION_ANYFIT,
    COFFMAN_FF_UPPER,
    max_bins_exact,
    max_bins_lower_bound,
    max_bins_ratio,
)
from .ratio import RatioMeasurement, compare_algorithms, measure_ratio
from .stats import RunSummary, aggregate_by_key, paired_win_rate, summarize
from .sweep import SweepResult, grid, run_sweep
from .tables import format_value, render_table, rows_to_csv
from .viz import render_load_sparkline, render_packing_timeline
from .waste import BinWaste, WasteReport, waste_report

__all__ = [
    "theorem3_bound",
    "theorem4_bound",
    "theorem5_bound",
    "mff_bound_unknown_mu",
    "mff_bound_known_mu",
    "mff_optimal_k",
    "mff_generic_bound",
    "BoundCheck",
    "check_bound",
    "FFDecomposition",
    "SubPeriod",
    "DecompositionError",
    "DecompositionReport",
    "decompose_first_fit",
    "verify_decomposition",
    "classify_case",
    "CASE_I",
    "CASE_II",
    "CASE_III",
    "CASE_IV",
    "CASE_V",
    "RatioMeasurement",
    "measure_ratio",
    "compare_algorithms",
    "grid",
    "run_sweep",
    "SweepResult",
    "format_value",
    "render_table",
    "rows_to_csv",
    "max_bins_lower_bound",
    "max_bins_exact",
    "max_bins_ratio",
    "COFFMAN_FF_UPPER",
    "CHAN_UNIT_FRACTION_ANYFIT",
    "RunSummary",
    "summarize",
    "paired_win_rate",
    "aggregate_by_key",
    "render_packing_timeline",
    "render_load_sparkline",
    "BinWaste",
    "WasteReport",
    "waste_report",
    "RemovalAnomaly",
    "find_removal_anomalies",
]
