"""OPT machinery: load profiles, bounds b.1-b.3, snapshot packing, brackets."""

from .load import active_profile, load_profile, max_load
from .lower_bounds import (
    OptBracket,
    demand_lower_bound,
    dominance_lower_bound,
    naive_upper_bound,
    opt_bracket,
    opt_total_lower_bound,
    pointwise_lower_bound,
    robust_ceil,
    span_lower_bound,
)
from .fluid import (
    expected_active_items,
    min_average_bins,
    offered_load,
    peak_bins_estimate,
)
from .offline import NoMigrationPlan, no_migration_opt_total
from .snapshot import (
    SearchLimitReached,
    l2_lower_bound,
    opt_total_l2_lower_bound,
    exact_bin_count,
    ffd_bin_count,
    opt_total_exact,
    opt_total_ffd_upper_bound,
    snapshot_profile,
)

__all__ = [
    "load_profile",
    "active_profile",
    "max_load",
    "robust_ceil",
    "demand_lower_bound",
    "span_lower_bound",
    "pointwise_lower_bound",
    "dominance_lower_bound",
    "naive_upper_bound",
    "opt_total_lower_bound",
    "OptBracket",
    "opt_bracket",
    "ffd_bin_count",
    "exact_bin_count",
    "SearchLimitReached",
    "snapshot_profile",
    "opt_total_ffd_upper_bound",
    "opt_total_exact",
    "l2_lower_bound",
    "opt_total_l2_lower_bound",
    "no_migration_opt_total",
    "NoMigrationPlan",
    "offered_load",
    "min_average_bins",
    "expected_active_items",
    "peak_bins_estimate",
]
