"""The classic DBP objective (MaxBins) next to MinTotal.

The prior literature the paper generalises (Coffman, Garey & Johnson 1983;
Chan, Lam & Wong 2008 for unit-fraction items) minimises the **maximum
number of bins ever used**, not bin-time.  This module measures that
objective on our packings so experiments can show how the two objectives
rank algorithms differently:

* ``max_bins_lower_bound`` — ``max_t ⌈load(t)/W⌉``, the repacking bound;
* ``max_bins_exact`` — ``max_t OPT(R,t)`` via per-snapshot branch & bound;
* known literature context (checked empirically, not re-proved): FF is
  between 2.75- and 2.897-competitive for MaxBins; Any Fit is exactly
  3-competitive on unit-fraction items.
"""

from __future__ import annotations

import numbers
from typing import Sequence

from ..core.item import Item
from ..core.result import PackingResult
from ..opt.load import load_profile
from ..opt.lower_bounds import robust_ceil
from ..opt.snapshot import _sweep, l2_lower_bound, snapshot_profile

__all__ = [
    "max_bins_lower_bound",
    "max_bins_exact",
    "max_bins_ratio",
    "COFFMAN_FF_UPPER",
    "CHAN_UNIT_FRACTION_ANYFIT",
]

#: Coffman, Garey & Johnson (1983): FF's MaxBins competitive ratio ≤ 2.897.
COFFMAN_FF_UPPER = 2.897
#: Chan, Lam & Wong (2008): Any Fit is exactly 3-competitive for MaxBins on
#: unit-fraction items (sizes 1/w).
CHAN_UNIT_FRACTION_ANYFIT = 3.0


def max_bins_lower_bound(
    items: Sequence[Item], *, capacity: numbers.Real = 1, method: str = "load"
) -> int:
    """Lower bound on the classic-DBP optimum ``max_t OPT(R,t)``.

    ``method="load"``: ``max_t ⌈load(t)/W⌉``.  ``method="l2"``: the
    per-snapshot Martello-Toth L2 maximum — never weaker, stronger when
    items above W/2 coexist at the peak.
    """
    if method == "load":
        _, loads = load_profile(items)
        return max((robust_ceil(load / capacity) for load in loads), default=0)
    if method != "l2":
        raise ValueError(f"method must be 'load' or 'l2', got {method!r}")
    _, counts = _sweep(items, capacity, l2_lower_bound)
    return max(counts, default=0)


def max_bins_exact(
    items: Sequence[Item], *, capacity: numbers.Real = 1, node_limit: int = 2_000_000
) -> int:
    """``max_t OPT(R,t)``: the classic-DBP offline optimum with repacking."""
    _, counts = snapshot_profile(items, capacity, method="exact", node_limit=node_limit)
    return max(counts, default=0)


def max_bins_ratio(
    result: PackingResult, *, exact: bool = False, node_limit: int = 2_000_000
) -> float:
    """The packing's MaxBins objective over the offline optimum.

    With ``exact=False`` the denominator is the load lower bound, making
    the ratio a conservative (over-)estimate.
    """
    if exact:
        denom = max_bins_exact(
            result.items, capacity=result.capacity, node_limit=node_limit
        )
    else:
        denom = max_bins_lower_bound(result.items, capacity=result.capacity)
    if denom == 0:
        raise ValueError("empty trace has no MaxBins ratio")
    return result.max_bins_used / denom
