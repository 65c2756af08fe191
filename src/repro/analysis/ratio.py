"""Empirical competitive-ratio measurement.

The true ratio ``A_total/OPT_total`` is bracketed because ``OPT_total`` is:
measured against the OPT *upper* bound it is a lower estimate, against the
OPT *lower* bound an upper estimate.  A theorem bound checked against
``ratio_upper`` is therefore checked conservatively.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

from ..core.item import Item
from ..core.result import PackingResult
from ..core.simulator import _simulate_trace, _validated
from ..algorithms.base import PackingAlgorithm
from ..opt.lower_bounds import OptBracket, opt_bracket
from ..opt.snapshot import opt_total_exact

__all__ = ["RatioMeasurement", "measure_ratio", "compare_algorithms"]


@dataclass(frozen=True)
class RatioMeasurement:
    """A packing cost against the OPT_total bracket."""

    algorithm_name: str
    cost: numbers.Real
    opt: OptBracket

    @property
    def ratio_upper(self) -> float:
        """Upper estimate of the competitive ratio (cost / OPT lower bound)."""
        return float(self.cost / self.opt.lower)

    @property
    def ratio_lower(self) -> float:
        """Lower estimate of the competitive ratio (cost / OPT upper bound)."""
        return float(self.cost / self.opt.upper)

    @property
    def ratio(self) -> float:
        """The exact ratio when the bracket is tight, else the upper estimate."""
        return self.ratio_upper


def measure_ratio(
    result: PackingResult,
    *,
    exact: bool = False,
    node_limit: int = 2_000_000,
) -> RatioMeasurement:
    """Measure a packing's cost against the OPT_total bracket.

    With ``exact=True``, replace both ends of the bracket by the exact
    per-snapshot optimum (branch and bound) — feasible for small traces.
    """
    items = result.items
    if exact:
        value = opt_total_exact(
            items,
            capacity=result.capacity,
            cost_rate=result.cost_rate,
            node_limit=node_limit,
        )
        bracket = OptBracket(demand_lb=value, span_lb=value, pointwise_lb=value, ffd_ub=value)
    else:
        bracket = opt_bracket(items, capacity=result.capacity, cost_rate=result.cost_rate)
    return RatioMeasurement(
        algorithm_name=result.algorithm_name,
        cost=result.total_cost(),
        opt=bracket,
    )


def compare_algorithms(
    items: Sequence[Item],
    algorithms: Sequence[PackingAlgorithm],
    *,
    capacity: numbers.Real = 1,
    cost_rate: numbers.Real = 1,
) -> list[RatioMeasurement]:
    """Pack one trace with several algorithms and measure each against OPT.

    The OPT bracket and the trace's validation depend only on the trace,
    so each is done once; the trace is validated where :func:`simulate`
    would, before the first algorithm runs.
    """
    bracket = opt_bracket(items, capacity=capacity, cost_rate=cost_rate)
    trace: list[Item] | None = None
    out = []
    for algo in algorithms:
        if trace is None:
            trace = _validated(items, capacity, capacity)
        result = _simulate_trace(trace, algo, capacity=capacity, cost_rate=cost_rate)
        out.append(
            RatioMeasurement(
                algorithm_name=result.algorithm_name,
                cost=result.total_cost(),
                opt=bracket,
            )
        )
    return out
