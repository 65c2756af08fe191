"""Trace and packing metrics from Table 1 of the paper.

Everything the competitive analysis is phrased in: interval lengths, the
max/min interval length ratio ``μ``, span, total resource demand ``u(R)``,
plus derived quantities such as average utilisation of a packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, cast

from .numeric import Num, lattice_scale, to_lattice
from .interval import Interval, union_length
from .item import Item
from .resources import Resources, Size, elementwise_max, elementwise_min
from .result import PackingResult

__all__ = [
    "min_interval_length",
    "max_interval_length",
    "interval_ratio",
    "trace_span",
    "total_demand",
    "TraceStats",
    "trace_stats",
    "utilization",
]


#: Time types a sum on the integer lattice keeps exact.
_EXACT_TIMES = (int, Fraction)


def _as_list(items: Iterable[Item]) -> list[Item]:
    out = list(items)
    if not out:
        raise ValueError("metric undefined for an empty item list")
    return out


def min_interval_length(items: Iterable[Item]) -> Num:
    """``Δ = min_r len(I(r))``: the minimum item interval length."""
    return min(it.length for it in _as_list(items))


def max_interval_length(items: Iterable[Item]) -> Num:
    """``μΔ = max_r len(I(r))``: the maximum item interval length."""
    return max(it.length for it in _as_list(items))


def interval_ratio(items: Iterable[Item]) -> Num:
    """``μ``: the max/min item interval length ratio (≥ 1)."""
    items = _as_list(items)
    return max_interval_length(items) / min_interval_length(items)


def trace_span(items: Iterable[Item]) -> Num:
    """``span(R)``: length of time at least one item is active (Figure 1)."""
    return union_length([Interval(it.arrival, it.departure) for it in _as_list(items)])


def total_demand(items: Iterable[Item]) -> Size:
    """``u(R) = Σ_r s(r)·len(I(r))``: the total resource demand
    (per-dimension for vector traces).

    A trace of exact sizes and times with a non-integral size sums on the
    integer lattice of :mod:`repro.core.numeric`: each ``s(r)·D`` is an
    ``int``, and one division by ``D`` ends the sum, a ``Fraction`` equal
    to the sum of the demands.  Float times keep the direct sum: a float
    length rounds differently at another scale.
    """
    items = _as_list(items)
    scale = lattice_scale(1, [it.size for it in items])
    if scale is not None and scale > 1 and all(
        isinstance(it.arrival, _EXACT_TIMES) and isinstance(it.departure, _EXACT_TIMES)
        for it in items
    ):
        lattice_total: Num = 0
        for it in items:
            lattice_total += to_lattice(cast(int, it.size), scale) * (it.departure - it.arrival)
        return Fraction(lattice_total, scale)
    total: Size = 0
    for it in items:
        total = total + it.demand
    return total


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Summary statistics of an item list."""

    num_items: int
    span: Num
    total_demand: Num
    min_interval: Num
    max_interval: Num
    mu: Num
    #: Elementwise extremes for vector traces, plain min/max for scalars.
    min_size: Size
    max_size: Size
    first_arrival: Num
    last_departure: Num

    @property
    def packing_period(self) -> Num:
        """Length of ``[min_r a(r), max_r d(r)]``."""
        return self.last_departure - self.first_arrival


def _reduce_sizes(items: list[Item], combine: "Callable[[Size, Size], Size]") -> Size:
    acc = items[0].size
    for it in items[1:]:
        acc = combine(acc, it.size)
    return acc


def trace_stats(items: Iterable[Item]) -> TraceStats:
    """Compute :class:`TraceStats` in a single pass over the trace."""
    items = _as_list(items)
    lengths = [it.length for it in items]
    lo, hi = min(lengths), max(lengths)
    return TraceStats(
        num_items=len(items),
        span=trace_span(items),
        total_demand=total_demand(items),
        min_interval=lo,
        max_interval=hi,
        mu=hi / lo,
        min_size=_reduce_sizes(items, elementwise_min),
        max_size=_reduce_sizes(items, elementwise_max),
        first_arrival=min(it.arrival for it in items),
        last_departure=max(it.departure for it in items),
    )


def utilization(result: PackingResult) -> float:
    """Average bin utilisation of a packing.

    ``u(R) / Σ_i W_i·len(I_i)`` — the fraction of paid-for bin capacity
    that was actually used (per-bin capacities for heterogeneous fleets).
    Equals 1 only for a perfectly tight packing; bound (b.1) says no
    algorithm can exceed 1.
    """
    paid = result.total_capacity_time
    demand = total_demand(result.items)
    if isinstance(paid, Resources):
        # Vector packing: utilisation of the *bottleneck* dimension — the
        # axis that best justifies the capacity paid for.
        assert isinstance(demand, Resources)
        return max(
            float(u / p) for u, p in zip(demand.values, paid.values)
        )
    if paid == 0:
        raise ValueError("packing has zero total bin time")
    return float(demand / paid)
