"""Lower and upper bounds for ``OPT_total`` (Section 4's bounds b.1-b.3).

``OPT(R,t)`` — the minimum bins into which the items active at ``t`` can be
repacked — is NP-hard per snapshot, so experiments bracket ``OPT_total``:

* **(b.1) demand bound**: ``OPT_total ≥ C·u(R)/W``.
* **(b.2) span bound**: ``OPT_total ≥ C·span(R)``.
* **pointwise load bound** (refines both): at each instant OPT needs at
  least ``⌈load(t)/W⌉`` bins, so ``OPT_total ≥ C·∫⌈load(t)/W⌉ dt``.
* **(b.3) upper bound**: ``A_total(R) ≤ C·Σ_r len(I(r))`` for any A.
* **FFD repack upper bound** on OPT_total: repacking the active set with
  First Fit Decreasing at every event is a feasible offline schedule, and
  ``OPT(R,t) ≤ FFD(t)`` pointwise (see :mod:`repro.opt.snapshot`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, cast

from ..core.interval import _step_integral
from ..core.item import Item, _check_scalar_sizes
from ..core.metrics import total_demand, trace_span
from ..core.numeric import lattice_scale, quotient, to_lattice
from ..core.resources import Resources, Size
from .load import _load_steps, load_profile

__all__ = [
    "robust_ceil",
    "demand_lower_bound",
    "span_lower_bound",
    "pointwise_lower_bound",
    "dominance_lower_bound",
    "naive_upper_bound",
    "opt_total_lower_bound",
    "OptBracket",
    "opt_bracket",
]

#: Relative tolerance used when ceiling float ratios; a load within this
#: relative distance below an integer is treated as exactly that integer.
CEIL_REL_TOL = 1e-9

#: What a scalar-only bound tells a caller who passes a vector size.
_SCALAR_BOUND = "for this bound, or use dominance_lower_bound"


def robust_ceil(x: numbers.Real) -> int:
    """``⌈x⌉`` that forgives float summation error just below integers.

    Exact for ``int``/``Fraction``.  For floats, ``robust_ceil(3.0000000001)``
    is 3, not 4 — loads are sums of item sizes and may carry rounding error.
    """
    if isinstance(x, (int, Fraction)):
        return math.ceil(x)
    nearest = round(x)
    if abs(x - nearest) <= CEIL_REL_TOL * max(1.0, abs(x)):
        return int(nearest)
    return math.ceil(x)


def demand_lower_bound(
    items: Iterable[Item], *, capacity: numbers.Real = 1, cost_rate: numbers.Real = 1
) -> numbers.Real:
    """Bound (b.1): ``C·u(R)/W``, exact when the demand and ``W`` are."""
    return quotient(cost_rate * total_demand(items), capacity)


def span_lower_bound(items: Iterable[Item], *, cost_rate: numbers.Real = 1) -> numbers.Real:
    """Bound (b.2): ``C·span(R)``."""
    return cost_rate * trace_span(items)


def pointwise_lower_bound(
    items: Sequence[Item], *, capacity: numbers.Real = 1, cost_rate: numbers.Real = 1
) -> numbers.Real:
    """``C·∫ ⌈load(t)/W⌉ dt`` — dominates both (b.1) and (b.2).

    Wherever the load is positive at least one bin is needed (b.2's
    argument), and ``⌈load/W⌉ ≥ load/W`` recovers (b.1) under the integral.

    An exact trace (``int`` or ``Fraction`` sizes and capacity) sums its
    loads on the integer lattice of :mod:`repro.core.numeric` and takes
    each ceiling by ``int`` floor division, ``⌈load·D / W·D⌉`` (``D = 1``
    when every value is an ``int``); the times, and so the result's type,
    are the caller's.

    A vector size raises
    :class:`~repro.core.validation.InvalidItemTypeError`, naming the item;
    :func:`dominance_lower_bound` bounds a vector trace.
    """
    items = list(items)
    scale = lattice_scale(capacity, [it.size for it in items])
    if scale is not None:
        sizes = [to_lattice(cast(int, it.size), scale) for it in items]
        times, loads = _load_steps(items, sizes)
        per_bin = to_lattice(cast(int, capacity), scale)
        needed = [-(-load // per_bin) for load in loads]
    else:  # only here can a size be a vector
        _check_scalar_sizes(items, _SCALAR_BOUND)
        times, loads = load_profile(items)
        needed = [robust_ceil(load / capacity) for load in loads]
    return cost_rate * _step_integral(times, needed)


def dominance_lower_bound(
    items: Sequence[Item], *, capacity: "Size" = 1, cost_rate: numbers.Real = 1
) -> numbers.Real:
    """Vector lower bound: the best single-dimension pointwise bound.

    A feasible vector packing is simultaneously a feasible scalar packing
    of every one of its per-dimension projections (dominance ``size ≤
    capacity`` implies ``size_d ≤ W_d`` for each ``d``), so ``OPT_total``
    for the vector instance is at least the pointwise load bound of each
    projection — and hence at least their maximum.  For scalar traces this
    is exactly :func:`pointwise_lower_bound`.
    """
    items = list(items)
    if not items or not isinstance(items[0].size, Resources):
        return pointwise_lower_bound(
            items, capacity=capacity, cost_rate=cost_rate
        )
    dims = items[0].size.dims
    best: numbers.Real = 0
    for d in range(dims):
        cap_d = capacity[d] if isinstance(capacity, Resources) else capacity
        # Zero components carry no load in this dimension; dropping them
        # keeps the projected items valid (Item requires a positive size).
        projected = [
            Item(
                arrival=it.arrival,
                departure=it.departure,
                size=it.size[d],
                item_id=it.item_id,
            )
            for it in items
            if it.size[d] > 0
        ]
        bound = pointwise_lower_bound(
            projected, capacity=cap_d, cost_rate=cost_rate
        )
        if bound > best:
            best = bound
    return best


def naive_upper_bound(items: Iterable[Item], *, cost_rate: numbers.Real = 1) -> numbers.Real:
    """Bound (b.3): ``C·Σ_r len(I(r))`` — the one-bin-per-item cost."""
    total: numbers.Real = 0
    for it in items:
        total = total + it.length
    return cost_rate * total


def opt_total_lower_bound(
    items: Sequence[Item], *, capacity: numbers.Real = 1, cost_rate: numbers.Real = 1
) -> numbers.Real:
    """The best available lower bound on ``OPT_total(R)``.

    This is the pointwise load bound, which is ≥ max(b.1, b.2); the paper's
    competitive ratios are proved against max(b.1, b.2), so measured ratios
    against this bound are conservative (never overstate the algorithm).
    """
    return pointwise_lower_bound(items, capacity=capacity, cost_rate=cost_rate)


@dataclass(frozen=True, slots=True)
class OptBracket:
    """Lower/upper bracket of ``OPT_total`` plus its constituents."""

    demand_lb: numbers.Real
    span_lb: numbers.Real
    pointwise_lb: numbers.Real
    ffd_ub: numbers.Real
    #: Optional Martello-Toth L2 sweep (stronger on large-item mixes);
    #: computed when opt_bracket(..., include_l2=True).
    l2_lb: numbers.Real | None = None

    @property
    def lower(self) -> numbers.Real:
        best = max(self.demand_lb, self.span_lb, self.pointwise_lb)
        if self.l2_lb is not None and self.l2_lb > best:
            return self.l2_lb
        return best

    @property
    def upper(self) -> numbers.Real:
        return self.ffd_ub

    @property
    def is_tight(self) -> bool:
        """Whether the bracket pins ``OPT_total`` exactly."""
        return self.lower == self.upper


def opt_bracket(
    items: Sequence[Item],
    *,
    capacity: numbers.Real = 1,
    cost_rate: numbers.Real = 1,
    include_l2: bool = False,
) -> OptBracket:
    """Compute the full ``OPT_total`` bracket for a trace.

    ``include_l2`` adds the Martello-Toth L2 sweep to the lower side —
    strictly stronger when items above W/2 coexist, but quadratic in the
    concurrent-item count per event, so it is opt-in.  A vector trace
    raises :class:`~repro.core.validation.InvalidItemTypeError` (from
    :func:`pointwise_lower_bound`, which runs first).
    """
    from .snapshot import opt_total_ffd_upper_bound, opt_total_l2_lower_bound

    pointwise_lb = pointwise_lower_bound(items, capacity=capacity, cost_rate=cost_rate)
    return OptBracket(
        demand_lb=demand_lower_bound(items, capacity=capacity, cost_rate=cost_rate),
        span_lb=span_lower_bound(items, cost_rate=cost_rate),
        pointwise_lb=pointwise_lb,
        ffd_ub=opt_total_ffd_upper_bound(items, capacity=capacity, cost_rate=cost_rate),
        l2_lb=(
            opt_total_l2_lower_bound(items, capacity=capacity, cost_rate=cost_rate)
            if include_l2
            else None
        ),
    )
