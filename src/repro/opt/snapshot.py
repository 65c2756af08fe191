"""Per-snapshot bin packing: FFD heuristic and exact branch-and-bound.

``OPT(R,t)`` asks for the minimum number of bins holding the items active at
time ``t`` — a classical (static) bin packing instance per snapshot.  This
module solves those snapshots:

* :func:`ffd_bin_count` — First Fit Decreasing, the standard 11/9-apx
  heuristic, giving an upper bound on the snapshot optimum;
* :func:`exact_bin_count` — Martello-Toth-style branch and bound with
  dominance reductions, exact for the small/medium snapshots that arise in
  the experiments;
* sweep integrators turning per-snapshot counts into bounds on
  ``OPT_total = ∫ OPT(R,t)·C dt``.

One sweep, ``_sweep``, sorts a finished trace's events itself (the
online event kernel is not involved) and solves each snapshot.  It is
behind :func:`snapshot_profile`, every FFD and L2 bound here and the
classic-DBP L2 bound; the one step integral of
:mod:`repro.core.interval` integrates its profiles.

The solvers return bin counts, so an exact trace's sweep runs on the
integer lattice of :mod:`repro.core.numeric` — every size and the capacity
multiplied by the lcm ``D`` of their denominators — with nothing to map
back: ``int`` comparisons and sums decide as the ``Fraction`` ones do.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Callable, Iterable, Sequence, cast

from ..core.interval import _step_integral
from ..core.item import Item, _check_scalar_sizes
from ..core.numeric import lattice_scale, quotient, to_lattice
from ..core.validation import DuplicateItemIdError
from .lower_bounds import _SCALAR_BOUND, robust_ceil

__all__ = [
    "ffd_bin_count",
    "exact_bin_count",
    "l2_lower_bound",
    "SearchLimitReached",
    "snapshot_profile",
    "opt_total_ffd_upper_bound",
    "opt_total_exact",
    "opt_total_l2_lower_bound",
]


def _eps_for(values: Iterable[numbers.Real]) -> numbers.Real:
    """Comparison slack: zero for exact types, tiny for floats.

    Returns an *int* zero in the exact case — ``Fraction + 0.0`` would
    silently degrade every subsequent comparison to float.
    """
    if all(isinstance(v, (int, Fraction)) for v in values):
        return 0
    return 1e-12


def ffd_bin_count(sizes: Sequence[numbers.Real], capacity: numbers.Real = 1) -> int:
    """Number of bins First Fit Decreasing uses for a static size list."""
    eps = _eps_for(sizes)
    residuals: list[numbers.Real] = []
    for size in sorted(sizes, reverse=True):
        if size > capacity + eps:
            raise ValueError(f"size {size} exceeds capacity {capacity}")
        for i, res in enumerate(residuals):
            if size <= res + eps:
                residuals[i] = res - size
                break
        else:
            residuals.append(capacity - size)
    return len(residuals)


def l2_lower_bound(sizes: Sequence[numbers.Real], capacity: numbers.Real = 1) -> int:
    """Martello & Toth's L2 lower bound on the snapshot bin count.

    For a threshold ``α ∈ [0, W/2]`` split the items into
    ``J1 = {s > W−α}``, ``J2 = {W/2 < s ≤ W−α}``, ``J3 = {α ≤ s ≤ W/2}``:
    every J1/J2 item needs its own bin, and J3 volume beyond J2's residual
    space needs fresh bins.  ``L2 = max_α`` of that count dominates
    ``⌈Σs/W⌉`` (α = 0) and is still a true lower bound — e.g. three items
    of size 0.6 give L2 = 3 where the volume bound says 2.
    """
    items = [s for s in sizes]
    if not items:
        return 0
    eps = _eps_for(items)
    for s in items:
        if s > capacity + eps:
            raise ValueError(f"size {s} exceeds capacity {capacity}")
    half = quotient(capacity, 2)
    candidates = {0}
    for s in items:
        if s <= half + eps:
            candidates.add(s)
    best = 0
    for alpha in sorted(candidates):
        j1 = j2 = 0
        j2_residual: numbers.Real = 0
        j3_volume: numbers.Real = 0
        for s in items:
            if s > capacity - alpha + eps:
                j1 += 1
            elif s > half + eps:
                j2 += 1
                j2_residual = j2_residual + (capacity - s)
            elif s >= alpha - eps:
                j3_volume = j3_volume + s
        overflow = j3_volume - j2_residual
        extra = robust_ceil(quotient(overflow, capacity)) if overflow > eps else 0
        best = max(best, j1 + j2 + extra)
    return best


class SearchLimitReached(RuntimeError):
    """Exact search exceeded its node budget; the instance is too large."""


def exact_bin_count(
    sizes: Sequence[numbers.Real],
    capacity: numbers.Real = 1,
    *,
    node_limit: int = 2_000_000,
) -> int:
    """Exact minimum number of bins for a static size list.

    Depth-first branch and bound over items in decreasing size order.  At
    each node the current item is tried in every open bin with a distinct
    residual (symmetric bins are equivalent) and, if the bin budget allows,
    in a new bin.  Pruning uses the continuous lower bound
    ``⌈remaining size that cannot reuse open residuals / W⌉``.

    Raises
    ------
    SearchLimitReached
        If more than ``node_limit`` nodes are expanded.  Snapshots in the
        provided experiments stay far below the default limit.
    """
    items = sorted(sizes, reverse=True)
    if not items:
        return 0
    eps = _eps_for(items)
    for s in items:
        if s > capacity + eps:
            raise ValueError(f"size {s} exceeds capacity {capacity}")
        if s <= 0:
            raise ValueError(f"sizes must be positive, got {s}")

    best = ffd_bin_count(items, capacity)
    root_lb = robust_ceil(quotient(sum(items), capacity))
    if best <= root_lb:
        return best

    # Suffix sums for the continuous bound.
    suffix: list[numbers.Real] = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + items[i]

    residuals: list[numbers.Real] = []
    nodes = 0

    def dfs(i: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitReached(
                f"exact bin packing exceeded {node_limit} nodes on {len(items)} items"
            )
        if len(residuals) >= best:
            return
        if i == len(items):
            best = len(residuals)
            return
        # Continuous completion bound: remaining volume beyond what the open
        # residual space can absorb still needs fresh bins.
        free = sum(residuals)
        overflow = suffix[i] - free
        if overflow > eps:
            extra = robust_ceil(quotient(overflow, capacity))
            if len(residuals) + extra >= best:
                return
        size = items[i]

        # Dominance: a perfect fit is always at least as good as any other
        # placement of this item (it cannot hurt later items).
        for j, res in enumerate(residuals):
            if abs(res - size) <= eps:
                residuals[j] = res - size
                dfs(i + 1)
                residuals[j] = res
                return

        tried: set[numbers.Real] = set()
        for j, res in enumerate(residuals):
            if size <= res + eps and res not in tried:
                tried.add(res)
                residuals[j] = res - size
                dfs(i + 1)
                residuals[j] = res
        if len(residuals) + 1 < best:
            residuals.append(capacity - size)
            dfs(i + 1)
            residuals.pop()

    dfs(0)
    return best


def snapshot_profile(
    items: Iterable[Item],
    capacity: numbers.Real = 1,
    *,
    method: str = "ffd",
    node_limit: int = 2_000_000,
) -> tuple[list[numbers.Real], list[int]]:
    """Per-segment repacked bin counts over the whole trace.

    Sweeps the event sequence and solves a static packing of the active set
    on each inter-event segment.  ``method`` is ``"ffd"`` (upper bound on
    the snapshot optimum) or ``"exact"``.

    Returns ``(times, counts)``: ``counts[i]`` holds on
    ``[times[i], times[i+1])``; the final count is zero.
    """
    if method == "ffd":
        return _sweep(items, capacity, ffd_bin_count)
    if method == "exact":
        return _sweep(
            items,
            capacity,
            lambda sizes, cap: exact_bin_count(sizes, cap, node_limit=node_limit),
        )
    raise ValueError(f"method must be 'ffd' or 'exact', got {method!r}")


def _sweep(
    items: Iterable[Item],
    capacity: numbers.Real,
    count: Callable[[list[numbers.Real], numbers.Real], int],
) -> tuple[list[numbers.Real], list[int]]:
    """``count`` the active sizes after the events at each event time.

    The events are taken in ``(time, kind, trace position)`` order with
    departures first, the online engine's same-instant rule (see
    :class:`~repro.core.EventKind`), from the trace sorted by arrival and
    by departure.  At each breakpoint, whose time is its first event's,
    the departing items leave, the arriving ones join in (arrival, trace
    position) order — the order the float sums of :func:`l2_lower_bound`
    see — and ``count`` runs.  An item arriving while another with its id
    is active raises :class:`~repro.core.validation.DuplicateItemIdError`;
    an id may rejoin once its item has left.

    An exact trace's sizes and capacity go on the integer lattice first
    (``count`` returns a bin count, which needs no mapping back).  A trace
    with an oversize item stays in the caller's units, where ``count``
    raises its size error.
    """
    items = list(items)
    sizes: list[numbers.Real] = [it.size for it in items]
    scale = lattice_scale(capacity, sizes)
    if scale is not None and scale > 1:
        lattice: list[numbers.Real] = [to_lattice(cast(int, s), scale) for s in sizes]
        lattice_capacity = to_lattice(cast(int, capacity), scale)
        if max(lattice, default=0) <= lattice_capacity:
            sizes, capacity = lattice, lattice_capacity
    n = len(items)
    order = list(range(n))
    arriving = sorted(order, key=lambda i: items[i].arrival)
    leaving = sorted(order, key=lambda i: items[i].departure)
    active: dict[str, numbers.Real] = {}
    times: list[numbers.Real] = []
    counts: list[int] = []
    a = d = 0
    while d < n:
        t = items[leaving[d]].departure
        if a < n and items[arriving[a]].arrival < t:
            t = items[arriving[a]].arrival
        while d < n and items[leaving[d]].departure == t:
            del active[items[leaving[d]].item_id]
            d += 1
        while a < n and items[arriving[a]].arrival == t:
            i = arriving[a]
            item_id = items[i].item_id
            if item_id in active:
                raise DuplicateItemIdError(item_id)
            active[item_id] = sizes[i]
            a += 1
        times.append(t)
        counts.append(count(list(active.values()), capacity))
    return times, counts


def opt_total_ffd_upper_bound(
    items: Iterable[Item], *, capacity: numbers.Real = 1, cost_rate: numbers.Real = 1
) -> numbers.Real:
    """``C·∫ FFD(t) dt ≥ OPT_total``: the offline repack-with-FFD schedule.

    Since ``OPT(R,t) ≤ FFD(t)`` at every instant, this integral upper-bounds
    ``OPT_total``, closing the bracket opened by the lower bounds.
    """
    times, counts = snapshot_profile(items, capacity, method="ffd")
    return cost_rate * _step_integral(times, counts)


def opt_total_exact(
    items: Iterable[Item],
    *,
    capacity: numbers.Real = 1,
    cost_rate: numbers.Real = 1,
    node_limit: int = 2_000_000,
) -> numbers.Real:
    """``OPT_total(R) = ∫ OPT(R,t)·C dt`` computed exactly per snapshot.

    Feasible for traces whose snapshots stay small; experiments fall back to
    :func:`opt_bracket <repro.opt.lower_bounds.opt_bracket>` otherwise.
    """
    times, counts = snapshot_profile(items, capacity, method="exact", node_limit=node_limit)
    return cost_rate * _step_integral(times, counts)


def opt_total_l2_lower_bound(
    items: Iterable[Item], *, capacity: numbers.Real = 1, cost_rate: numbers.Real = 1
) -> numbers.Real:
    """``C·∫ L2(active items at t) dt ≤ OPT_total``.

    The L2 sweep dominates the pointwise ``⌈load/W⌉`` integral whenever
    big items coexist (items above W/2 cannot share bins), tightening the
    OPT bracket on large-item workloads.  A vector size raises
    :class:`~repro.core.validation.InvalidItemTypeError`, naming the item.
    """
    items = list(items)
    _check_scalar_sizes(items, _SCALAR_BOUND)
    return cost_rate * _step_integral(*_sweep(items, capacity, l2_lower_bound))
