"""Load profiles: the total active size as a step function of time.

The instantaneous load ``load(t) = Σ_{r active at t} s(r)`` drives every
OPT lower bound: at time ``t`` any packing needs at least
``⌈load(t)/W⌉`` bins.  The profile is piecewise constant between event
times, so integrals over it are exact sums.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

from ..core.item import Item

__all__ = ["load_profile", "active_profile", "max_load"]


def load_profile(items: Iterable[Item]) -> tuple[list[numbers.Real], list[numbers.Real]]:
    """Exact load step function of a trace.

    Returns ``(times, loads)`` with ``loads[i]`` the total active size on
    ``[times[i], times[i+1])``.  Arithmetic is exact for exact inputs; with
    floats, sizes are re-summed per breakpoint group (never incrementally
    drifting) by accumulating signed deltas of the original values.
    """
    items = list(items)
    return _load_steps(items, [it.size for it in items])


def _load_steps(
    items: Sequence[Item], sizes: Sequence[numbers.Real]
) -> tuple[list[numbers.Real], list[numbers.Real]]:
    """:func:`load_profile` with ``sizes[i]`` standing for ``items[i].size``.

    :func:`~repro.opt.lower_bounds.pointwise_lower_bound` passes the sizes
    of the integer lattice (:mod:`repro.core.numeric`) to sum loads in
    ``int`` arithmetic.
    """
    deltas: dict[numbers.Real, numbers.Real] = {}
    for it, size in zip(items, sizes):
        deltas[it.arrival] = deltas.get(it.arrival, 0) + size
        deltas[it.departure] = deltas.get(it.departure, 0) - size
    times = sorted(deltas)
    loads: list[numbers.Real] = []
    running: numbers.Real = 0
    for t in times:
        running = running + deltas[t]
        loads.append(running)
    if loads:
        # The final segment is after the last departure; force exact zero to
        # clear any float residue from the +/- cancellation.
        loads[-1] = 0
    return times, loads


def active_profile(items: Iterable[Item]) -> tuple[list[numbers.Real], list[int]]:
    """Step function of the number of active items."""
    deltas: dict[numbers.Real, int] = {}
    for it in items:
        deltas[it.arrival] = deltas.get(it.arrival, 0) + 1
        deltas[it.departure] = deltas.get(it.departure, 0) - 1
    times = sorted(deltas)
    counts: list[int] = []
    running = 0
    for t in times:
        running += deltas[t]
        counts.append(running)
    return times, counts


def max_load(items: Iterable[Item]) -> numbers.Real:
    """Peak instantaneous load of the trace."""
    _, loads = load_profile(items)
    return max(loads, default=0)
