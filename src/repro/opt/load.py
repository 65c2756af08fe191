"""Load profiles: the total active size as a step function of time.

The instantaneous load ``load(t) = Σ_{r active at t} s(r)`` drives every
OPT lower bound: at time ``t`` any packing needs at least
``⌈load(t)/W⌉`` bins.  The profile is piecewise constant between event
times, so integrals over it are exact sums.

Both profiles are the one step function of :mod:`repro.core.interval`
over the spans ``[a(r), d(r))``, weighted by size or by 1; it also builds
:meth:`~repro.core.result.PackingResult.bin_count_profile`.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

from ..core.interval import _step_function
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
    return _step_function(
        (it.arrival, it.departure, size) for it, size in zip(items, sizes)
    )


def active_profile(items: Iterable[Item]) -> tuple[list[numbers.Real], list[int]]:
    """Step function of the number of active items."""
    return _step_function((it.arrival, it.departure, 1) for it in items)


def max_load(items: Iterable[Item]) -> numbers.Real:
    """Peak instantaneous load of the trace."""
    _, loads = load_profile(items)
    return max(loads, default=0)
