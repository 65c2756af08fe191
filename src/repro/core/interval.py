"""Interval arithmetic used throughout the reproduction.

The paper's ``span`` of an item list (Figure 1) is the measure of the union
of the items' active intervals
(:func:`~repro.core.metrics.trace_span`, through :func:`union_length`).
This module implements closed-interval unions, intersections and measures
exactly (no discretisation), working for ``int``, ``float`` and
:class:`fractions.Fraction` endpoints alike.

It also holds the one step function of a finished trace and its integral
(:func:`_step_function`, :func:`_step_integral`), under every offline
profile and bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence
from .numeric import Num

__all__ = [
    "Interval",
    "merge_intervals",
    "union_length",
    "interval_difference",
]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval ``[left, right]`` with ``right >= left``."""

    left: Num
    right: Num

    def __post_init__(self) -> None:
        if self.right < self.left:
            raise ValueError(f"empty interval: [{self.left}, {self.right}]")

    @property
    def length(self) -> Num:
        return self.right - self.left

    def contains(self, t: Num) -> bool:
        return self.left <= t <= self.right

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two closed intervals share more than a point.

        Two intervals that merely touch at an endpoint have an intersection
        of measure zero and are *not* considered overlapping, matching the
        paper's use ("their time intervals overlap") for reference periods.
        """
        return self.left < other.right and other.left < self.right

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.left, other.left)
        hi = min(self.right, other.right)
        if hi < lo:
            return None
        return Interval(lo, hi)


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge intervals into a minimal sorted list of disjoint intervals.

    Touching intervals (``a.right == b.left``) are merged, since their union
    is a single interval.
    """
    ivs = sorted(intervals, key=lambda iv: (iv.left, iv.right))
    merged: list[Interval] = []
    for iv in ivs:
        if merged and iv.left <= merged[-1].right:
            last = merged[-1]
            if iv.right > last.right:
                merged[-1] = Interval(last.left, iv.right)
        else:
            merged.append(iv)
    return merged


def union_length(intervals: Iterable[Interval]) -> Num:
    """Measure of the union of the intervals (0 for an empty collection)."""
    merged = merge_intervals(intervals)
    total: Num = 0
    for iv in merged:
        total = total + iv.length
    return total


def interval_difference(a: Interval, subtract: Sequence[Interval]) -> list[Interval]:
    """The parts of ``a`` not covered by any interval in ``subtract``.

    Returns a sorted list of disjoint intervals; zero-length pieces are
    dropped.
    """
    pieces: list[Interval] = []
    cursor = a.left
    for iv in merge_intervals(subtract):
        if iv.right <= cursor:
            continue
        if iv.left >= a.right:
            break
        if iv.left > cursor:
            pieces.append(Interval(cursor, min(iv.left, a.right)))
        cursor = max(cursor, iv.right)
        if cursor >= a.right:
            break
    if cursor < a.right:
        pieces.append(Interval(cursor, a.right))
    return [p for p in pieces if p.length > 0]


def _step_function(spans: Iterable[tuple[Num, Num, Any]]) -> tuple[list[Num], list[Any]]:
    """``(times, values)``: the step function ``Σ weight·1[start, end)``.

    Each span's ``±weight`` accumulates per breakpoint in input order (a
    breakpoint keeps the first of its equal times), then the sorted
    breakpoints take a running total, so float weights never drift along
    the sweep; the final value, after every span, is an exact ``0``.
    """
    deltas: dict[Num, Any] = {}
    for start, end, weight in spans:
        deltas[start] = deltas.get(start, 0) + weight
        deltas[end] = deltas.get(end, 0) - weight
    times = sorted(deltas)
    values: list[Any] = []
    running: Any = 0
    for t in times:
        running = running + deltas[t]
        values.append(running)
    if values:
        values[-1] = 0
    return times, values


def _step_integral(times: Sequence[Num], values: Sequence[Any]) -> Any:
    """``Σ values[i]·(times[i+1] − times[i])``, summed in time order from
    the ``int`` 0, skipping zero steps."""
    total: Any = 0
    for value, start, end in zip(values, times, times[1:]):
        if value:
            total = total + value * (end - start)
    return total
