"""Packing results: everything a finished simulation knows.

A :class:`PackingResult` records the finalized items, the bin each item was
assigned to, and every bin's full usage history.  From it one can compute
the paper's objective ``A_total(R) = ∫ A(R,t)·C dt`` exactly (the number of
open bins is piecewise constant, and each bin contributes exactly
``usage length × C``), the classic DBP objective ``max_t A(R,t)``, and all
the proof artifacts of Figures 4-8.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .numeric import Num
from .interval import Interval, _step_function, union_length
from .resources import Size
from .item import Item

if TYPE_CHECKING:  # pragma: no cover
    from .cost import CostModel

__all__ = ["BinRecord", "PackingResult"]


@dataclass(frozen=True, slots=True)
class BinRecord:
    """Immutable record of one bin's complete life."""

    index: int
    label: Any
    opened_at: Num
    closed_at: Num
    #: ``(time, item_id)`` placements in chronological order.
    assignments: tuple[tuple[Num, str], ...]
    #: This bin's own capacity; ``None`` means the packing-wide default
    #: (heterogeneous-fleet algorithms open bins of varying capacity).
    capacity: Size | None = None

    @property
    def usage_length(self) -> Num:
        """``len(I_i)``: how long the bin stayed open."""
        return self.closed_at - self.opened_at

    def usage_interval(self) -> Interval:
        """The usage period ``I_i`` as an interval."""
        return Interval(self.opened_at, self.closed_at)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(item_id for _, item_id in self.assignments)


@dataclass(frozen=True, slots=True)
class PackingResult:
    """Outcome of packing an item list with an online algorithm."""

    algorithm_name: str
    capacity: Size
    cost_rate: Num
    items: tuple[Item, ...]
    #: item_id -> bin index
    assignment: dict[str, int]
    bins: tuple[BinRecord, ...]
    _profile_cache: dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    # ----------------------------------------------------------------- costs

    def total_cost(self, cost_model: "CostModel | None" = None) -> Num:
        """The paper's ``A_total(R)``.

        With the default continuous model this is
        ``cost_rate * Σ_i len(I_i)``, which equals ``∫ n(t)·C dt`` exactly.
        Pass a :class:`~repro.core.cost.CostModel` (e.g. hourly billing) for
        alternative pricing.
        """
        if cost_model is None:
            total: Num = 0
            for b in self.bins:
                total = total + b.usage_length
            return total * self.cost_rate
        total = 0
        for b in self.bins:
            total = total + cost_model.bin_cost(b.usage_length)
        return total

    @property
    def total_bin_time(self) -> Num:
        """``Σ_i len(I_i)``: total bin usage time (cost at unit rate)."""
        total: Num = 0
        for b in self.bins:
            total = total + b.usage_length
        return total

    @property
    def num_bins_used(self) -> int:
        """Total number of distinct bins ever opened."""
        return len(self.bins)

    # ------------------------------------------------------------ n(t) curve

    def bin_count_profile(self) -> tuple[list[Num], list[int]]:
        """The step function ``A(R,t)``: (breakpoints, counts).

        ``counts[i]`` is the number of open bins on ``[times[i],
        times[i+1])``; the final count is always 0.  A bin is counted open
        on ``[opened_at, closed_at)`` so that the integral of the profile
        equals :attr:`total_bin_time` exactly.
        """
        if "profile" not in self._profile_cache:
            self._profile_cache["profile"] = _step_function(
                (b.opened_at, b.closed_at, 1) for b in self.bins
            )
        return self._profile_cache["profile"]

    def num_open_bins(self, t: Num) -> int:
        """``A(R,t)``: open-bin count at time ``t`` (right-continuous)."""
        times, counts = self.bin_count_profile()
        idx = bisect_right(times, t) - 1
        if idx < 0:
            return 0
        return counts[idx]

    @property
    def max_bins_used(self) -> int:
        """The classic DBP objective: ``max_t A(R,t)``."""
        _, counts = self.bin_count_profile()
        return max(counts, default=0)

    # --------------------------------------------------------------- lookups

    def item_by_id(self, item_id: str) -> Item:
        if "by_id" not in self._profile_cache:
            self._profile_cache["by_id"] = {it.item_id: it for it in self.items}
        return self._profile_cache["by_id"][item_id]

    def bin_of(self, item_id: str) -> BinRecord:
        """The bin record that the given item was assigned to."""
        return self.bins[self.assignment[item_id]]

    def items_in_bin(self, bin_index: int) -> list[Item]:
        """The paper's ``R_i``: all items ever assigned to bin ``i``."""
        record = self.bins[bin_index]
        return [self.item_by_id(item_id) for item_id in record.item_ids]

    def bin_capacity(self, record: BinRecord) -> Size:
        """A bin's effective capacity (its own, or the packing default)."""
        return self.capacity if record.capacity is None else record.capacity

    @property
    def total_capacity_time(self) -> Size:
        """``Σ_i W_i·len(I_i)``: paid capacity-time (= W·Σlen for uniform
        bins; per-dimension for vector bins)."""
        total: Size = 0
        for b in self.bins:
            total = total + self.bin_capacity(b) * b.usage_length
        return total

    # ------------------------------------------------------------ invariants

    def check_invariants(self, *, tolerance: float = 1e-9) -> None:
        """Verify structural invariants; raises ``AssertionError`` on failure.

        Checks: every item assigned exactly once; bin usage period covers
        the intervals of its items (``I_i = ∪_{r∈R_i} I(r)``, so the union
        of item intervals equals the usage period); level never exceeded
        capacity (replayed); span of R_i equals usage length.
        """
        assert set(self.assignment) == {it.item_id for it in self.items}, (
            "assignment does not cover exactly the item set"
        )
        for b in self.bins:
            items = self.items_in_bin(b.index)
            assert items, f"bin {b.index} has no items"
            assert min(it.arrival for it in items) == b.opened_at, (
                f"bin {b.index} opened_at mismatch"
            )
            assert max(it.departure for it in items) == b.closed_at, (
                f"bin {b.index} closed_at mismatch"
            )
            covered = union_length([Interval(it.arrival, it.departure) for it in items])
            assert abs(covered - b.usage_length) <= tolerance * max(1, abs(b.usage_length)), (
                f"bin {b.index} usage period not the union of its item intervals"
            )
            # Replay levels at each assignment instant.
            cap = self.bin_capacity(b)
            for t, item_id in b.assignments:
                level = sum(
                    it.size
                    for it in items
                    if it.arrival <= t < it.departure
                )
                assert level <= cap + tolerance, (
                    f"bin {b.index} over capacity at t={t}: level {level} > {cap}"
                )
