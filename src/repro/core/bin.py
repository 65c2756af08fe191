"""Bins (game-server VMs) of the MinTotal DBP model.

A bin is opened when its first item is placed and closed when its last item
departs; its cost is ``cost_rate * (closed_at - opened_at)``.  Bins record a
full assignment log so that the proof-machinery analyses (Figures 4-8 of the
paper) can be computed after a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from .numeric import Num
from .resources import Size

if TYPE_CHECKING:  # pragma: no cover
    from .interval import Interval

__all__ = [
    "Bin",
    "BinAssignment",
    "BinClosedError",
    "CapacityExceededError",
    "PackedItem",
]


class PackedItem(Protocol):
    """What a bin needs to know about an item it holds.

    Structural: satisfied both by the full :class:`~repro.core.item.Item`
    (offline record, has a departure) and by the online
    :class:`~repro.algorithms.base.Arrival` view (no departure) that the
    simulator actually stores in bins.  Bins never read departure times —
    that is the online model's whole point — so the protocol omits them.
    """

    @property
    def item_id(self) -> str: ...

    @property
    def size(self) -> Size: ...

    @property
    def arrival(self) -> Num: ...

    @property
    def tag(self) -> Any: ...


class BinClosedError(RuntimeError):
    """Raised when an operation targets a bin that has already closed."""


class CapacityExceededError(ValueError):
    """Raised when a placement would push a bin above its capacity."""


@dataclass(frozen=True, slots=True)
class BinAssignment:
    """One ``(time, item)`` placement event recorded in a bin's log."""

    time: Num
    item: PackedItem


@dataclass(eq=False, slots=True)
class Bin:
    """A single bin with capacity ``W`` and its usage history.

    Attributes
    ----------
    index:
        0-based opening order (the paper's subscript of ``b_i``, offset by
        one).  Bins opened earlier have smaller indices, which is what
        First Fit's "earliest opened bin" rule inspects.
    capacity:
        Bin capacity ``W``.
    label:
        Algorithm-private annotation; Modified First Fit uses it to keep
        large-item and small-item bins in separate pools.
    """

    index: int
    capacity: Size
    label: Any = None
    opened_at: Num | None = None
    closed_at: Num | None = None
    _contents: dict[str, PackedItem] = field(default_factory=dict, repr=False)
    _level: Size = 0
    assignments: list[BinAssignment] = field(default_factory=list, repr=False)
    #: When false, skip the assignment log — the streaming engine's
    #: O(active)-memory mode (the log is the only per-bin state that grows
    #: with every item ever placed rather than with current occupancy).
    record_log: bool = True

    # ------------------------------------------------------------------ state

    @property
    def level(self) -> Size:
        """Current level: total size of the items in the bin (per-dimension
        for vector bins)."""
        return self._level

    @property
    def residual(self) -> Size:
        """Remaining capacity ``W - level`` (per-dimension for vector bins)."""
        return self.capacity - self._level

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None and self.closed_at is None

    @property
    def is_closed(self) -> bool:
        return self.closed_at is not None

    @property
    def is_empty(self) -> bool:
        return not self._contents

    @property
    def num_items(self) -> int:
        return len(self._contents)

    def items(self) -> list[PackedItem]:
        """The items currently in the bin (arbitrary but stable order)."""
        return list(self._contents.values())

    def contains(self, item_id: str) -> bool:
        return item_id in self._contents

    def fits(self, item: PackedItem) -> bool:
        """Whether ``item`` fits in the current residual capacity.

        Exact comparison — callers working with floats should construct
        instances whose sizes are exactly representable (the provided
        adversaries do), as the paper's analysis is exact.  For vector
        bins this is *dominance*: the item must fit in every dimension.
        """
        return item.size <= self.residual

    # ------------------------------------------------------------ transitions

    def add(self, item: PackedItem, time: Num) -> None:
        """Place ``item`` into the bin at ``time``.

        Opens the bin if this is its first item.  Raises
        :class:`CapacityExceededError` if the item does not fit — packing
        algorithms must check :meth:`fits` first, and the simulator treats a
        violation as an algorithm bug rather than silently accepting it.
        """
        if self.closed_at is not None:
            raise BinClosedError(f"bin {self.index} is closed; cannot add {item.item_id}")
        if not item.size <= self.capacity - self._level:
            # The test fits() makes, inline.  Dominance is a partial order:
            # "does not fit" must be spelled not size <= residual, not
            # size > residual (incomparable vectors are neither).
            raise CapacityExceededError(
                f"item {item.item_id} (size {item.size}) does not fit in bin "
                f"{self.index} (residual {self.residual})"
            )
        if item.item_id in self._contents:
            raise ValueError(f"item {item.item_id} already in bin {self.index}")
        if self.opened_at is None:
            self.opened_at = time
        self._contents[item.item_id] = item
        self._level = self._level + item.size
        if self.record_log:
            self.assignments.append(BinAssignment(time, item))

    def force_close(self, time: Num) -> list[PackedItem]:
        """Forcibly close the bin at ``time``, evicting every current item.

        Models a server failure (spot preemption, crash): the bin's usage
        period ends now regardless of occupancy.  Returns the evicted items
        in placement order; the caller (typically
        :meth:`~repro.core.simulator.Simulator.fail_bin`) is responsible for
        re-dispatching or discarding them.
        """
        if self.is_closed:
            raise BinClosedError(f"bin {self.index} is already closed")
        if self.opened_at is None:
            raise BinClosedError(f"bin {self.index} was never opened")
        evicted = list(self._contents.values())
        self._contents.clear()
        self._level = 0
        self.closed_at = time
        return evicted

    def remove(self, item_id: str, time: Num) -> PackedItem:
        """Remove a departing item; closes the bin if it becomes empty."""
        if self.closed_at is not None:
            raise BinClosedError(f"bin {self.index} is closed; cannot remove {item_id}")
        try:
            item = self._contents.pop(item_id)
        except KeyError:
            raise KeyError(f"item {item_id} is not in bin {self.index}") from None
        self._level = self._level - item.size
        if not self._contents:
            self._level = 0  # clear float residue exactly on emptiness
            self.closed_at = time
        return item

    # -------------------------------------------------------------- reporting

    @property
    def usage_length(self) -> Num:
        """Length of the usage period ``len(I_i)`` (requires a closed bin)."""
        if self.opened_at is None or self.closed_at is None:
            raise BinClosedError(f"bin {self.index} has no complete usage period yet")
        return self.closed_at - self.opened_at

    def usage_interval(self) -> "Interval":
        """The usage period ``I_i = [I_i^-, I_i^+]`` as an interval."""
        from .interval import Interval

        if self.opened_at is None or self.closed_at is None:
            raise BinClosedError(f"bin {self.index} has no complete usage period yet")
        return Interval(self.opened_at, self.closed_at)

    def assigned_items(self) -> list[PackedItem]:
        """Every item ever assigned to this bin (the paper's ``R_i``)."""
        return [a.item for a in self.assignments]

    def configuration(self) -> dict[Size, int]:
        """Current bin configuration as ``{size: count}``.

        This realises the paper's ``<x1|_y1, ..., xk|_yk>`` notation (see
        :mod:`repro.core.config_notation` for parsing/formatting).
        """
        config: dict[Num, int] = {}
        for item in self._contents.values():
            config[item.size] = config.get(item.size, 0) + 1
        return config
