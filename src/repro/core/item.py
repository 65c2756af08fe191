"""Items of the MinTotal Dynamic Bin Packing problem.

An item ``r`` is the paper's 3-tuple ``(a(r), d(r), s(r))``: arrival time,
departure time and size.  In the cloud-gaming interpretation an item is a
playing request whose size is the GPU demand of the game instance and whose
interval is the play session.

All time and size values may be any real ``Num`` — ``int``,
``float`` or :class:`fractions.Fraction`.  Exact ``Fraction`` arithmetic is
used by the adversarial lower-bound constructions so that measured costs
match the paper's closed-form expressions exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from .events import check_fits
from .numeric import NUM_TYPES, Num
from .resources import (
    Resources,
    Size,
    dims_of,
    is_valid_size,
)
from .validation import (
    DuplicateItemIdError,
    InvalidIntervalError,
    InvalidItemSizeError,
    InvalidItemTypeError,
    ResourceDimensionError,
    TraceValidationError,
)

__all__ = ["Item", "make_items", "validate_items"]

_id_counter = itertools.count()


def _fresh_id() -> str:
    # The "auto-" namespace keeps generated ids disjoint from
    # make_items(prefix="item") ids, which also read "item-N".
    return f"auto-item-{next(_id_counter)}"


@dataclass(frozen=True, slots=True)
class Item:
    """A single DBP item ``r = (a(r), d(r), s(r))``.

    Parameters
    ----------
    arrival:
        Arrival time ``a(r)``.
    departure:
        Departure time ``d(r)``; must satisfy ``d(r) > a(r)``.
    size:
        Item size ``s(r)``; must be strictly positive.
    item_id:
        Stable identifier, auto-generated when omitted.
    tag:
        Free-form annotation (e.g. the game title in cloud-gaming traces,
        or the adversary phase that emitted the item).
    """

    arrival: Num
    departure: Num
    size: Size
    item_id: str = field(default_factory=_fresh_id)
    tag: Any = None

    def __post_init__(self) -> None:
        for name in ("arrival", "departure"):
            value = getattr(self, name)
            if not isinstance(value, NUM_TYPES):
                raise InvalidItemTypeError(name, value, item_id=self.item_id)
            if value != value:  # NaN
                raise TraceValidationError(
                    f"Item.{name} must not be NaN", item_id=self.item_id
                )
        if not isinstance(self.size, (Resources, *NUM_TYPES)):
            raise InvalidItemTypeError(
                "size",
                self.size,
                expected="a real number or Resources vector",
                item_id=self.item_id,
            )
        if isinstance(self.size, float) and self.size != self.size:  # NaN
            raise TraceValidationError(
                "Item.size must not be NaN", item_id=self.item_id
            )
        if not self.departure > self.arrival:
            raise InvalidIntervalError(
                self.arrival, self.departure, item_id=self.item_id
            )
        if not is_valid_size(self.size):
            raise InvalidItemSizeError(self.size, item_id=self.item_id)

    @property
    def interval(self) -> tuple[Num, Num]:
        """The active interval ``I(r) = [a(r), d(r)]``."""
        return (self.arrival, self.departure)

    @property
    def length(self) -> Num:
        """Interval length ``len(I(r)) = d(r) - a(r)``."""
        return self.departure - self.arrival

    @property
    def demand(self) -> Size:
        """Resource demand ``u(r) = s(r) * len(I(r))`` (per-dimension for vectors)."""
        return self.size * self.length

    @property
    def dims(self) -> int | None:
        """Dimension count of the size: ``None`` for scalar items."""
        return dims_of(self.size)

    def active_at(self, t: Num) -> bool:
        """Whether the item is active at time ``t``.

        Following the paper, the active interval is closed on the left and
        open on the right for occupancy purposes: an item departing at ``t``
        no longer occupies capacity at ``t`` (the adversarial constructions
        rely on departures freeing capacity for same-instant arrivals).
        """
        return self.arrival <= t < self.departure

    def with_departure(self, departure: Num) -> "Item":
        """A copy of this item with a new departure time."""
        return replace(self, departure=departure)


_SET_FIELDS = tuple(
    getattr(Item, name).__set__ for name in ("arrival", "departure", "size", "item_id", "tag")
)


def _resized(item: Item, size: Size) -> Item:
    """A copy of the validated ``item`` with another valid ``size``.

    The slot setters skip :meth:`Item.__post_init__`: the copy keeps every
    checked field but the size, and the caller vouches for that (an exact
    size times a lattice scale, see :mod:`repro.core.numeric`).
    """
    copy = object.__new__(Item)
    set_arrival, set_departure, set_size, set_item_id, set_tag = _SET_FIELDS
    set_arrival(copy, item.arrival)
    set_departure(copy, item.departure)
    set_size(copy, size)
    set_item_id(copy, item.item_id)
    set_tag(copy, item.tag)
    return copy


def make_items(
    triples: Iterable[tuple[Num, Num, Size]],
    *,
    prefix: str = "item",
) -> list[Item]:
    """Build items from ``(arrival, departure, size)`` triples.

    Convenience constructor for tests, examples and docs.  Item ids are
    ``f"{prefix}-{index}"``; sizes may be scalars or ``Resources``.
    """
    return [
        Item(arrival=a, departure=d, size=s, item_id=f"{prefix}-{i}")
        for i, (a, d, s) in enumerate(triples)
    ]


def validate_items(
    items: Iterable[Item], *, capacity: Size | None = None
) -> list[Item]:
    """Validate a list of items, returning it as a concrete list.

    Checks for duplicate ids, uniform size dimensionality (all scalar or
    all ``d``-dimensional) and, when ``capacity`` is given, that every
    single item fits in a bin on its own — per dimension for vector sizes
    (a necessary feasibility condition for any packing) — through
    :func:`~repro.core.events.check_fits`, the check the event kernel
    applies to streamed items.
    """
    out = list(items)
    seen: set[str] = set()
    trace_dims: int | None = None
    first = True
    for item in out:
        if item.item_id in seen:
            raise DuplicateItemIdError(item.item_id)
        seen.add(item.item_id)
        item_dims = dims_of(item.size)
        if first:
            trace_dims = item_dims
            first = False
        elif item_dims != trace_dims:
            raise ResourceDimensionError(
                trace_dims, item_dims, item_id=item.item_id
            )
        if capacity is not None:
            check_fits(item, capacity)
    return out


def _check_scalar_sizes(items: Iterable[Item], purpose: str) -> None:
    """Raise :class:`~repro.core.validation.InvalidItemTypeError` naming
    the first item with a vector size; ``purpose`` says what needs a scalar."""
    for item in items:
        if isinstance(item.size, Resources):
            expected = f"a scalar {purpose} (item {item.item_id!r})"
            raise InvalidItemTypeError(
                "size", item.size, expected=expected, item_id=item.item_id
            )
