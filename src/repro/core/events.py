"""The event kernel: one loop orders and applies every engine event.

Its callers are the online drivers, which all run the single generator
:func:`_merge_events` — :func:`~repro.core.simulator.simulate`,
:func:`~repro.core.streaming.simulate_stream` (plain, checkpointed and
resumed), :func:`~repro.cloud.faults.simulate_faulty_stream` and the
capped fleet of :mod:`repro.cloud.finite_fleet` — and the public
:func:`iter_events`.  Offline profiles and bounds of a finished trace
(:mod:`repro.opt`) sort its events themselves by the same rule.  The
kernel merges two things: the arrival-ordered item source, and one heap
of pending engine events keyed ``(time, class, seq)``.  At one instant
the classes run in :class:`EventKind` order:

1. **departures**, in ``seq`` order (an item's trace position);
2. **server failures** — a session departing exactly when its server dies
   has already left;
3. **deferred re-admissions** — a session re-admitted at a failure instant
   is placed after that instant's evictions, so it cannot be struck into
   a zero-length attempt;
4. **stream arrivals**, in trace order.

Departures before arrivals is the paper's rule: an item departing at
``t`` frees capacity that same-instant arrivals may use, and the
sequential "groups arrive one after another" orderings of the adversarial
constructions are expressed by trace order at equal times.

The kernel also owns the admission checks: it validates each pulled item
once (non-decreasing arrivals, and :func:`check_fits` against the bin
capacity — the check :func:`~repro.core.item.validate_items` shares), so
the same-instant order and the item checks are decided in this module
alone.  It holds only the heap of pending events in memory — O(active)
space, never O(trace).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

from .numeric import Num
from .resources import Resources, Size, dims_of, oversize_dimension, size_fits
from .validation import (
    OversizedItemError,
    ResourceDimensionError,
    TraceValidationError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .bin import Bin
    from .item import Item
    from .simulator import Simulator

__all__ = [
    "EventKind",
    "Event",
    "EventOrderError",
    "check_fits",
    "iter_events",
]


class EventOrderError(TraceValidationError):
    """Raised by the event kernel when arrivals are not non-decreasing."""


class EventKind(enum.IntEnum):
    """Event classes; the integer values encode the same-time ordering."""

    DEPARTURE = 0
    FAILURE = 1
    READMISSION = 2
    ARRIVAL = 3


_DEPARTURE, _FAILURE, _READMISSION, _ARRIVAL = (kind.value for kind in EventKind)
_KINDS = tuple(EventKind)

#: One pending engine event: ``(time, class, seq, payload)``.  A
#: re-admission carries the item to admit (anything with ``departure``,
#: ``size``, ``item_id`` and ``tag``); a departure carries the item's id
#: when the kernel drives a simulator, and the item itself otherwise.
Entry = tuple[Num, int, int, Any]

#: ``ship(pending, items_consumed, events_processed, last_arrival)``.
Ship = Callable[[list[Entry], int, int, "Num | None"], None]


class _Hooks(Protocol):
    """What the kernel calls after every arrival and departure it applies.

    Each hook receives the bin the event touched: the bin
    :meth:`~repro.core.simulator.Simulator.arrive` placed the item in, or
    the bin :meth:`~repro.core.simulator.Simulator.depart` took it out of
    (closed if the item was its last).  ``after_arrival`` runs whether or
    not the simulator admitted the item: only a simulator that declines a
    bin refuses one (a capped fleet, see :mod:`repro.cloud.finite_fleet`),
    and then ``bin`` is ``None``.  Every other change to an open bin is
    made by the hooks' owner itself (a repacker's migrations, the fault
    driver's server failures, the capped fleet's re-offers), so a hooks
    object may keep per-bin state until that bin changes.
    """

    def after_arrival(self, sim: Simulator, item: Item, bin: Bin | None) -> None: ...

    def after_departure(self, sim: Simulator, item_id: str, bin: Bin) -> None: ...


@dataclass(frozen=True, slots=True)
class Event:
    """A single arrival or departure event."""

    time: Num
    kind: EventKind
    item: Item
    seq: int  # stable tiebreaker: trace position of the item

    @property
    def sort_key(self) -> tuple:
        return (self.time, int(self.kind), self.seq)


def check_fits(item: Item, capacity: Size) -> None:
    """Raise unless ``item`` fits an empty bin of ``capacity`` on its own.

    The one fit and dimension check of every boundary (the event kernel
    and :func:`~repro.core.item.validate_items`): a scalar size against a
    vector capacity, or a ``d``-dimensional size against a ``d'``-dimensional
    capacity, raises :class:`~repro.core.validation.ResourceDimensionError`;
    a size exceeding the capacity (in some dimension) raises
    :class:`~repro.core.validation.OversizedItemError`.  A vector size
    against a scalar capacity broadcasts the capacity.
    """
    size = item.size
    if isinstance(capacity, Resources) and dims_of(size) != capacity.dims:
        raise ResourceDimensionError(
            capacity.dims, dims_of(size), item_id=item.item_id
        )
    if not size_fits(size, capacity):
        raise OversizedItemError(
            size,
            capacity,
            item_id=item.item_id,
            dimension=oversize_dimension(size, capacity),
        )


def _out_of_order(item: Item, last_arrival: Num) -> EventOrderError:
    """The error for a streamed item arriving before its predecessor."""
    return EventOrderError(
        f"item {item.item_id!r} arrives at {item.arrival}, before "
        f"the previous arrival at {last_arrival}; streamed items "
        "must have non-decreasing arrival times — sort the trace "
        "first (simulate accepts any order)",
        item_id=item.item_id,
    )


def _merge_events(
    items: Iterable[Item],
    seqs: Iterator[int] | None = None,
    *,
    pending: list[Entry] | None = None,
    sim: Simulator | None = None,
    hooks: _Hooks | None = None,
    capacity: Size | None = None,
    consumed: int = 0,
    events: int = 0,
    last_arrival: Num | None = None,
    checkpoint_every: int | None = None,
    ship: Ship | None = None,
) -> Iterator[Entry]:
    """The event kernel: merge the item source with the pending-event heap.

    Processes events in ``(time, class, seq)`` order.  Items are pulled
    lazily, one at a time, and validated once (non-decreasing arrivals;
    ``capacity``, when given, through :func:`check_fits`).  Each
    admission — a stream arrival, or a :attr:`EventKind.READMISSION` entry
    someone scheduled — draws its departure tiebreak from ``seqs``
    (default: trace positions counting from ``consumed``) and schedules
    its departure on the heap — with a ``sim``, only if it admitted the
    item.

    Without a ``sim`` the kernel yields every event as a ``(time, class,
    seq, payload)`` entry.  With one, it applies admissions and departures
    to it itself, calling ``hooks`` after each with the bin the event
    touched (see :class:`_Hooks`), and drops departures of items the
    simulator no longer holds (evicted by a server failure); it yields
    only :attr:`EventKind.FAILURE` entries, which the caller handles,
    pushing further entries onto ``pending`` — the heap it shares with
    the kernel.  A failure never keeps a run alive: once the source
    is exhausted, the run ends at a failure that finds no active item and
    no pending re-admission.

    Every ``checkpoint_every`` events the kernel calls ``ship`` with its
    merge state (the heap, items consumed, events processed, last arrival
    pulled); ``consumed``, ``events`` and ``last_arrival`` resume that
    state from a checkpoint.
    """
    if seqs is None:
        seqs = itertools.count(consumed)
    if pending is None:
        pending = []
    push, pop = heapq.heappush, heapq.heappop
    active: Mapping[str, object] = {} if sim is None else sim._active
    if sim is not None:
        arrive, depart = sim.arrive, sim.depart
    if hooks is not None:
        after_arrival, after_departure = hooks.after_arrival, hooks.after_departure
    source = iter(items)
    item: Item | None = None  # pulled from the source, not yet admitted
    arrival: Num = 0
    exhausted = False
    # The event count at which the next checkpoint ships (-1: never).
    ship_at = -1
    if checkpoint_every is not None:
        ship_at = events - events % checkpoint_every + checkpoint_every
    while True:
        if item is None and not exhausted:
            item = next(source, None)
            if item is None:
                exhausted = True
            else:
                if capacity is not None:
                    check_fits(item, capacity)
                arrival = item.arrival
                if last_arrival is not None and arrival < last_arrival:
                    raise _out_of_order(item, last_arrival)
                last_arrival = arrival
        # Arrivals are the last class at an instant: the pulled item goes
        # next unless a pending event is due at or before its arrival.
        if item is not None and not (pending and pending[0][0] <= arrival):
            time, cls, payload = arrival, _ARRIVAL, item
            item = None
            consumed += 1
        elif pending:
            time, cls, seq, payload = pop(pending)
        else:
            return
        if cls == _DEPARTURE:
            if sim is None:
                yield (time, cls, seq, payload)
            else:
                if payload not in active:
                    continue  # evicted by a failure before its departure
                left = depart(payload, time)
                if hooks is not None:
                    after_departure(sim, payload, left)
        elif cls == _FAILURE:
            if exhausted and not (
                active or any(entry[1] == _READMISSION for entry in pending)
            ):
                return
            yield (time, cls, seq, payload)
        else:
            seq = next(seqs)
            if sim is None:
                push(pending, (payload.departure, _DEPARTURE, seq, payload))
                yield (time, cls, seq, payload)
            else:
                # A refused arrival (``None``) has no departure.  Only the
                # id goes on the heap: an entry of atoms is not tracked by
                # the garbage collector, which would otherwise walk every
                # active item's entry on each collection.
                placed = arrive(time, payload.size, payload.item_id, payload.tag)
                if placed is not None:
                    push(pending, (payload.departure, _DEPARTURE, seq, payload.item_id))
                if hooks is not None:
                    after_arrival(sim, payload, placed)
        events += 1
        if events == ship_at:
            assert ship is not None and checkpoint_every is not None  # passed together
            ship(pending, consumed, events, last_arrival)
            ship_at += checkpoint_every


def _by_arrival(trace: Sequence[Item]) -> tuple[Iterator[Item], Iterator[int]]:
    """A trace stable-sorted by arrival, and each item's trace position.

    The positions are the departure tiebreaks the kernel draws, so
    :func:`~repro.core.simulator.simulate` replays an unsorted trace in
    ``(time, kind, trace position)`` order, as it would the sorted trace.
    """
    order = sorted(range(len(trace)), key=lambda i: trace[i].arrival)
    return map(trace.__getitem__, order), iter(order)


def iter_events(items: Iterable[Item]) -> Iterator[Event]:
    """Lazily merge items (sorted by arrival) into the event stream.

    Accepts any iterable — including one-shot generators — whose arrival
    times are non-decreasing, and yields :class:`Event` objects in
    ``(time, kind, trace order)`` order with DEPARTURE < ARRIVAL, holding
    only the active items' departures in a heap (O(active) memory).  Raises
    :class:`EventOrderError` on an out-of-order arrival; sort an unsorted
    trace first.
    """
    return (
        Event(time=time, kind=_KINDS[cls], item=payload, seq=seq)
        for time, cls, seq, payload in _merge_events(items)
    )
