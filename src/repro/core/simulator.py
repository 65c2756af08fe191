"""The discrete-event MinTotal DBP simulator.

Two driving styles share one engine:

* :func:`simulate` replays a complete item list (a trace) against an
  algorithm — the common case for workloads and experiments.  It is the
  event kernel of :mod:`repro.core.events` in record mode: a list is
  validated and stable-sorted by arrival (each item keeping its trace
  position as its departure tiebreak); a generator with sorted arrivals
  is read in full first, with the admission checks a streamed run makes.
  An exact trace runs on the integer lattice of :mod:`repro.core.numeric`
  and its result is mapped back to the caller's units.  The result lists
  the caller's own items.
* :class:`Simulator` is the incremental engine itself, which *adaptive
  adversaries* drive step by step: they submit arrivals, observe the
  resulting bin states, and only then decide departure times.  The paper's
  lower-bound constructions (Theorems 1 and 2) are adaptive in exactly this
  sense.

The engine is exact: bin costs are accumulated per usage period with no time
discretisation, simultaneous events follow the kernel's one order —
departures, then server failures, then re-admissions, then arrivals (see
:mod:`repro.core.events`) — and online-ness is enforced structurally — the
algorithm only ever sees :class:`~repro.algorithms.base.Arrival` views,
which carry no departure time.

Open bins live in an :class:`~repro.core.bin_index.OpenBinIndex` — a
slot-map with per-label ordered residual indexes — so membership checks and
removals are O(1) and algorithms implementing the indexed selection
protocol (:meth:`PackingAlgorithm.choose_bin_indexed`) place items in
O(log n) instead of scanning every open bin.  Algorithms without an indexed
path transparently fall back to the classic list scan over an immutable
:class:`~repro.core.bin_index.OpenBinView`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator as _Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, cast

from .numeric import Num, lattice_scale, to_lattice
from ..algorithms.base import OPEN_NEW, Arrival, PackingAlgorithm
from .bin import Bin, CapacityExceededError
from .bin_index import OpenBinIndex, OpenBinView
from .events import _by_arrival, _merge_events, _out_of_order, check_fits
from .item import Item, _resized, validate_items
from .resources import (
    Resources,
    Size,
    dims_of,
    is_valid_capacity,
    is_valid_size,
    size_fits,
)
from .result import BinRecord, PackingResult
from .validation import (
    InvalidItemSizeError,
    ResourceDimensionError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .streaming import StreamRepacker, StreamSummary
    from .telemetry import SimulationObserver

__all__ = ["Simulator", "simulate", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for protocol violations (bad algorithm choice, time travel...)."""


def _duplicate_id(item_id: str) -> SimulationError:
    return SimulationError(f"duplicate item id {item_id!r}")


def _indexed_is_authoritative(cls: type) -> bool:
    """Whether ``cls.choose_bin_indexed`` speaks for ``cls.choose_bin``.

    A subclass may override ``choose_bin`` (tests and experiments wrap the
    stock algorithms this way) while inheriting a parent's indexed path —
    which would then silently bypass the override.  The indexed path is
    only authoritative when it is (re)defined at or below the most-derived
    ``choose_bin`` override in the MRO.
    """
    for klass in cls.__mro__:
        if "choose_bin_indexed" in klass.__dict__:
            return True
        if "choose_bin" in klass.__dict__:
            return False
    return False


@dataclass(slots=True)
class _ActiveItem:
    view: Arrival
    bin: Bin


class Simulator:
    """Incremental DBP engine.

    Parameters
    ----------
    algorithm:
        The online packing algorithm under test.
    capacity:
        Bin capacity ``W`` (default 1, as in the paper's proofs).
    cost_rate:
        Bin cost rate ``C`` (default 1).
    indexed:
        When true (default), offer the algorithm the O(log n) indexed
        selection protocol first, falling back to the classic list scan if
        it does not implement it.  Set false to force the list scan — the
        oracle mode the differential tests compare against.
    record:
        When true (default), keep the full history needed for
        :meth:`finish`'s :class:`~repro.core.result.PackingResult`.  When
        false the engine runs in O(active items) memory — no finalized-item
        list, no assignment map, no per-bin logs — and only
        :meth:`finish_summary` is available.  Duplicate item ids are then
        only detected against currently *active* items.
    """

    def __init__(
        self,
        algorithm: PackingAlgorithm,
        *,
        capacity: Size = 1,
        cost_rate: Num = 1,
        indexed: bool = True,
        record: bool = True,
        observers: Sequence["SimulationObserver"] = (),
    ) -> None:
        if not is_valid_capacity(capacity):
            raise ValueError(f"capacity must be positive, got {capacity}")
        if cost_rate <= 0:
            raise ValueError(f"cost rate must be positive, got {cost_rate}")
        self.algorithm = algorithm
        self.capacity = capacity
        self.cost_rate = cost_rate
        self.observers = list(observers)
        self._record = record
        self._use_indexed = indexed and _indexed_is_authoritative(type(algorithm))
        self._bins = OpenBinIndex()
        self._open_view = OpenBinView(self._bins)
        self._all_bins: list[Bin] = []
        self._active: dict[str, _ActiveItem] = {}
        # (view, end time) of every finished session, built into items by
        # finish().
        self._finalized: list[tuple[Arrival, Num]] = []
        self._assignment: dict[str, int] = {}
        self._now: Num | None = None
        self._auto_id = 0
        self._bins_opened = 0
        self._peak_open = 0
        self._items_arrived = 0
        self._migrations = 0
        self._closed_bin_time: Num = 0
        # A run is scalar or d-dimensional throughout.  A vector capacity
        # fixes d immediately; a scalar capacity broadcasts to the
        # dimensionality of the first arrival.
        self._item_dims: int | None = dims_of(capacity)
        self._dims_fixed = isinstance(capacity, Resources)
        algorithm.reset(capacity)

    # ------------------------------------------------------------- inspection

    @property
    def now(self) -> Num | None:
        """Time of the last processed event (``None`` before the first)."""
        return self._now

    @property
    def open_bins(self) -> OpenBinView:
        """Currently open bins in opening order (adversaries may inspect).

        An immutable live *view* — O(1) to obtain, no copying.  Iterate it
        freely; positional access works but costs O(n).
        """
        return self._open_view

    @property
    def num_open_bins(self) -> int:
        return len(self._bins)

    @property
    def peak_open_bins(self) -> int:
        """Largest number of simultaneously open bins seen so far."""
        return self._peak_open

    @property
    def active_item_ids(self) -> list[str]:
        return list(self._active)

    @property
    def migrations(self) -> int:
        """Number of :meth:`migrate` moves performed so far."""
        return self._migrations

    def bin_of(self, item_id: str) -> Bin:
        """The bin currently holding an active item."""
        try:
            return self._active[item_id].bin
        except KeyError:
            raise KeyError(f"item {item_id!r} is not active") from None

    # ------------------------------------------------------------ transitions

    def _advance(self, time: Num) -> None:
        if self._now is not None and time < self._now:
            raise SimulationError(
                f"event at time {time} precedes current time {self._now}"
            )
        self._now = time

    def arrive(
        self,
        time: Num,
        size: Size,
        item_id: str | None = None,
        tag: Any = None,
    ) -> Bin | None:
        """Submit an arrival; returns the bin the algorithm placed it in.

        A chosen bin must be an open bin of this simulation that fits the
        item.  ``None`` means the item was refused: :meth:`_open_bin`
        declined the new bin the algorithm asked for (only a subclass does).
        """
        now = self._now  # _advance, inline: this and depart run per session
        if now is not None and time < now:
            raise SimulationError(f"event at time {time} precedes current time {now}")
        self._now = time
        if not is_valid_size(size):
            raise InvalidItemSizeError(size, item_id=item_id)
        dims = dims_of(size)
        if not self._dims_fixed:
            self._item_dims = dims
            self._dims_fixed = True
        elif dims != self._item_dims:
            raise ResourceDimensionError(self._item_dims, dims, item_id=item_id)
        # Note: oversize vs the *default* capacity is checked at open time —
        # a flavour-aware algorithm may open a larger bin for this item.
        if item_id is None:
            item_id = f"r{self._auto_id}"
            self._auto_id += 1
        if item_id in self._active or item_id in self._assignment:
            raise _duplicate_id(item_id)

        view = Arrival(item_id, size, time, tag)
        choice: Any = NotImplemented
        if self._use_indexed:
            choice = self.algorithm.choose_bin_indexed(view, self._bins)
            if choice is NotImplemented:
                # The algorithm has no indexed path; don't ask again.
                self._use_indexed = False
        if choice is NotImplemented:
            choice = self.algorithm.choose_bin(view, self._open_view)
        if choice is OPEN_NEW or choice is None:
            target = self._open_bin(view, time, self.algorithm.new_bin_capacity(view))
            if target is None:
                return None
            opened = True
        else:
            target = choice
            opened = False
            # Every close path discards the bin, so an indexed bin is open.
            if not isinstance(target, Bin) or target not in self._bins:
                raise SimulationError(
                    f"algorithm {self.algorithm.name!r} returned an invalid bin for "
                    f"{item_id!r}: {choice!r}"
                )
            try:
                target.add(view, time)
            except CapacityExceededError:
                raise SimulationError(
                    f"algorithm {self.algorithm.name!r} chose bin {target.index} "
                    f"(residual {target.residual}) for item of size {size}"
                ) from None
            self._bins.update(target)
        self._items_arrived += 1
        self._active[item_id] = _ActiveItem(view, target)
        if self._record:
            self._assignment[item_id] = target.index
        for observer in self.observers:
            observer.on_arrival(time, view, target, opened)
        return target

    def _open_bin(self, view: Arrival, time: Num, capacity: Size | None) -> Bin | None:
        """Open a bin of ``capacity`` (``None``: the run's) holding ``view``.

        The one bin-opening step of :meth:`arrive` and :meth:`migrate`.  A
        subclass may return ``None`` to decline the bin (a capped fleet at
        its cap, see :mod:`repro.cloud.finite_fleet`).
        """
        size = view.size
        if capacity is None:
            capacity = self.capacity
        if isinstance(capacity, Resources):
            if capacity.dims != dims_of(size):
                raise ResourceDimensionError(
                    capacity.dims, dims_of(size), item_id=view.item_id
                )
        elif isinstance(size, Resources):
            # Scalar-capacity broadcast: capacity W means W per dimension.
            capacity = Resources.uniform(capacity, size.dims)
        if not size_fits(size, capacity):
            raise SimulationError(
                f"item {view.item_id!r} of size {size} cannot fit the new bin "
                f"of capacity {capacity}"
            )
        target = Bin(index=self._bins_opened, capacity=capacity, record_log=self._record)
        target.add(view, time)
        self._bins_opened += 1
        if self._record:
            self._all_bins.append(target)
        # The hook runs before indexing so the label it assigns decides the
        # bin's pool (MFF/MBF segregate large/small bins this way).
        self.algorithm.on_bin_opened(target, view)
        self._bins.add(target)
        if len(self._bins) > self._peak_open:
            self._peak_open = len(self._bins)
        return target

    def depart(self, item_id: str, time: Num) -> Bin:
        """Remove an active item at ``time``; returns its (possibly closed) bin."""
        now = self._now
        if now is not None and time < now:
            raise SimulationError(f"event at time {time} precedes current time {now}")
        self._now = time
        try:
            record = self._active.pop(item_id)
        except KeyError:
            raise SimulationError(f"cannot depart unknown/inactive item {item_id!r}") from None
        view, target = record.view, record.bin
        if time <= view.arrival:
            raise SimulationError(
                f"item {item_id!r} would depart at {time}, not after its arrival {view.arrival}"
            )
        target.remove(item_id, time)
        if target.is_closed:
            self._bins.discard(target)
            self._closed_bin_time = self._closed_bin_time + target.usage_length
        else:
            self._bins.update(target)
        self.algorithm.on_item_departed(item_id, target)
        for observer in self.observers:
            observer.on_departure(time, view, target, target.is_closed)
        if self._record:
            self._finalized.append((view, time))
        return target

    def migrate(
        self,
        item_id: str,
        to_bin: Bin | Any = None,
        *,
        time: Num | None = None,
    ) -> Bin:
        """Move an active item into another open bin (or a fresh one).

        The bounded-migration primitive (Berndt–Jansen–Klein style
        repacking): at ``time`` (default: the current simulation time) the
        item leaves its current bin and lands in ``to_bin`` atomically.  If
        the source bin empties it closes *at that instant* and its rental is
        settled exactly — billed usage is unchanged by where the item sits,
        so total cost stays the integral of the open-bin count.  Pass
        ``to_bin=OPEN_NEW`` (or omit it) to open a fresh default-capacity
        bin for the item.

        Observers are notified once through
        :meth:`~repro.core.telemetry.SimulationObserver.on_migration`; the
        packing algorithm is *not* consulted — migration is driven by a
        repacker policy outside the online algorithm, exactly as in the
        fully-dynamic model where the algorithm packs and the repacker
        re-packs.  Stateful algorithms that cache bin references (NextFit's
        current bin, MoveToFront's ordering) remain safe because they check
        ``is_open``/membership before reusing a cached bin.

        Returns the destination bin.
        """
        when = self._now if time is None else time
        if when is None:
            raise SimulationError("cannot migrate before any event has been processed")
        self._advance(when)
        try:
            record = self._active[item_id]
        except KeyError:
            raise SimulationError(
                f"cannot migrate unknown/inactive item {item_id!r}"
            ) from None
        view, source = record.view, record.bin
        opened = to_bin is OPEN_NEW or to_bin is None
        if not opened:
            if to_bin is source:
                raise SimulationError(
                    f"item {item_id!r} is already in bin {source.index}"
                )
            if not isinstance(to_bin, Bin) or to_bin not in self._bins:
                raise SimulationError(
                    f"cannot migrate {item_id!r} into {to_bin!r}: not an "
                    "open bin of this simulation"
                )
            if not to_bin.fits(view):
                raise SimulationError(
                    f"bin {to_bin.index} (residual {to_bin.residual}) cannot "
                    f"take migrated item {item_id!r} of size {view.size}"
                )
        source.remove(item_id, when)
        from_closed = source.is_closed
        if from_closed:
            self._bins.discard(source)
            self._closed_bin_time = self._closed_bin_time + source.usage_length
        else:
            self._bins.update(source)
        if opened:
            # Opened after the source is released, so a move out of a
            # one-item bin does not raise the peak.
            new_bin = self._open_bin(view, when, None)
            assert new_bin is not None, "only an arrival may be declined a bin"
            target = new_bin
        else:
            target = to_bin
            target.add(view, when)
            self._bins.update(target)
        record.bin = target
        if self._record:
            self._assignment[item_id] = target.index
        self._migrations += 1
        for observer in self.observers:
            observer.on_migration(when, view, source, target, from_closed, opened)
        return target

    def fail_bin(self, target: Bin, time: Num) -> list[Arrival]:
        """Revoke an open bin at ``time`` (server failure), evicting its items.

        The bin's usage period ends immediately — its rental is billed up to
        ``time`` exactly as if its last item had departed — and every active
        item it held is evicted and returned (in placement order).  Evicted
        items are no longer active; a recovery layer (see
        :mod:`repro.cloud.faults`) may re-submit them via :meth:`arrive`
        under fresh ids.  Observers are notified once through
        :meth:`~repro.core.telemetry.SimulationObserver.on_server_failure`;
        the algorithm's ``on_item_departed`` hook fires per evicted item so
        stateful algorithms stay consistent.
        """
        self._advance(time)
        if not isinstance(target, Bin) or target not in self._bins:
            raise SimulationError(
                f"cannot fail bin {getattr(target, 'index', target)!r}: not an "
                "open bin of this simulation"
            )
        # The simulator only ever stores Arrival views in bins, so the
        # protocol-typed eviction list narrows back losslessly.
        evicted = cast("list[Arrival]", target.force_close(time))
        for view in evicted:
            del self._active[view.item_id]
            if self._record:
                if time <= view.arrival:
                    raise SimulationError(
                        f"bin {target.index} failed at {time}, not after item "
                        f"{view.item_id!r} arrived at {view.arrival}; recorded "
                        "simulations need strictly positive eviction intervals"
                    )
                self._finalized.append((view, time))
        self._bins.discard(target)
        self._closed_bin_time = self._closed_bin_time + target.usage_length
        for view in evicted:
            self.algorithm.on_item_departed(view.item_id, target)
        for observer in self.observers:
            observer.on_server_failure(time, target, evicted)
        return evicted

    # ----------------------------------------------------------------- finish

    def finish(self) -> PackingResult:
        """Finalize the simulation and return the packing result.

        All items must have departed (every bin closed); an adaptive
        adversary is responsible for scheduling every departure.  Requires
        ``record=True`` (the default) — the O(active)-memory streaming mode
        keeps no history and offers :meth:`finish_summary` instead.

        ``result.items`` preserves *arrival issue order*, so replaying them
        through :func:`simulate` reproduces this packing exactly for any
        deterministic algorithm (same-instant arrivals keep their order) —
        the round-trip property the adversarial experiments rely on.
        """
        if not self._record:
            raise SimulationError(
                "finish() needs record=True; streaming simulations report via "
                "finish_summary()"
            )
        # _assignment's insertion order is arrival issue order.
        issue_order = {item_id: i for i, item_id in enumerate(self._assignment)}
        finalized = sorted(self._finalized, key=lambda pair: issue_order[pair[0].item_id])
        items = tuple(
            Item(view.arrival, end, view.size, view.item_id, view.tag)
            for view, end in finalized
        )
        return self._result(items)

    def _result(
        self, items: tuple[Item, ...], caller_capacity: Size | None = None
    ) -> PackingResult:
        """The result of this finished run, listing ``items``.

        :meth:`finish` and :func:`simulate` both assemble their result
        here.  ``caller_capacity`` maps a run on the integer lattice back
        to the caller's units: it stands for the run's capacity, which
        every bin of such a run has, in the result and in each bin record.
        """
        self._require_all_departed()

        def record_of(b: Bin) -> BinRecord:
            # All items departed, so every recorded bin has a complete life.
            assert b.opened_at is not None and b.closed_at is not None
            return BinRecord(
                b.index,
                b.label,
                b.opened_at,
                b.closed_at,
                tuple((a.time, a.item.item_id) for a in b.assignments),
                b.capacity if caller_capacity is None else caller_capacity,
            )

        return PackingResult(
            algorithm_name=self.algorithm.name,
            capacity=self.capacity if caller_capacity is None else caller_capacity,
            cost_rate=self.cost_rate,
            items=items,
            assignment=dict(self._assignment),
            bins=tuple(record_of(b) for b in self._all_bins),
        )

    def finish_summary(self) -> "StreamSummary":
        """Finalize and return aggregate statistics only (any ``record`` mode).

        The O(1)-sized counterpart of :meth:`finish` for streaming runs:
        total cost, bins opened, peak concurrency — everything that does not
        require per-item history.  All items must have departed.
        """
        from .streaming import StreamSummary

        self._require_all_departed()
        return StreamSummary(
            algorithm_name=self.algorithm.name,
            capacity=self.capacity,
            cost_rate=self.cost_rate,
            num_items=self._items_arrived,
            num_bins_used=self._bins_opened,
            peak_open_bins=self._peak_open,
            total_bin_time=self._closed_bin_time,
            total_cost=self.cost_rate * self._closed_bin_time,
            end_time=self._now,
        )

    def _require_all_departed(self) -> None:
        if self._active:
            leftover = sorted(self._active)[:5]
            raise SimulationError(
                f"{len(self._active)} items never departed (e.g. {leftover}); "
                "schedule departures for all items before finish()"
            )


def simulate(
    items: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    capacity: Size = 1,
    cost_rate: Num = 1,
    check: bool = False,
    indexed: bool = True,
    observers: Sequence["SimulationObserver"] = (),
    max_bin_capacity: Size | None = None,
    repacker: "StreamRepacker | None" = None,
) -> PackingResult:
    """Replay a complete item list against an online packing algorithm.

    Events are ordered by the event kernel: by time, with departures
    before arrivals at equal times and arrivals in trace order (see
    :mod:`repro.core.events`).

    Sequence inputs (lists, tuples, :class:`~repro.workloads.trace.Trace`)
    may be in any order; they are validated up front and merged lazily, so
    the full 2n event list is never materialized.  One-shot iterators
    (generators) must yield non-decreasing arrivals; record mode keeps
    O(n) history anyway, so an iterator is read in full before the first
    event, raising the admission errors a streamed run raises (oversize,
    out of order, dimension mismatch, duplicate id) in the order it would.
    For O(active items) memory end to end — no PackingResult history —
    use :func:`repro.core.streaming.simulate_stream` instead.

    ``result.items`` holds the caller's own :class:`~repro.core.item.Item`
    objects in arrival issue order (the trace stable-sorted by arrival),
    the order :meth:`Simulator.finish` lists.

    An exact trace (``int``/``Fraction`` capacity and scalar sizes) runs
    on the integer lattice of :mod:`repro.core.numeric`: the kernel sees
    every size and the capacity multiplied by ``D``, the lcm of their
    denominators, and makes the decisions the unscaled run makes, with
    ``int`` arithmetic.  The result is mapped back — the caller's capacity,
    equal to the unscaled run's result — and so is the
    repacker's state (see ``unscale`` in
    :class:`~repro.core.streaming.StreamRepacker`); the algorithm is
    ``reset`` once more with the caller's capacity.  A run stays in the
    caller's units when something outside the engine would see a scaled
    size: observers, a flavour-aware algorithm (``new_bin_capacity`` or
    ``max_bin_capacity``), a repacker without ``unscale``, or a float
    attribute on the algorithm or repacker (a float parameter such as
    MFF's ``k`` rounds differently at another scale).

    Parameters
    ----------
    check:
        When true, run :meth:`PackingResult.check_invariants` on the result
        before returning (useful in tests; costs an extra pass).
    indexed:
        When true (default), let the algorithm use the O(log n) indexed
        selection protocol if it implements one; false forces the classic
        list scan (the differential-test oracle).
    max_bin_capacity:
        For flavour-aware algorithms that open bins larger than the default
        ``capacity`` (see :meth:`PackingAlgorithm.new_bin_capacity`): the
        largest capacity the algorithm may request, used to validate item
        sizes up front.
    repacker:
        Optional bounded-migration repacker (see
        :class:`repro.core.streaming.StreamRepacker`): invoked after every
        event and may move active items between bins via
        :meth:`Simulator.migrate`.  Note ``check=True`` cannot be combined
        with a repacker that actually migrates —
        :meth:`PackingResult.check_invariants` assumes each item spent its
        whole life in one bin.

    Returns
    -------
    PackingResult

    Examples
    --------
    >>> from repro import FirstFit, make_items, simulate
    >>> items = make_items([(0, 10, 0.5), (0, 2, 0.5), (1, 3, 0.5)])
    >>> result = simulate(items, FirstFit())
    >>> result.num_bins_used
    2
    """
    cap_limit = capacity if max_bin_capacity is None else max_bin_capacity
    return _simulate_trace(
        _validated(items, capacity, cap_limit),
        algorithm,
        capacity=capacity,
        cost_rate=cost_rate,
        check=check,
        indexed=indexed,
        observers=observers,
        max_bin_capacity=max_bin_capacity,
        repacker=repacker,
    )


def _validated(items: Iterable[Item], capacity: Size, cap_limit: Size) -> list[Item]:
    """:func:`simulate`'s first step: the trace as a validated list.

    A one-shot iterator is read through :func:`_read_stream`; anything
    else goes through :func:`~repro.core.item.validate_items`, with each
    item checked to fit ``cap_limit``.
    """
    if isinstance(items, _Iterator):
        return _read_stream(items, capacity, cap_limit)
    return validate_items(items, capacity=cap_limit)


def _simulate_trace(
    trace: list[Item],
    algorithm: PackingAlgorithm,
    *,
    capacity: Size = 1,
    cost_rate: Num = 1,
    check: bool = False,
    indexed: bool = True,
    observers: Sequence["SimulationObserver"] = (),
    max_bin_capacity: Size | None = None,
    repacker: "StreamRepacker | None" = None,
) -> PackingResult:
    """:func:`simulate`'s second step: run a trace :func:`_validated` returned.

    The options and their defaults are :func:`simulate`'s.  A caller that
    runs one trace with several algorithms (such as
    :func:`~repro.analysis.ratio.compare_algorithms`) validates it once
    and calls this per algorithm.
    """
    if repacker is not None:
        repacker.reset()  # first: the scale check reads its attributes
    scale = None
    if not (observers or max_bin_capacity is not None):
        scale = _run_scale(trace, capacity, algorithm, repacker)
    ordered, seqs = _by_arrival(trace)
    # The caller's items in arrival issue order: the result lists them.
    arrivals = list(ordered)
    source: Iterable[Item] = arrivals
    if scale is not None:
        # Each item scaled as the kernel pulls it.
        source = (_resized(item, to_lattice(cast(int, item.size), scale)) for item in arrivals)
    sim = Simulator(
        algorithm,
        capacity=capacity if scale is None else to_lattice(cast(int, capacity), scale),
        cost_rate=cost_rate,
        indexed=indexed,
        observers=observers,
    )
    # Run the kernel to the end: it applies every event to ``sim`` itself
    # and yields only server failures, which this run has none of.
    deque(_merge_events(source, seqs, sim=sim, hooks=repacker), maxlen=0)
    result = sim._result(tuple(arrivals), None if scale is None else capacity)
    if scale is not None:
        if repacker is not None:
            repacker.unscale(scale)  # type: ignore[attr-defined]
        # Thresholds ``reset`` derived from the scaled capacity (MFF's and
        # MBF's W/k, Harmonic's classes) go back to the caller's units.
        algorithm.reset(capacity)
    if check:
        result.check_invariants()
    return result


def _read_stream(items: Iterator[Item], capacity: Size, cap_limit: Size) -> list[Item]:
    """Read a one-shot iterator, raising what a streamed run would raise.

    Per item, in stream order: the kernel's fit check against
    ``cap_limit`` and its arrival-order check, then the simulator's
    dimension and duplicate-id checks at admission.
    """
    trace: list[Item] = []
    seen: set[str] = set()
    dims = dims_of(capacity)
    dims_fixed = isinstance(capacity, Resources)
    last_arrival: Num | None = None
    for item in items:
        check_fits(item, cap_limit)
        if last_arrival is not None and item.arrival < last_arrival:
            raise _out_of_order(item, last_arrival)
        last_arrival = item.arrival
        item_dims = dims_of(item.size)
        if not dims_fixed:
            dims, dims_fixed = item_dims, True
        elif item_dims != dims:
            raise ResourceDimensionError(dims, item_dims, item_id=item.item_id)
        if item.item_id in seen:
            raise _duplicate_id(item.item_id)
        seen.add(item.item_id)
        trace.append(item)
    return trace


def _run_scale(
    trace: list[Item],
    capacity: Size,
    algorithm: PackingAlgorithm,
    repacker: "StreamRepacker | None",
) -> int | None:
    """``D > 1`` when this run goes on the integer lattice, else ``None``.

    The algorithm and the repacker see scaled sizes, so they must make the
    same decisions at any scale: an algorithm that opens bins of its own
    capacity answers in the caller's units, a float attribute (MFF's
    ``k``, a migration factor) rounds differently at another magnitude,
    and a repacker must be able to map its state back (``unscale``).
    """
    if type(algorithm).new_bin_capacity is not PackingAlgorithm.new_bin_capacity:
        return None
    if repacker is not None and not hasattr(repacker, "unscale"):
        return None
    for part in (algorithm, repacker):
        if any(isinstance(value, float) for value in getattr(part, "__dict__", {}).values()):
            return None
    scale = lattice_scale(capacity, (item.size for item in trace))
    return scale if scale is not None and scale > 1 else None
