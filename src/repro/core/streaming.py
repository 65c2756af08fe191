"""Streaming simulation: replay unbounded traces in O(active items) memory.

:func:`simulate` keeps the full history a
:class:`~repro.core.result.PackingResult` needs — every finalized item,
the complete assignment map, every bin's placement log — so its memory
grows with the trace.  Million-request VM traces (the DVBP evaluation
workloads) only need the *aggregates*: total rental cost, bins opened,
peak concurrency.  :func:`simulate_stream` drives the same engine with
``record=False`` through the one event kernel of :mod:`repro.core.events`
(departures, then failures, then re-admissions, then arrivals at each
instant), pulling items lazily, and returns a compact
:class:`StreamSummary`.  Peak memory is proportional to the number of
simultaneously active items, never the trace length.

Plain, checkpointed and resumed runs are the same kernel configured
differently: checkpointing asks the kernel to ship a
:class:`~repro.core.checkpoint.StreamCheckpoint` every ``N`` events, and
resuming restores the engine and the kernel's merge state (pending
departures, items consumed, events processed, last arrival) from one.

The input iterable must yield items in non-decreasing arrival order (any
generator produced by a chronological source does); an out-of-order item
raises :class:`~repro.core.events.EventOrderError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence

from .numeric import Num
from ..algorithms.base import PackingAlgorithm
from .checkpoint import CheckpointError, StreamCheckpoint
from .events import Entry, _merge_events
from .item import Item
from .resources import Size
from .simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .bin import Bin
    from .telemetry import SimulationObserver

__all__ = ["StreamRepacker", "StreamSummary", "simulate_stream"]


class StreamRepacker(Protocol):
    """Structural protocol for bounded-migration repackers.

    A repacker sits *outside* the online algorithm: the algorithm packs
    each arrival, then the repacker may call
    :meth:`~repro.core.simulator.Simulator.migrate` to consolidate open
    bins, subject to whatever migration budget it tracks internally (see
    :class:`repro.renting.BoundedRepacker`).  Hooks run synchronously
    inside event processing, before any checkpoint is shipped, so
    checkpoint/resume stays exact: a checkpoint always reflects the fully
    repacked state plus :meth:`checkpoint_state`'s budget counters.

    Each hook receives the bin the event touched.  A repacker sees every
    change to an open bin through these hooks or its own migrations, so
    it may keep per-bin state (such as an evacuation plan) until that bin
    changes.  Every run starts with :meth:`reset`, or with
    :meth:`restore_state` when it resumes; no bin of an earlier run is
    seen again.

    A repacker may also define ``unscale(scale: int)``, dividing every
    size-valued counter by ``scale``.  Record-mode
    :func:`~repro.core.simulator.simulate` runs an exact trace on the
    integer lattice (sizes times ``scale``) only with a repacker that has
    it, and calls it after the run.
    """

    def reset(self) -> None:
        """Clear accumulated state at the start of a fresh run."""
        ...

    def after_arrival(self, sim: "Simulator", item: Item, bin: "Bin | None") -> None:
        """React to ``item`` having just been placed in ``bin`` (may
        migrate); ``bin`` is ``None`` when the simulator refused it."""
        ...

    def after_departure(self, sim: "Simulator", item_id: str, bin: "Bin") -> None:
        """React to ``item_id`` having just left ``bin``, which is closed
        if the item was its last (may migrate)."""
        ...

    def checkpoint_state(self) -> Any:
        """JSON-serializable snapshot of budget counters (never ``None``,
        which marks a checkpoint taken without a repacker)."""
        ...

    def restore_state(self, state: Any) -> None:
        """Restore the state captured by :meth:`checkpoint_state`."""
        ...


@dataclass(frozen=True, slots=True)
class StreamSummary:
    """Aggregate outcome of a streamed simulation (no per-item history)."""

    algorithm_name: str
    capacity: Size
    cost_rate: Num
    #: Items that arrived (and departed — the stream must drain fully).
    num_items: int
    #: Bins ever opened, the paper's ``n`` in ``b_1..b_n``.
    num_bins_used: int
    #: Largest number of simultaneously open bins.
    peak_open_bins: int
    #: Total bin usage time ``sum_i len(I_i)``.
    total_bin_time: Num
    #: The MinTotal objective ``A_total = C * sum_i len(I_i)``.
    total_cost: Num
    #: Time of the last event (``None`` for an empty stream).
    end_time: Num | None

    @property
    def cost_per_item(self) -> Num:
        """Mean cost per item, exact when the trace is exact.

        Dividing through :class:`Fraction` keeps an int/Fraction trace's
        ratio exact; a float ``total_cost`` (inherited from float inputs)
        stays float.
        """
        return self.total_cost / Fraction(self.num_items)


def simulate_stream(
    items: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    capacity: Size = 1,
    cost_rate: Num = 1,
    indexed: bool = True,
    observers: Sequence["SimulationObserver"] = (),
    checkpoint_every: int | None = None,
    on_checkpoint: "Callable[[StreamCheckpoint], None] | None" = None,
    resume_from: "StreamCheckpoint | None" = None,
    repacker: StreamRepacker | None = None,
) -> StreamSummary:
    """Stream a trace through an algorithm in O(active items) memory.

    ``items`` may be any iterable — typically a generator such as
    :func:`repro.workloads.generators.stream_trace` — yielding items in
    non-decreasing arrival order.  Items are validated as they arrive
    (positive size, fits an empty bin); duplicate ids are detected only
    against currently active items, since no global id set is kept.

    Returns a :class:`StreamSummary`; for a full
    :class:`~repro.core.result.PackingResult` use :func:`simulate`, which
    costs O(trace) memory.

    Checkpoint/resume
    -----------------
    Pass ``checkpoint_every=N`` with an ``on_checkpoint`` sink to receive a
    :class:`~repro.core.checkpoint.StreamCheckpoint` snapshot every ``N``
    processed events (always at an event boundary).  To resume an
    interrupted run, re-create the *same* source stream and pass the last
    snapshot as ``resume_from`` — the consumed prefix is skipped and the
    engine continues from the captured state, producing a summary equal to
    the uninterrupted run's.

    Bounded migration
    -----------------
    Pass a ``repacker`` (anything satisfying :class:`StreamRepacker`, e.g.
    :class:`repro.renting.BoundedRepacker`) to run in migration-bounded
    dispatch mode: after every event the repacker may move active items
    between open bins via :meth:`Simulator.migrate`, within its internal
    budget.  Repacking composes with checkpointing — pass the *same*
    repacker configuration when resuming; its counters ride in the
    checkpoint's ``repacker_state`` field.

    Examples
    --------
    >>> from repro import FirstFit, make_items
    >>> from repro.core.streaming import simulate_stream
    >>> summary = simulate_stream(
    ...     iter(make_items([(0, 10, 0.5), (0, 2, 0.5), (1, 3, 0.5)])),
    ...     FirstFit(),
    ... )
    >>> summary.num_bins_used, float(summary.total_cost)
    (2, 12.0)
    """
    if (checkpoint_every is None) != (on_checkpoint is None):
        raise ValueError("checkpoint_every and on_checkpoint must be given together")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")

    source = iter(items)
    last_arrival: Num | None = None
    if resume_from is None:
        sim = Simulator(
            algorithm,
            capacity=capacity,
            cost_rate=cost_rate,
            indexed=indexed,
            record=False,
            observers=observers,
        )
        pending: list[Entry] = []
        consumed = events = 0
        if repacker is not None:
            repacker.reset()
    else:
        sim, pending = resume_from.restore(algorithm, indexed=indexed, observers=observers)
        consumed = resume_from.items_consumed
        events = resume_from.events_processed
        last_arrival = resume_from.last_arrival
        if repacker is not None:
            if resume_from.repacker_state is None:
                raise CheckpointError(
                    "checkpoint was taken without a repacker; resume it "
                    "without one"
                )
            repacker.restore_state(resume_from.repacker_state)
        elif resume_from.repacker_state is not None:
            raise CheckpointError(
                "checkpoint was taken in migration-bounded mode; pass the "
                "same repacker configuration to resume"
            )
        _missing = object()
        for _ in range(consumed):
            if next(source, _missing) is _missing:
                raise CheckpointError(
                    f"source stream ended before the checkpoint position "
                    f"({consumed} items); resume needs the same stream"
                )

    def ship(heap: list[Entry], n_items: int, n_events: int, last: Num | None) -> None:
        assert on_checkpoint is not None  # validated above: given together
        state = None if repacker is None else repacker.checkpoint_state()
        on_checkpoint(
            StreamCheckpoint.capture(sim, heap, n_items, n_events, last, repacker_state=state)
        )

    # Run the kernel to the end: it applies every event to ``sim`` itself
    # and yields only server failures, which this run has none of.
    kernel = _merge_events(
        source,
        pending=pending,
        sim=sim,
        hooks=repacker,
        capacity=capacity,
        consumed=consumed,
        events=events,
        last_arrival=last_arrival,
        checkpoint_every=checkpoint_every,
        ship=ship,
    )
    deque(kernel, maxlen=0)
    return sim.finish_summary()
