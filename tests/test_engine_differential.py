"""Differential tests for the scale-out engine refactor.

Independently configured paths must agree exactly:

* :func:`iter_events`, the kernel on unsorted input (as ``simulate``
  sorts it) and every driver of the event kernel — ``simulate``, ``simulate_stream``
  plain, checkpointed and resumed, and the zero-failure fault driver, as
  seen by an observer — vs the order ``core/events.py`` states, built here
  without the kernel: the stable sort of each item's arrival and departure
  by ``(time, kind, trace position)``; and
* the O(log n) indexed fit paths vs the seed list scan, for every bundled
  algorithm, compared as whole :class:`PackingResult` values — also on a
  churn trace that opens >= 20x its peak of open bins, where the index
  compacts its slots many times and resumed runs rebuild its views.

Traces are seeded and use integer-grid times so same-instant collisions
(departures tied with arrivals, simultaneous arrivals) occur constantly.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import BestFit, FirstFit, Item, ModifiedFirstFit, NextFit, simulate
from repro.algorithms import ModifiedBestFit
from repro.cloud import FaultInjector, simulate_faulty_stream
from repro.core.events import (
    EventKind,
    EventOrderError,
    _by_arrival,
    _merge_events,
    iter_events,
)
from repro.core.resources import Resources
from repro.core.streaming import simulate_stream
from repro.core.telemetry import SimulationObserver

SEEDS = [0, 1, 2, 7]


def tied_trace(seed, n=120):
    """Arrival-ordered items on an integer time grid, sizes in eighths.

    Integer times force heavy event-time collisions; eighth sizes are
    exactly representable so fit comparisons are float-exact.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.integers(0, 25, size=n))
    durations = rng.integers(1, 12, size=n)
    sizes = rng.integers(1, 8, size=n) / 8.0
    return [
        Item(
            arrival=int(arrivals[i]),
            departure=int(arrivals[i] + durations[i]),
            size=float(sizes[i]),
            item_id=f"t{seed}-{i}",
        )
        for i in range(n)
    ]


def sorted_events(items):
    """The event order ``core/events.py`` states, without the kernel.

    Each item contributes ``(time, kind, trace position, item_id)`` for its
    arrival and its departure; the 2n events are stable-sorted by ``(time,
    kind, trace position)``, so at one instant departures (kind 0) precede
    arrivals (kind 3) and each kind keeps trace order.
    """
    events = [
        (time, kind, position, it.item_id)
        for position, it in enumerate(items)
        for time, kind in (
            (it.arrival, EventKind.ARRIVAL),
            (it.departure, EventKind.DEPARTURE),
        )
    ]
    return sorted(events, key=lambda event: event[:3])


def _rows(events):
    return [(e.time, e.kind, e.seq, e.item.item_id) for e in events]


def _unsorted_rows(items):
    """The kernel's events of a trace in any order, sorted as ``simulate``
    sorts it: by arrival, each item keeping its trace position."""
    return [
        (time, cls, seq, payload.item_id)
        for time, cls, seq, payload in _merge_events(*_by_arrival(items))
    ]


class TestEventStreamDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iter_events_matches_compile_events(self, seed):
        items = tied_trace(seed)
        expected = sorted_events(items)
        assert _rows(iter_events(iter(items))) == expected
        assert _unsorted_rows(items) == expected
        # Unsorted input keeps each item's trace position as its tiebreak.
        shuffled = items[::-1]
        assert _unsorted_rows(shuffled) == sorted_events(shuffled)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_departures_precede_arrivals_at_every_instant(self, seed):
        events = list(iter_events(iter(tied_trace(seed))))
        for prev, cur in zip(events, events[1:]):
            assert prev.time <= cur.time
            if prev.time == cur.time:
                # DEPARTURE sorts before ARRIVAL; never the reverse.
                assert not (
                    prev.kind is EventKind.ARRIVAL
                    and cur.kind is EventKind.DEPARTURE
                )

    def test_same_instant_departure_before_arrival_tie(self):
        # "a" departs exactly when "b" arrives: the stream must free the
        # capacity first, which is what lets the held-open bin serve both.
        items = [
            Item(arrival=0, departure=9, size=0.5, item_id="hold"),
            Item(arrival=0, departure=5, size=0.5, item_id="a"),
            Item(arrival=5, departure=9, size=0.5, item_id="b"),
        ]
        kinds = [(e.kind, e.item.item_id) for e in iter_events(iter(items)) if e.time == 5]
        assert kinds == [(EventKind.DEPARTURE, "a"), (EventKind.ARRIVAL, "b")]
        result = simulate(items, FirstFit())
        assert result.num_bins_used == 1

    def test_out_of_order_stream_rejected(self):
        items = [
            Item(arrival=3, departure=5, size=0.5, item_id="a"),
            Item(arrival=1, departure=9, size=0.5, item_id="b"),
        ]
        with pytest.raises(EventOrderError):
            list(iter_events(iter(items)))

    def test_stream_is_lazy(self):
        # Pulling the first event must not exhaust the source.
        def source():
            yield Item(arrival=0, departure=2, size=0.5, item_id="a")
            source.pulled = True
            yield Item(arrival=10, departure=12, size=0.5, item_id="b")

        source.pulled = False
        events = iter_events(source())
        first = next(events)
        assert first.item.item_id == "a" and not source.pulled


class _EventLog(SimulationObserver):
    """Records ``(time, kind, item_id)`` for every arrival and departure."""

    def __init__(self):
        self.events = []

    def on_arrival(self, time, item, bin, opened):
        self.events.append((time, EventKind.ARRIVAL, item.item_id))

    def on_departure(self, time, item, bin, closed):
        self.events.append((time, EventKind.DEPARTURE, item.item_id))


def _traces():
    """Tie-heavy traces: float sizes, exact ``Fraction`` times and sizes, 2-D."""
    for seed in (0, 5):
        items = tied_trace(seed, n=80)
        yield f"float-{seed}", items, 1
        yield f"fraction-{seed}", [
            Item(
                arrival=Fraction(it.arrival, 3),
                departure=Fraction(it.departure, 3),
                size=Fraction(int(it.size * 8), 8),
                item_id=it.item_id,
            )
            for it in items
        ], 1
        yield f"2d-{seed}", [
            Item(
                arrival=it.arrival,
                departure=it.departure,
                size=Resources(it.size, 1 - it.size / 2),
                item_id=it.item_id,
            )
            for it in items
        ], Resources(1.0, 1.0)


TRACES = {name: (items, capacity) for name, items, capacity in _traces()}


class TestKernelEventOrder:
    """Every driver of the event kernel replays the stated event order."""

    @staticmethod
    def expected(items):
        return [(time, kind, item_id) for time, kind, _, item_id in sorted_events(items)]

    @staticmethod
    def observed(run, items, capacity, **kw):
        log = _EventLog()
        run(items, FirstFit(), capacity=capacity, observers=(log,), **kw)
        return log.events

    @pytest.mark.parametrize("trace", TRACES)
    def test_simulate(self, trace):
        items, capacity = TRACES[trace]
        expected = self.expected(items)
        assert self.observed(simulate, items, capacity) == expected
        assert self.observed(simulate, iter(items), capacity) == expected
        # An unsorted list keeps each item's trace position as tiebreak.
        shuffled = items[::-1]
        assert self.observed(simulate, shuffled, capacity) == self.expected(shuffled)

    @pytest.mark.parametrize("trace", TRACES)
    def test_simulate_stream(self, trace):
        items, capacity = TRACES[trace]
        assert self.observed(simulate_stream, iter(items), capacity) == self.expected(items)

    @pytest.mark.parametrize("trace", TRACES)
    def test_checkpointed_and_resumed_streams(self, trace):
        items, capacity = TRACES[trace]
        expected = self.expected(items)
        checkpoints = []
        observed = self.observed(
            simulate_stream,
            iter(items),
            capacity,
            checkpoint_every=1,
            on_checkpoint=checkpoints.append,
        )
        assert observed == expected
        assert len(checkpoints) == len(expected)
        for checkpoint in checkpoints[::7]:
            resumed = self.observed(
                simulate_stream, iter(items), capacity, resume_from=checkpoint
            )
            assert resumed == expected[checkpoint.events_processed :]

    @pytest.mark.parametrize("trace", TRACES)
    def test_zero_failure_fault_driver(self, trace):
        items, capacity = TRACES[trace]
        observed = self.observed(
            simulate_faulty_stream, iter(items), capacity, injector=FaultInjector()
        )
        assert observed == self.expected(items)


ALGORITHMS = [
    FirstFit,
    BestFit,
    NextFit,
    ModifiedFirstFit,
    ModifiedBestFit,
]


class TestIndexedPathDifferential:
    @pytest.mark.parametrize("algo_cls", ALGORITHMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexed_matches_list_scan_exactly(self, algo_cls, seed):
        items = tied_trace(seed)
        indexed = simulate(items, algo_cls(), indexed=True)
        scan = simulate(items, algo_cls(), indexed=False)
        assert indexed == scan  # whole-result equality: every placement
        assert indexed.total_cost() == scan.total_cost()

    @pytest.mark.parametrize("algo_cls", [FirstFit, BestFit])
    def test_indexed_matches_on_iterator_input(self, algo_cls):
        items = tied_trace(11)
        from_stream = simulate(iter(items), algo_cls())
        from_list = simulate(items, algo_cls(), indexed=False)
        assert from_stream == from_list

    def test_subclassed_choose_bin_is_authoritative(self):
        # Overriding choose_bin without choose_bin_indexed must disable the
        # inherited indexed path — otherwise the override would be bypassed.
        opened_last = []

        class LastFit(FirstFit):
            name = "last-fit"

            def choose_bin(self, item, open_bins):
                for bin in reversed(open_bins):
                    if bin.fits(item):
                        opened_last.append(bin.index)
                        return bin
                from repro.algorithms.base import OPEN_NEW

                return OPEN_NEW

        items = tied_trace(3, n=60)
        result = simulate(items, LastFit())
        assert opened_last  # the override actually ran
        assert result == simulate(items, LastFit(), indexed=False)


def churn_trace(seed, dims=None, n=300):
    """Short sessions on an integer grid: many bins opened, few open at once.

    Every bin closes within a few time units, so a run opens >= 20x its
    peak of open bins and the index compacts its slot arrays many times.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.integers(0, 2 * n, size=n))
    durations = rng.integers(1, 5, size=n)
    sizes = rng.integers(1, 8, size=(n, 2)) / 8.0
    return [
        Item(
            arrival=int(arrivals[i]),
            departure=int(arrivals[i] + durations[i]),
            size=float(sizes[i, 0]) if dims is None else Resources(*map(float, sizes[i])),
            item_id=f"c{seed}-{i}",
        )
        for i in range(n)
    ]


CHURN_ALGORITHMS = [FirstFit, BestFit, ModifiedFirstFit, ModifiedBestFit]


class TestIndexChurnDifferential:
    """Compaction and lazy view builds under heavy bin turnover."""

    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    @pytest.mark.parametrize("algo_cls", CHURN_ALGORITHMS)
    def test_indexed_matches_list_scan(self, algo_cls, dims):
        items = churn_trace(4, dims)
        indexed = simulate(items, algo_cls())
        scan = simulate(items, algo_cls(), indexed=False)
        assert indexed.num_bins_used >= 20 * indexed.max_bins_used
        assert indexed == scan
        assert indexed.total_cost() == scan.total_cost()

    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    @pytest.mark.parametrize("algo_cls", CHURN_ALGORITHMS)
    def test_resume_from_every_fifth_checkpoint(self, algo_cls, dims):
        # A restored index holds only the restored bins and builds its fit
        # views from them on the first query after the resume.
        items = churn_trace(6, dims)
        checkpoints = []
        base = simulate_stream(
            iter(items),
            algo_cls(),
            checkpoint_every=1,
            on_checkpoint=checkpoints.append,
        )
        assert base.num_bins_used >= 20 * base.peak_open_bins
        assert base == simulate_stream(iter(items), algo_cls())
        for checkpoint in checkpoints[::5]:
            resumed = simulate_stream(iter(items), algo_cls(), resume_from=checkpoint)
            assert resumed == base
