"""Unit tests for the event stream's ordering and a trace's event times."""

from repro import Item
from repro.core.events import EventKind, iter_events
from repro.opt.snapshot import snapshot_profile


def items_():
    return [
        Item(arrival=0, departure=5, size=0.5, item_id="a"),
        Item(arrival=2, departure=5, size=0.5, item_id="b"),
        Item(arrival=5, departure=7, size=0.5, item_id="c"),
    ]


class TestCompileEvents:
    """The merged event stream of an arrival-ordered trace."""

    def test_counts(self):
        events = list(iter_events(items_()))
        assert len(events) == 6
        assert sum(1 for e in events if e.kind is EventKind.ARRIVAL) == 3

    def test_sorted_by_time(self):
        events = list(iter_events(items_()))
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_departures_before_arrivals_at_same_time(self):
        # a and b depart at 5; c arrives at 5 — departures first.
        events = [e for e in iter_events(items_()) if e.time == 5]
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.DEPARTURE, EventKind.DEPARTURE, EventKind.ARRIVAL]

    def test_same_time_arrivals_keep_trace_order(self):
        items = [
            Item(arrival=0, departure=1, size=0.1, item_id=f"i{n}") for n in range(5)
        ]
        arrivals = [e for e in iter_events(items) if e.kind is EventKind.ARRIVAL]
        assert [e.item.item_id for e in arrivals] == [f"i{n}" for n in range(5)]

    def test_empty(self):
        assert list(iter_events([])) == []


def test_event_times_dedup():
    # The offline sweep breaks at each distinct event time once.
    times, _ = snapshot_profile(items_())
    assert times == [0, 2, 5, 7]
