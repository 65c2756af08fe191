"""The observer stack under bounded migration, checkpoints and the flight ring.

A :class:`~repro.renting.BoundedRepacker` (Berndt–Jansen–Klein style
repacking) empties bins between engine events, and
:meth:`~repro.core.simulator.Simulator.migrate` can open them.  These tests
run First Fit + ``BoundedRepacker(1)`` with an
:class:`~repro.obs.ObservationSession` (metrics and trace) and a
:class:`~repro.obs.FlightObserver` on float, exact ``Fraction`` and 2-D
:class:`~repro.core.resources.Resources` sizes, and check that every
observer tells the engine's story: the trace replays to the engine's
summary, the registry drains to zero open bins, the flight ring repeats
the trace's span lines, and a run resumed from any checkpoint ends with
the uninterrupted run's summary, metrics and trace bytes.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest

from repro import FirstFit, Simulator
from repro.algorithms.base import OPEN_NEW
from repro.core.checkpoint import StreamCheckpoint
from repro.core.item import Item
from repro.core.resources import Resources
from repro.core.streaming import simulate_stream
from repro.obs import (
    FlightObserver,
    FlightRecorder,
    Heartbeat,
    LifecycleTracer,
    LiveExportObserver,
    MetricsObserver,
    ObservationSession,
    verify_trace,
)
from repro.obs.clock import ManualClock
from repro.obs.flight import SPAN_KINDS
from repro.renting import BoundedRepacker
from repro.workloads import Clipped, Exponential, Uniform, stream_trace

#: 2,000 sessions of the float probe migrate 2,618 times.  Repacked at that
#: size, the exact and vector variants take about 6.2 and 6.8 times as long
#: as the float one (BENCH_engine.json's ``repack`` rows), so they replay
#: the first 500 sessions of the same stream.
PROBE = dict(
    arrival_rate=5,
    duration=Clipped(Exponential(20), 2, 60),
    size=Uniform(0.05, 0.6),
    seed=3,
)
SIZES = {"float": 2000, "fraction": 500, "2d": 500}
CHECKPOINT_EVERY = {"float": 250, "fraction": 100, "2d": 100}


def _sessions(kind: str):
    for item in stream_trace(n_items=SIZES[kind], **PROBE):
        if kind == "fraction":
            yield Item(
                arrival=Fraction(round(item.arrival * 8), 8),
                departure=Fraction(round(item.departure * 8), 8),
                size=Fraction(round(item.size * 64), 64),
                item_id=item.item_id,
            )
        elif kind == "2d":
            yield Item(
                arrival=item.arrival,
                departure=item.departure,
                size=Resources(item.size, 0.65 - item.size),
                item_id=item.item_id,
            )
        else:
            yield item


def _span_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if json.loads(line)["kind"] in SPAN_KINDS]


def _run(kind: str, resume_from: StreamCheckpoint | None = None, **checkpointing):
    """One migrating, fully observed run; returns what each observer saw."""
    sink = io.StringIO()
    session = ObservationSession(FirstFit(), trace=sink)
    flight = FlightRecorder(capacity=100_000)
    repacker = BoundedRepacker(1)
    summary = simulate_stream(
        _sessions(kind),
        session.instrumented,
        observers=session.observers + (FlightObserver(flight),),
        repacker=repacker,
        resume_from=resume_from,
        **checkpointing,
    )
    session.finish(summary)
    return summary, session, sink.getvalue(), flight, repacker


@pytest.fixture(scope="module", params=sorted(SIZES))
def checkpointed(request):
    """The uninterrupted run, checkpointing as it goes (JSON round-tripped)."""
    kind = request.param
    checkpoints: list[StreamCheckpoint] = []
    run = _run(
        kind,
        checkpoint_every=CHECKPOINT_EVERY[kind],
        on_checkpoint=lambda cp: checkpoints.append(StreamCheckpoint.from_json(cp.to_json())),
    )
    return kind, run, checkpoints


def test_every_observer_follows_the_migrations(checkpointed):
    _, (summary, session, trace, flight, repacker), _ = checkpointed
    assert repacker.migrations_done > 0 and repacker.bins_emptied > 0
    assert verify_trace(trace.splitlines()) == summary
    records = [json.loads(line) for line in trace.splitlines()]
    assert sum(r["kind"] == "migrate" for r in records) == repacker.migrations_done
    emptied = [r for r in records if r["kind"] == "close" and r["reason"] == "migrate"]
    assert len(emptied) == repacker.bins_emptied

    reg = session.registry
    assert reg["dbp_open_bins"].value == 0
    assert reg["dbp_bins_opened_total"].value == summary.num_bins_used
    assert reg["dbp_bins_closed_total"].value == reg["dbp_bins_opened_total"].value
    assert reg["dbp_open_bins"].peak == summary.peak_open_bins
    assert reg["dbp_bin_lifetime"].sum == summary.total_bin_time
    assert reg["dbp_bin_lifetime"].count == summary.num_bins_used

    assert flight.dropped == 0
    assert flight.span_lines() == _span_lines(trace)


def test_resume_from_every_kth_checkpoint_is_exact(checkpointed):
    kind, (summary, session, trace, _, _), checkpoints = checkpointed
    assert len(checkpoints) >= 4
    full_lines = trace.splitlines(keepends=True)
    for checkpoint in checkpoints[1::3]:
        resumed, resumed_session, tail, flight, _ = _run(
            kind,
            resume_from=checkpoint,
            checkpoint_every=CHECKPOINT_EVERY[kind],
            on_checkpoint=lambda _cp: None,
        )
        assert resumed == summary
        assert resumed_session.registry["dbp_open_bins"].value == 0
        assert resumed_session.registry.to_json() == session.registry.to_json()
        records = checkpoint.observers[1]["records"]
        assert "".join(full_lines[:records]) + tail == trace
        assert flight.span_lines() == _span_lines(tail)


def test_observer_state_holds_no_shadow_ledger(checkpointed):
    _, _, checkpoints = checkpointed
    checkpoint = checkpoints[len(checkpoints) // 2]
    metrics, tracer, flight = checkpoint.observers
    assert set(metrics) == {"registry", "bin_stats"}
    # One [last event time, level-time integral] pair per open bin, no more.
    assert set(metrics["bin_stats"]) == {str(b["index"]) for b in checkpoint.bins}
    assert all(len(pair) == 2 for pair in metrics["bin_stats"].values())
    assert set(tracer) == {"records", "checkpoints"}
    assert flight is None
    rendered = json.dumps([metrics, tracer], default=repr)
    assert checkpoint.active and not any(
        json.dumps(entry["item_id"]) in rendered for entry in checkpoint.active
    )


class TestMigrationOpensBins:
    """``Simulator.migrate(..., OPEN_NEW)`` opens a bin mid-event; a move
    out of a one-item bin closes one and opens another at once."""

    def _observed(self):
        """The simulator, its trace sink, tracer and metrics, and the lines a
        live heartbeat writes after every event but the first."""
        sink = io.StringIO()
        tracer = LifecycleTracer(sink, algorithm="first-fit")
        metrics = MetricsObserver()
        beats = io.StringIO()
        live = LiveExportObserver(
            metrics.registry,
            heartbeat=Heartbeat(beats, clock=ManualClock(tick=1.0), interval=0),
        )
        sim = Simulator(FirstFit(), record=False, observers=[metrics, tracer, live])
        return sim, sink, tracer, metrics, beats

    def test_move_into_a_new_bin(self):
        sim, sink, tracer, metrics, beats = self._observed()
        sim.arrive(0, 0.5, item_id="a")
        sim.arrive(0, 0.4, item_id="b")
        sim.migrate("b", OPEN_NEW, time=1)
        assert metrics.registry["dbp_open_bins"].value == sim.num_open_bins == 2
        sim.depart("a", 2)
        sim.depart("b", 3)
        summary = sim.finish_summary()
        tracer.finish(summary)
        assert verify_trace(sink.getvalue().splitlines()) == summary
        kinds = [json.loads(line)["kind"] for line in sink.getvalue().splitlines()]
        assert kinds[kinds.index("migrate") + 1] == "open"
        reg = metrics.registry
        assert reg["dbp_bins_opened_total"].value == reg["dbp_bins_closed_total"].value == 2
        assert reg["dbp_open_bins"].value == 0
        assert reg["dbp_bin_lifetime"].sum == summary.total_bin_time == 2 + 2
        # bin 0 held 0.9 for [0, 1) and 0.5 for [1, 2); bin 1 held 0.4 throughout.
        assert reg["dbp_bin_utilization_at_close"].sum == pytest.approx(0.7 + 0.4)
        # The live heartbeat reads the registry, so it counts the bin the
        # move opened: one bin is still open after "a" leaves.
        assert beats.getvalue().splitlines() == [
            "live: events=2 open_bins=1 placed=2",
            "live: events=3 open_bins=1 placed=2",
            "live: events=4 open_bins=0 placed=2",
        ]

    def test_emptying_move_closes_before_it_opens(self):
        sim, sink, tracer, metrics, beats = self._observed()
        sim.arrive(0, 0.5, item_id="a")
        sim.migrate("a", OPEN_NEW, time=1)
        assert metrics.registry["dbp_open_bins"].value == sim.num_open_bins == 1
        sim.depart("a", 2)
        assert beats.getvalue() == "live: events=2 open_bins=0 placed=1\n"
        summary = sim.finish_summary()
        tracer.finish(summary)
        assert summary.peak_open_bins == 1
        assert verify_trace(sink.getvalue().splitlines()) == summary
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        moved = [r for r in records if r.get("t") == 1]
        assert [r["kind"] for r in moved] == ["migrate", "close", "open"]
        assert moved[1]["reason"] == "migrate" and moved[1]["opened_at"] == 0
        assert metrics.registry["dbp_open_bins"].peak == 1
