"""Checkpoint/resume for streamed runs: an interrupted run, resumed from a
snapshot plus a fresh copy of the same source stream, must produce the exact
same StreamSummary as the uninterrupted run — same floats, not just close.
"""

import json
from fractions import Fraction

import pytest

from repro import BestFit, FirstFit, NextFit, make_items
from repro.cloud import dispatch_stream
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CHECKPOINT_VERSION,
    CheckpointError,
    StreamCheckpoint,
)
from repro.core.item import Item
from repro.core.validation import CheckpointFormatError, CheckpointSchemaError
from repro.core.streaming import simulate_stream
from repro.obs import MetricsObserver
from repro.renting import BoundedRepacker
from repro.workloads import Clipped, Exponential, Uniform, stream_trace


def _workload(n_items=600, seed=3):
    return stream_trace(
        arrival_rate=5.0,
        duration=Clipped(Exponential(5.0), 1.0, 15.0),
        size=Uniform(0.1, 0.6),
        n_items=n_items,
        seed=seed,
    )


def _collect_checkpoints(algo_factory, every=53, **kw):
    sink = []
    summary = simulate_stream(
        _workload(**kw), algo_factory(), checkpoint_every=every, on_checkpoint=sink.append
    )
    return summary, sink


class TestCheckpointedPathExactness:
    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit, NextFit])
    def test_checkpointed_run_equals_fast_path(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        summary, sink = _collect_checkpoints(algo_factory)
        assert summary == base  # frozen dataclass: float-exact equality
        assert sink, "expected at least one checkpoint"


class TestResume:
    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit])
    def test_resume_mid_run_reproduces_summary(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        _, sink = _collect_checkpoints(algo_factory)
        middle = sink[len(sink) // 2]
        resumed = simulate_stream(_workload(), algo_factory(), resume_from=middle)
        assert resumed == base

    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit, NextFit])
    def test_resume_from_json_roundtrip(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        _, sink = _collect_checkpoints(algo_factory)
        snap = StreamCheckpoint.from_json(sink[len(sink) // 2].to_json())
        resumed = simulate_stream(_workload(), algo_factory(), resume_from=snap)
        assert resumed == base

    def test_interrupted_run_resumes(self):
        """Simulate a crash: stop consuming mid-stream, resume from the last
        shipped snapshot with a fresh copy of the same stream."""
        base = simulate_stream(_workload(), FirstFit())
        sink = []

        class Interrupted(RuntimeError):
            pass

        def ship(cp):
            sink.append(cp)
            if len(sink) == 4:
                raise Interrupted()

        with pytest.raises(Interrupted):
            simulate_stream(
                _workload(), FirstFit(), checkpoint_every=101, on_checkpoint=ship
            )
        resumed = simulate_stream(_workload(), FirstFit(), resume_from=sink[-1])
        assert resumed == base

    def test_resume_with_observers(self):
        base = simulate_stream(_workload(), FirstFit())
        sink = []
        first = MetricsObserver()
        simulate_stream(
            _workload(),
            FirstFit(),
            observers=(first,),
            checkpoint_every=97,
            on_checkpoint=sink.append,
        )
        fresh = MetricsObserver()
        resumed = simulate_stream(
            _workload(),
            FirstFit(),
            observers=(fresh,),
            checkpoint_every=97,
            on_checkpoint=lambda _cp: None,
            resume_from=sink[len(sink) // 2],
        )
        assert resumed == base
        assert fresh.registry.snapshot() == first.registry.snapshot()

    def test_dispatch_stream_resume_bills_identically(self):
        base = dispatch_stream(_workload(), FirstFit())
        sink = []
        dispatch_stream(
            _workload(), FirstFit(), checkpoint_every=83, on_checkpoint=sink.append
        )
        resumed = dispatch_stream(
            _workload(), FirstFit(), resume_from=sink[len(sink) // 2]
        )
        assert resumed.summary == base.summary
        assert resumed.billed_cost == base.billed_cost
        assert resumed.num_servers_rented == base.num_servers_rented


class TestCheckpointErrors:
    def test_checkpoint_every_requires_sink(self):
        with pytest.raises(ValueError, match="together"):
            simulate_stream(_workload(), FirstFit(), checkpoint_every=10)

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            simulate_stream(
                _workload(), FirstFit(), checkpoint_every=0, on_checkpoint=lambda c: None
            )

    def test_wrong_algorithm_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        with pytest.raises(CheckpointError, match="algorithm"):
            simulate_stream(_workload(), BestFit(), resume_from=sink[0])

    def test_truncated_source_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        short = iter(make_items([(0, 1, 0.5)]))
        with pytest.raises(CheckpointError, match="same stream"):
            simulate_stream(short, FirstFit(), resume_from=sink[-1])

    def test_observer_count_mismatch_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        with pytest.raises(CheckpointError, match="observers"):
            simulate_stream(
                _workload(),
                FirstFit(),
                observers=(MetricsObserver(),),
                resume_from=sink[0],
            )

    def test_version_mismatch_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        import dataclasses

        stale = dataclasses.replace(sink[0], version=CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            simulate_stream(_workload(), FirstFit(), resume_from=stale)


class TestRepackerResumeErrors:
    """Resuming with the other repacker configuration, or from a malformed
    ``repacker_state``, raises a typed error."""

    def _migrating_checkpoints(self):
        sink = []
        simulate_stream(
            _workload(n_items=200),
            FirstFit(),
            repacker=BoundedRepacker(1),
            checkpoint_every=53,
            on_checkpoint=sink.append,
        )
        return sink

    def test_repacker_needs_repacker_state(self):
        _, sink = _collect_checkpoints(FirstFit, n_items=120)
        with pytest.raises(CheckpointError, match="without a repacker"):
            simulate_stream(
                _workload(n_items=120),
                FirstFit(),
                repacker=BoundedRepacker(1),
                resume_from=sink[0],
            )
        with pytest.raises(CheckpointError, match="without a repacker"):
            BoundedRepacker(1).restore_state(None)

    def test_repacker_state_needs_repacker(self):
        sink = self._migrating_checkpoints()
        with pytest.raises(CheckpointError, match="migration-bounded"):
            simulate_stream(_workload(n_items=200), FirstFit(), resume_from=sink[0])

    def test_repacker_state_missing_a_key(self):
        sink = self._migrating_checkpoints()
        state = dict(sink[0].repacker_state)
        del state["budget"]
        import dataclasses

        broken = dataclasses.replace(sink[0], repacker_state=state)
        with pytest.raises(CheckpointFormatError, match="budget"):
            simulate_stream(
                _workload(n_items=200),
                FirstFit(),
                repacker=BoundedRepacker(1),
                resume_from=broken,
            )


class TestTypedPayloadErrors:
    """Satellites: malformed payloads and schema stamps are typed errors."""

    def _json(self):
        _, sink = _collect_checkpoints(FirstFit, n_items=120)
        return sink[0].to_json()

    def test_payload_carries_schema_stamp(self):
        payload = json.loads(self._json())
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_invalid_json_is_format_error(self):
        with pytest.raises(CheckpointFormatError, match="unreadable"):
            StreamCheckpoint.from_json("{not json at all")

    def test_non_object_json_is_format_error(self):
        with pytest.raises(CheckpointFormatError):
            StreamCheckpoint.from_json("[1, 2, 3]")

    def test_missing_field_is_format_error(self):
        payload = json.loads(self._json())
        del payload["bins"]
        with pytest.raises(CheckpointFormatError):
            StreamCheckpoint.from_json(json.dumps(payload))

    def test_missing_schema_stamp_is_schema_error(self):
        payload = json.loads(self._json())
        del payload["schema_version"]
        with pytest.raises(CheckpointSchemaError, match="no schema_version"):
            StreamCheckpoint.from_json(json.dumps(payload))

    def test_wrong_schema_version_is_schema_error(self):
        payload = json.loads(self._json())
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(CheckpointSchemaError) as excinfo:
            StreamCheckpoint.from_json(json.dumps(payload))
        assert excinfo.value.expected == CHECKPOINT_SCHEMA_VERSION
        assert excinfo.value.got == CHECKPOINT_SCHEMA_VERSION + 1

    def test_schema_2_payload_is_refused(self):
        # Schema 2 observers saved open times and sessions that schema 3
        # observers read from the engine instead: refuse, don't mis-restore.
        payload = json.loads(self._json())
        payload["schema_version"] = 2
        with pytest.raises(CheckpointSchemaError) as excinfo:
            StreamCheckpoint.from_json(json.dumps(payload))
        assert (excinfo.value.expected, excinfo.value.got) == (3, 2)

    def test_schema_error_is_a_format_error(self):
        # Callers catching the broad typed error also see schema mismatches.
        assert issubclass(CheckpointSchemaError, CheckpointFormatError)

    def test_fraction_state_roundtrips_exactly(self):
        items = [
            Item(
                arrival=Fraction(i, 3),
                departure=Fraction(i, 3) + Fraction(7, 2),
                size=Fraction(1 + (i % 3), 5),
                item_id=f"q{i}",
            )
            for i in range(90)
        ]
        base = simulate_stream(iter(items), FirstFit(), capacity=Fraction(1))
        sink = []
        simulate_stream(
            iter(items),
            FirstFit(),
            capacity=Fraction(1),
            checkpoint_every=25,
            on_checkpoint=sink.append,
        )
        snap = StreamCheckpoint.from_json(sink[-1].to_json())
        resumed = simulate_stream(
            iter(items), FirstFit(), capacity=Fraction(1), resume_from=snap
        )
        assert resumed == base
        assert isinstance(resumed.total_cost, Fraction)
