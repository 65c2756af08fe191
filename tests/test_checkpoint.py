"""Checkpoint/resume for streamed runs: an interrupted run, resumed from a
snapshot plus a fresh copy of the same source stream, must produce the exact
same StreamSummary as the uninterrupted run — same floats, not just close.
"""

import io
import json
from fractions import Fraction

import pytest

from repro import BestFit, FirstFit, ModifiedFirstFit, NextFit, make_items
from repro.cloud import dispatch_stream
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CHECKPOINT_VERSION,
    CheckpointError,
    StreamCheckpoint,
)
from repro.core.item import Item
from repro.core.resources import Resources
from repro.core.validation import CheckpointFormatError, CheckpointSchemaError
from repro.core.streaming import simulate_stream
from repro.obs import LifecycleTracer, MetricsObserver
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


def _drop_departure(payload):
    del payload["active"]["departure"]


def _drop_level(payload):
    del payload["bins"]["level"]


def _extra_column(payload):
    payload["active"]["extra"] = payload["active"]["seq"]


def _ragged_columns(payload):
    payload["active"]["seq"].pop()


def _unknown_bin(payload):
    payload["active"]["bin"][0] = 10**6


def _repeated_bin_index(payload):
    payload["bins"]["index"][1] = payload["bins"]["index"][0]


def _column_not_a_list(payload):
    payload["active"]["tag"] = None


def _table_not_an_object(payload):
    payload["bins"] = []


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
        assert (excinfo.value.expected, excinfo.value.got) == (
            CHECKPOINT_SCHEMA_VERSION,
            2,
        )

    def test_schema_3_payload_is_refused(self):
        # Schema 3 wrote bins and active as lists of row objects; schema 4
        # writes tables of columns, and nothing reads the row layout.
        payload = json.loads(self._json())
        for name in ("bins", "active"):
            table = payload[name]
            payload[name] = [dict(zip(table, row)) for row in zip(*table.values())]
        assert payload["active"] and "item_id" in payload["active"][0]
        payload["schema_version"] = 3
        with pytest.raises(CheckpointSchemaError) as excinfo:
            StreamCheckpoint.from_json(json.dumps(payload))
        assert (excinfo.value.expected, excinfo.value.got) == (4, 3)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            pytest.param(_drop_departure, "columns", id="missing-active-column"),
            pytest.param(_drop_level, "columns", id="missing-bins-column"),
            pytest.param(_extra_column, "columns", id="extra-column"),
            pytest.param(_ragged_columns, "length", id="ragged-columns"),
            pytest.param(_unknown_bin, "not in the bins table", id="unknown-bin"),
            pytest.param(_repeated_bin_index, "repeats a bin index", id="repeated-bin-index"),
            pytest.param(_column_not_a_list, "must be a list", id="column-not-a-list"),
            pytest.param(_table_not_an_object, "columns", id="table-not-an-object"),
        ],
    )
    def test_malformed_table_is_format_error(self, tamper, message):
        # Parsed as is, each of these would reach restore as a bare
        # KeyError or as merged bins; a checksummed generation like this
        # must be refused at load so the store falls back.
        payload = json.loads(self._json())
        assert len(payload["bins"]["index"]) >= 2 and payload["active"]["bin"]
        tamper(payload)
        with pytest.raises(CheckpointFormatError, match=message):
            StreamCheckpoint.from_json(json.dumps(payload))

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


def _exact_items(n_items=120):
    return [
        Item(
            arrival=Fraction(i, 3),
            departure=Fraction(i, 3) + Fraction(7, 2) + Fraction(i % 4, 5),
            size=Fraction(1 + (i % 3), 5),
            item_id=f"q{i}",
        )
        for i in range(n_items)
    ]


def _vector_items(n_items=200):
    return [
        Item(
            arrival=item.arrival,
            departure=item.departure,
            size=Resources(item.size, 0.7 - item.size),
            item_id=item.item_id,
        )
        for item in _workload(n_items=n_items)
    ]


#: One way to take checkpoints per kind of state a payload must carry, and a
#: check that the kind really carries it.
_KINDS = {
    "ff-float": (
        lambda ship: simulate_stream(
            _workload(), FirstFit(), checkpoint_every=53, on_checkpoint=ship
        ),
        lambda cp: isinstance(cp.active[0]["size"], float),
    ),
    "bf-float": (
        lambda ship: simulate_stream(
            _workload(), BestFit(), checkpoint_every=53, on_checkpoint=ship
        ),
        lambda cp: isinstance(cp.bins[0]["level"], float),
    ),
    "mff-labels": (
        lambda ship: simulate_stream(
            _workload(), ModifiedFirstFit(), checkpoint_every=53, on_checkpoint=ship
        ),
        lambda cp: all(b["label"] is not None for b in cp.bins),
    ),
    "nf-state": (
        lambda ship: simulate_stream(
            _workload(), NextFit(), checkpoint_every=53, on_checkpoint=ship
        ),
        lambda cp: cp.algorithm_state is not None,
    ),
    "fraction": (
        lambda ship: simulate_stream(
            iter(_exact_items()),
            FirstFit(),
            capacity=Fraction(1),
            checkpoint_every=25,
            on_checkpoint=ship,
        ),
        lambda cp: isinstance(cp.active[0]["departure"], Fraction)
        and isinstance(cp.bins[0]["level"], Fraction),
    ),
    "vector": (
        lambda ship: simulate_stream(
            iter(_vector_items()),
            FirstFit(),
            capacity=Resources(1.0, 1.0),
            checkpoint_every=41,
            on_checkpoint=ship,
        ),
        lambda cp: isinstance(cp.active[0]["size"], Resources)
        and isinstance(cp.bins[0]["capacity"], Resources),
    ),
    "repacker": (
        lambda ship: simulate_stream(
            _workload(n_items=200),
            FirstFit(),
            repacker=BoundedRepacker(1),
            checkpoint_every=53,
            on_checkpoint=ship,
        ),
        lambda cp: cp.repacker_state is not None,
    ),
    "observers": (
        lambda ship: simulate_stream(
            _workload(),
            BestFit(),
            observers=(MetricsObserver(), LifecycleTracer(io.StringIO(), algorithm="best-fit")),
            checkpoint_every=53,
            on_checkpoint=ship,
        ),
        lambda cp: cp.observers[0]["bin_stats"] and cp.observers[1]["records"],
    ),
    "dispatch-meter": (
        lambda ship: dispatch_stream(
            _workload(), FirstFit(), checkpoint_every=53, on_checkpoint=ship
        ),
        lambda cp: set(cp.observers[-1]) == {"billed", "servers_billed"},
    ),
}


@pytest.fixture(scope="module", params=sorted(_KINDS))
def kind_checkpoints(request):
    run, carries = _KINDS[request.param]
    checkpoints = []
    run(checkpoints.append)
    assert any(cp.active and carries(cp) for cp in checkpoints), request.param
    return checkpoints


class TestPayloadRoundTrip:
    """Every kind of checkpoint state survives ``to_json``/``from_json``
    unchanged, and its bytes depend only on the state."""

    def test_roundtrip_is_identity(self, kind_checkpoints):
        for checkpoint in kind_checkpoints:
            text = checkpoint.to_json()
            assert checkpoint.to_json() == text
            back = StreamCheckpoint.from_json(text)
            assert back == checkpoint
            assert back.to_json() == text

    def test_tables_are_columns(self, kind_checkpoints):
        for checkpoint in kind_checkpoints:
            payload = json.loads(checkpoint.to_json())
            for name, rows, keys in (
                ("bins", checkpoint.bins, {"index", "capacity", "label", "opened_at", "level"}),
                (
                    "active",
                    checkpoint.active,
                    {"item_id", "size", "arrival", "tag", "departure", "seq", "bin"},
                ),
            ):
                table = payload[name]
                assert isinstance(table, dict) and set(table) == keys
                assert all(set(row) == keys for row in rows)
                for column in table.values():
                    assert isinstance(column, list) and len(column) == len(rows)
                    # No per-session or per-bin object: the only objects
                    # left are the one-key Fraction/Resources number tags.
                    assert all(
                        not isinstance(value, dict)
                        or set(value) in ({"__fraction__"}, {"__resources__"})
                        for value in column
                    )
