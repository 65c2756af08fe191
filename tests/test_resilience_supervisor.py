"""Recovery supervisor differential tests: the acceptance criterion.

A dispatch stream killed at every k-th checkpoint write and resumed by
the supervisor must produce a StreamSummary — and billed cost — exactly
equal to the uninterrupted run, for scalar float, exact-Fraction, and
vector-resource traces alike.  Crash recovery must be invisible in the
results and visible only in RecoveryStats.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from repro import BestFit, FirstFit
from repro.cloud import ServerType, dispatch_stream
from repro.core import Item, Resources
from repro.core.streaming import simulate_stream
from repro.obs import MetricsObserver, MetricsRegistry
from repro.renting import MoveToFront
from repro.resilience import (
    STORE_SCHEMA_VERSION,
    CheckpointStore,
    InjectedCrash,
    RecoveryExhaustedError,
    supervised_dispatch_stream,
    supervised_stream,
)
from repro.workloads import (
    Clipped,
    Exponential,
    Uniform,
    generate_vector_trace,
    stream_trace,
)

CHECKPOINT_EVERY = 32


def _scalar_items(n_items=260, seed=11):
    return stream_trace(
        arrival_rate=5.0,
        duration=Clipped(Exponential(6.0), 1.0, 20.0),
        size=Uniform(0.1, 0.6),
        n_items=n_items,
        seed=seed,
    )


def _fraction_items(n_items=150):
    # Exact rational demands and durations: resumes must preserve
    # Fraction arithmetic through checkpoint JSON, not degrade to floats.
    items = []
    t = Fraction(0)
    for i in range(n_items):
        t += Fraction(1, 3)
        items.append(
            Item(
                arrival=t,
                departure=t + Fraction(7, 2) + Fraction(i % 5, 3),
                size=Fraction(1 + (i % 4), 7),
                item_id=f"f{i}",
            )
        )
    return iter(items)


def _vector_items(n_items=200, seed=4):
    trace = generate_vector_trace(
        arrival_rate=4.0,
        horizon=n_items / 4.0,
        duration=Clipped(Exponential(8.0), 2.0, 30.0),
        sizes=(Uniform(0.1, 0.6), Uniform(0.1, 0.5)),
        correlation=0.5,
        seed=seed,
        capacity=Resources(1.0, 1.0),
    )
    return iter(sorted(trace.items, key=lambda item: item.arrival))


def _crash_at_every(k):
    def hook(generation, checkpoint):
        if (generation + 1) % k == 0:
            raise InjectedCrash(f"killed at generation {generation}")

    return hook


def _drop_departure(payload):
    del payload["active"]["departure"]


def _drop_level(payload):
    del payload["bins"]["level"]


def _unknown_bin(payload):
    payload["active"]["bin"][0] = 10**6


def _rewrite_then_crash(store, tamper):
    """A checkpoint hook replacing generation 1 by a tampered, checksummed
    payload, then killing the attempt; records the generations it rewrote."""
    rewritten = []

    def hook(generation, checkpoint):
        if generation != 1:
            return
        payload = json.loads(checkpoint.to_json())
        tamper(payload)
        text = json.dumps(payload, sort_keys=True)
        envelope = {
            "payload": text,
            "schema_version": STORE_SCHEMA_VERSION,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }
        store.path_for(generation).write_text(
            json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        )
        rewritten.append(generation)
        raise InjectedCrash("killed right after a bad generation 1")

    return hook, rewritten


CASES = [
    pytest.param(_scalar_items, ServerType(), id="scalar-float"),
    pytest.param(
        _fraction_items,
        ServerType(
            gpu_capacity=Fraction(1),
            rate=Fraction(1),
            billing_quantum=Fraction(15, 2),
        ),
        id="scalar-fraction",
    ),
    pytest.param(
        _vector_items,
        ServerType(gpu_capacity=Resources(1.0, 1.0), billing_quantum=30.0),
        id="vector",
    ),
]


class TestDispatchDifferential:
    @pytest.mark.parametrize("items,server_type", CASES)
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_kill_at_every_kth_checkpoint_resumes_exactly(
        self, tmp_path, items, server_type, k
    ):
        base = dispatch_stream(items(), FirstFit(), server_type=server_type)
        store = CheckpointStore(tmp_path / f"k{k}", keep=3)
        supervised = supervised_dispatch_stream(
            items,
            FirstFit,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            server_type=server_type,
            max_restarts=1000,
            recover_on=(InjectedCrash,),
            checkpoint_hook=_crash_at_every(k),
        )
        report, stats = supervised.report, supervised.stats
        assert stats.crashes > 0, "the hook must actually kill the run"
        assert report.summary == base.summary
        # Settlement must not double-bill across crashes: exact equality,
        # Fraction-exact in the rational case.
        assert report.billed_cost == base.billed_cost  # dbp: noqa[DBP003] -- exact-resume oracle
        assert type(report.billed_cost) is type(base.billed_cost)
        assert (  # dbp: noqa[DBP003] -- exact-resume oracle
            report.continuous_cost == base.continuous_cost
        )
        assert report.num_servers_rented == base.num_servers_rented
        assert report.peak_concurrent_servers == base.peak_concurrent_servers

    def test_fraction_costs_stay_rational_through_recovery(self, tmp_path):
        server_type = ServerType(
            gpu_capacity=Fraction(1), rate=Fraction(2, 3), billing_quantum=Fraction(5)
        )
        store = CheckpointStore(tmp_path, keep=2)
        supervised = supervised_dispatch_stream(
            _fraction_items,
            BestFit,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            server_type=server_type,
            max_restarts=1000,
            recover_on=(InjectedCrash,),
            checkpoint_hook=_crash_at_every(1),
        )
        assert supervised.stats.crashes > 0
        assert isinstance(supervised.report.billed_cost, Fraction)


class TestStreamSupervision:
    def test_supervised_stream_equals_plain_run(self, tmp_path):
        base = simulate_stream(_scalar_items(), BestFit())
        supervised = supervised_stream(
            _scalar_items,
            BestFit,
            store=CheckpointStore(tmp_path, keep=3),
            checkpoint_every=CHECKPOINT_EVERY,
            max_restarts=1000,
            recover_on=(InjectedCrash,),
            checkpoint_hook=_crash_at_every(2),
        )
        assert supervised.stats.crashes > 0
        assert supervised.summary == base

    def test_no_crash_means_clean_stats(self, tmp_path):
        supervised = supervised_stream(
            _scalar_items,
            FirstFit,
            store=CheckpointStore(tmp_path, keep=3),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        stats = supervised.stats
        assert stats.crashes == 0
        assert stats.resumed_generations == ()
        assert stats.corrupt_generations_skipped == 0
        assert stats.checkpoints_written > 0


class TestRecoveryBehaviour:
    def test_max_restarts_exhaustion_is_typed(self, tmp_path):
        def always_crash(generation, checkpoint):
            raise InjectedCrash("unrecoverable")

        with pytest.raises(RecoveryExhaustedError) as excinfo:
            supervised_stream(
                _scalar_items,
                FirstFit,
                store=CheckpointStore(tmp_path, keep=3),
                checkpoint_every=CHECKPOINT_EVERY,
                max_restarts=2,
                recover_on=(InjectedCrash,),
                checkpoint_hook=always_crash,
            )
        assert excinfo.value.crashes == 3
        assert isinstance(excinfo.value.last_error, InjectedCrash)

    def test_unlisted_exceptions_propagate(self, tmp_path):
        def boom(generation, checkpoint):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            supervised_stream(
                _scalar_items,
                FirstFit,
                store=CheckpointStore(tmp_path, keep=3),
                checkpoint_every=CHECKPOINT_EVERY,
                recover_on=(InjectedCrash,),
                checkpoint_hook=boom,
            )

    def test_corrupt_generation_skipped_and_counted(self, tmp_path):
        base = dispatch_stream(_scalar_items(), FirstFit())
        store = CheckpointStore(tmp_path, keep=4)
        dispatch_stream(
            _scalar_items(),
            FirstFit(),
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=store.save,
        )
        newest = store.generations()[-1]
        store.path_for(newest).write_bytes(b"rotted")
        supervised = supervised_dispatch_stream(
            _scalar_items,
            FirstFit,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            max_restarts=0,
        )
        assert supervised.stats.corrupt_generations_skipped == 1
        assert supervised.stats.resumed_generations == (newest - 1,)
        assert supervised.report.summary == base.summary

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(_drop_departure, id="no-departure-column"),
            pytest.param(_drop_level, id="no-level-column"),
            pytest.param(_unknown_bin, id="unknown-bin"),
        ],
    )
    def test_checksummed_malformed_generation_is_skipped(self, tmp_path, tamper):
        # The bytes pass the store's checksum but the payload cannot be
        # restored: the supervisor must fall back to the good generation 0,
        # not restart from the bad one until recovery is exhausted.
        base = simulate_stream(_scalar_items(), BestFit())
        store = CheckpointStore(tmp_path, keep=3)
        tampered = []

        def rot_then_crash(generation, checkpoint):
            if generation == 1:
                payload = json.loads(checkpoint.to_json())
                tamper(payload)
                text = json.dumps(payload, sort_keys=True)
                envelope = {
                    "payload": text,
                    "schema_version": STORE_SCHEMA_VERSION,
                    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                }
                store.path_for(generation).write_text(
                    json.dumps(envelope, sort_keys=True, separators=(",", ":"))
                )
                tampered.append(generation)
                raise InjectedCrash("killed right after a bad generation 1")

        supervised = supervised_stream(
            _scalar_items,
            BestFit,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_hook=rot_then_crash,
        )
        assert tampered == [1]
        assert supervised.stats.crashes == 1
        assert supervised.stats.resumed_generations == (0,)
        assert supervised.stats.corrupt_generations_skipped == 1
        assert supervised.summary == base

    def test_unrestorable_observer_state_falls_back(self, tmp_path):
        # Generation 1 loads (checksum and payload are fine) but its
        # observer state cannot be restored: the resume from it must count
        # as a corrupt generation and fall back to generation 0, not crash
        # until recovery is exhausted.
        base = simulate_stream(_scalar_items(), BestFit())
        store = CheckpointStore(tmp_path, keep=3)

        def drop_bin_stats(payload):
            del payload["observers"][0]["bin_stats"]

        hook, rewritten = _rewrite_then_crash(store, drop_bin_stats)
        supervised = supervised_stream(
            _scalar_items,
            BestFit,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            observer_factory=lambda: [MetricsObserver()],
            max_restarts=4,
            checkpoint_hook=hook,
        )
        assert rewritten == [1]
        assert supervised.stats.crashes == 1
        assert supervised.stats.corrupt_generations_skipped == 1
        assert supervised.stats.resumed_generations == (1, 0)
        assert supervised.summary == base

    def test_unrestorable_algorithm_state_falls_back(self, tmp_path):
        base = simulate_stream(_scalar_items(), MoveToFront())
        store = CheckpointStore(tmp_path, keep=3)

        def order_names_a_missing_bin(payload):
            payload["algorithm_state"]["order"].append(10**6)

        hook, rewritten = _rewrite_then_crash(store, order_names_a_missing_bin)
        supervised = supervised_stream(
            _scalar_items,
            MoveToFront,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            max_restarts=4,
            checkpoint_hook=hook,
        )
        assert rewritten == [1]
        assert supervised.stats.crashes == 1
        assert supervised.stats.corrupt_generations_skipped == 1
        assert supervised.stats.resumed_generations == (1, 0)
        assert supervised.summary == base

    def test_every_generation_corrupt_counts_them_all(self, tmp_path):
        # With no generation that verifies, the run restarts from scratch
        # and the skipped generations still count.
        store = CheckpointStore(tmp_path, keep=4)
        dispatch_stream(
            _scalar_items(),
            FirstFit(),
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=store.save,
        )
        assert len(store.generations()) == 4
        for generation in store.generations():
            store.path_for(generation).write_bytes(b"rotted")
        metrics = MetricsRegistry()
        supervised = supervised_dispatch_stream(
            _scalar_items,
            FirstFit,
            store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            max_restarts=0,
            metrics=metrics,
        )
        assert supervised.stats.crashes == 0
        assert supervised.stats.resumed_generations == ()
        assert supervised.stats.corrupt_generations_skipped == 4
        counters = metrics.snapshot()["counters"]
        assert counters["dbp_resilience_corrupt_generations_total"] == 4
        assert supervised.report == dispatch_stream(_scalar_items(), FirstFit())

    def test_metrics_published(self, tmp_path):
        metrics = MetricsRegistry()
        supervised_stream(
            _scalar_items,
            FirstFit,
            store=CheckpointStore(tmp_path, keep=3),
            checkpoint_every=CHECKPOINT_EVERY,
            max_restarts=1000,
            recover_on=(InjectedCrash,),
            checkpoint_hook=_crash_at_every(3),
            metrics=metrics,
        )
        counters = metrics.snapshot()["counters"]
        assert counters["dbp_resilience_restarts_total"] > 0
        assert counters["dbp_resilience_checkpoints_total"] > 0
        assert counters["dbp_resilience_corrupt_generations_total"] == 0
