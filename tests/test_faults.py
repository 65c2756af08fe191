"""Fault injection, session recovery, and fault accounting.

The load-bearing properties:

* **zero-failure exactness** — with the injector disabled the faulty
  drivers reproduce the fault-free engines float for float;
* **differential oracle** — the induced trace of a faulty run (every
  attempt as a plain item, departures at natural end or eviction),
  replayed through the seed-style ``simulate(..., indexed=False)``,
  produces the identical packing: same bins, per-bin usage lengths
  exactly equal;
* **seeded determinism** — same injector seed gives a byte-identical
  ``FaultReport``; different seeds give different schedules.
"""

import math

import pytest

from repro import BestFit, FirstFit, Item, Simulator, make_items, simulate
from repro.cloud import (
    CRASH,
    RECONNECT,
    RESTART,
    SPOT,
    FaultInjector,
    dispatch_faulty_stream,
    dispatch_stream,
    simulate_faulty_stream,
)
from repro.core.simulator import SimulationError
from repro.core.streaming import simulate_stream
from repro.core.telemetry import SimulationObserver
from repro.obs import MetricsObserver
from repro.resilience import RetryPolicy
from repro.workloads import Clipped, Exponential, Uniform, stream_trace


def _workload(n_items=800, seed=11):
    return stream_trace(
        arrival_rate=4.0,
        duration=Clipped(Exponential(6.0), 1.0, 20.0),
        size=Uniform(0.1, 0.6),
        n_items=n_items,
        seed=seed,
    )


class _CloseRecorder(SimulationObserver):
    """Record every server's usage length at close, whichever way it closes."""

    def __init__(self):
        self.usages = []

    def on_departure(self, time, item_id, bin, closed):
        if closed:
            self.usages.append(bin.usage_length)

    def on_server_failure(self, time, bin, evicted):
        self.usages.append(bin.usage_length)


class TestFailBin:
    def test_evicts_and_closes(self):
        sim = Simulator(FirstFit())
        sim.arrive(0.0, 0.4, item_id="a")
        sim.arrive(1.0, 0.4, item_id="b")
        target = sim.open_bins[0]
        evicted = sim.fail_bin(target, 2.0)
        assert sorted(v.item_id for v in evicted) == ["a", "b"]
        assert sim.num_open_bins == 0
        assert sim.active_item_ids == []
        assert target.is_closed
        assert target.usage_length == 2.0

    def test_unknown_bin_rejected(self):
        sim = Simulator(FirstFit())
        sim.arrive(0.0, 0.4, item_id="a")
        target = sim.open_bins[0]
        sim.fail_bin(target, 1.0)
        with pytest.raises(SimulationError):
            sim.fail_bin(target, 2.0)

    def test_observer_hook_fires(self):
        metrics = MetricsObserver()
        sim = Simulator(FirstFit(), observers=(metrics,))
        sim.arrive(0.0, 0.4, item_id="a")
        sim.arrive(0.0, 0.4, item_id="b")
        sim.fail_bin(sim.open_bins[0], 3.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {
            "dbp_bins_closed_total": 0,  # a revocation is not a drain close
            "dbp_bins_opened_total": 1,
            "dbp_checkpoints_total": 0,
            "dbp_events_processed_total": 3,
            "dbp_rejections_total": 0,
            "dbp_server_failures_total": 1,
            "dbp_sessions_completed_total": 0,
            "dbp_sessions_evicted_total": 2,
            "dbp_sessions_started_total": 2,
        }
        assert snapshot["gauges"] == {
            "dbp_active_sessions": {"peak": 2, "value": 0},
            "dbp_open_bins": {"peak": 1, "value": 0},
            "dbp_sim_time": {"peak": 3.0, "value": 3.0},
        }
        assert snapshot["histograms"]["dbp_bin_lifetime"]["sum"] == 3.0
        assert sim.finish_summary().total_cost == 3.0


class TestInjectorValidation:
    def test_negative_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(rate=-1.0)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            FaultInjector(rate=1.0, model="meteor")

    def test_bad_schedule(self):
        with pytest.raises(ValueError, match="positive"):
            FaultInjector(schedule=(0.0, 1.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            FaultInjector(schedule=(5.0, 1.0))

    def test_unknown_recovery(self):
        with pytest.raises(ValueError, match="recovery"):
            simulate_faulty_stream(
                _workload(), FirstFit(), injector=FaultInjector(), recovery="pray"
            )


class TestZeroFailureExactness:
    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit])
    def test_stream_summary_identical(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        res = simulate_faulty_stream(
            _workload(), algo_factory(), injector=FaultInjector(rate=0.0)
        )
        assert res.summary == base  # float-exact
        assert res.report.num_failures == 0
        assert res.report.sessions_evicted == 0

    def test_dispatch_costs_identical(self):
        base = dispatch_stream(_workload(), FirstFit())
        res = dispatch_faulty_stream(
            _workload(), FirstFit(), injector=FaultInjector(rate=0.0)
        )
        assert res.summary == base.summary
        assert res.billed_cost == base.billed_cost
        assert res.continuous_cost == base.continuous_cost


class TestDifferentialOracle:
    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit])
    @pytest.mark.parametrize("model", [SPOT, CRASH])
    @pytest.mark.parametrize("recovery", [RECONNECT, RESTART])
    def test_induced_trace_replays_identically(self, algo_factory, model, recovery):
        faulty_rec = _CloseRecorder()
        res = simulate_faulty_stream(
            _workload(),
            algo_factory(),
            injector=FaultInjector(rate=0.05, model=model, seed=7),
            recovery=recovery,
            record_induced=True,
            observers=(faulty_rec,),
        )
        assert res.report.num_failures > 0, "workload must provoke failures"
        replay_rec = _CloseRecorder()
        replay = simulate(
            res.induced_items,
            algo_factory(),
            capacity=1.0,
            indexed=False,
            observers=(replay_rec,),
        )
        assert replay.num_bins_used == res.summary.num_bins_used
        assert replay.max_bins_used == res.summary.peak_open_bins
        # Per-server usage lengths match exactly (stronger than total
        # cost, which is summation-order sensitive at the last ulp).
        assert sorted(faulty_rec.usages) == sorted(replay_rec.usages)
        assert math.fsum(sorted(faulty_rec.usages)) == math.fsum(
            sorted(replay_rec.usages)
        )


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        runs = [
            simulate_faulty_stream(
                _workload(), FirstFit(), injector=FaultInjector(rate=0.05, seed=3)
            ).report
            for _ in range(2)
        ]
        assert runs[0].to_json() == runs[1].to_json()

    def test_different_seeds_differ(self):
        a = simulate_faulty_stream(
            _workload(), FirstFit(), injector=FaultInjector(rate=0.05, seed=3)
        ).report
        b = simulate_faulty_stream(
            _workload(), FirstFit(), injector=FaultInjector(rate=0.05, seed=4)
        ).report
        assert a.to_json() != b.to_json()
        assert a.revocations != b.revocations


class TestRecoveryPolicies:
    def _one_failure(self, recovery):
        items = make_items([(0.0, 10.0, 0.5)])
        return simulate_faulty_stream(
            iter(items),
            FirstFit(),
            injector=FaultInjector(schedule=(4.0,)),
            recovery=recovery,
            record_induced=True,
        )

    def test_reconnect_keeps_departure(self):
        res = self._one_failure(RECONNECT)
        first, second = res.induced_items
        assert (first.arrival, first.departure) == (0.0, 4.0)
        assert (second.arrival, second.departure) == (4.0, 10.0)
        assert second.item_id == f"{first.item_id}~a1"
        assert res.report.lost_work == 0
        assert res.report.redispatch_work == 6.0
        assert float(res.summary.total_bin_time) == 10.0

    def test_restart_replays_full_duration(self):
        res = self._one_failure(RESTART)
        first, second = res.induced_items
        assert (second.arrival, second.departure) == (4.0, 14.0)
        assert res.report.lost_work == 4.0
        assert res.report.redispatch_work == 10.0
        assert float(res.summary.total_bin_time) == 14.0

    def test_spot_revokes_most_recent_server(self):
        # Two full servers opened at 0 and 1; the failure at 2 must hit
        # the second (most recently opened) one under SPOT.
        items = make_items([(0.0, 10.0, 1.0), (1.0, 10.0, 1.0)])
        res = simulate_faulty_stream(
            iter(items),
            FirstFit(),
            injector=FaultInjector(schedule=(2.0,), model=SPOT),
            record_induced=True,
        )
        (revocation,) = res.report.revocations
        assert revocation[1] == 1  # server index opened second
        evicted_attempt = res.induced_items[-1]
        assert evicted_attempt.item_id.endswith("~a1")

    def test_idle_strikes_are_counted(self):
        items = make_items([(0.0, 1.0, 0.5)])
        res = simulate_faulty_stream(
            iter(items),
            FirstFit(),
            injector=FaultInjector(schedule=(5.0,)),
        )
        # at t=5 everything has departed: no open server to revoke.
        assert res.report.num_failures == 0
        assert res.report.num_idle_strikes == 0  # generated only while active
        assert float(res.summary.total_bin_time) == 1.0


class TestSameInstantOrder:
    """A re-admission due at a failure instant runs after that failure.

    Session ``s`` is evicted at 5 and backs off to 6, when the second
    failure also fires: the failure strikes first and finds no server, so
    the re-admitted attempt is never struck into a zero-length attempt —
    whether or not a later arrival is still pending in the stream.
    """

    @pytest.mark.parametrize("later_arrival", [False, True])
    def test_failure_runs_before_due_readmission(self, later_arrival):
        items = [Item(arrival=0, departure=100, size=0.5, item_id="s")]
        if later_arrival:
            items.append(Item(arrival=50, departure=60, size=0.1, item_id="late"))

        def run(record_induced):
            return simulate_faulty_stream(
                iter(items),
                FirstFit(),
                injector=FaultInjector(schedule=(5.0, 6.0)),
                retry_policy=RetryPolicy(base_delay=1.0, jitter=0.0),
                record_induced=record_induced,
            )

        report = run(record_induced=False).report
        assert report.revocations == ((5.0, 0, 1),)
        assert report.num_idle_strikes == 1
        induced = {it.item_id: it for it in run(record_induced=True).induced_items}
        assert (induced["s~a1"].arrival, induced["s~a1"].departure) == (6.0, 101.0)


class TestFaultyBilling:
    def test_every_rented_server_is_billed(self):
        res = dispatch_faulty_stream(
            _workload(),
            FirstFit(),
            injector=FaultInjector(rate=0.05, seed=7),
        )
        assert res.report.num_failures > 0
        # billed cost covers every server: failed servers settle at
        # revocation, surviving ones at their last departure.
        assert res.billed_cost >= res.continuous_cost
        assert res.num_servers_rented == res.summary.num_bins_used
