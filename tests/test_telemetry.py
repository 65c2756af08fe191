"""Tests for simulator observer hooks and the run counters they feed.

Counters come from :class:`~repro.obs.MetricsObserver`; cost comes from the
engine's one open-time ledger (``Simulator.finish_summary()``), which the
observer's ``dbp_bin_lifetime`` sum must equal exactly.
"""

import json

from hypothesis import given, settings

from repro import FirstFit, Simulator, make_items, simulate
from repro.core.streaming import simulate_stream
from repro.core.telemetry import SimulationObserver
from repro.obs import MetricsObserver
from tests.conftest import exact_items


class RecordingObserver(SimulationObserver):
    def __init__(self):
        self.events = []

    def on_arrival(self, time, item, bin, opened):
        self.events.append(("arrive", time, item.item_id, bin.index, opened))

    def on_departure(self, time, item, bin, closed):
        self.events.append(("depart", time, item.item_id, bin.index, closed))


class TestObserverHooks:
    def test_every_event_observed_in_order(self):
        items = make_items([(0, 4, 0.6), (1, 3, 0.6), (2, 6, 0.3)], prefix="h")
        obs = RecordingObserver()
        simulate(items, FirstFit(), observers=[obs])
        kinds = [(e[0], e[2]) for e in obs.events]
        assert kinds == [
            ("arrive", "h-0"),
            ("arrive", "h-1"),
            ("arrive", "h-2"),
            ("depart", "h-1"),
            ("depart", "h-0"),
            ("depart", "h-2"),
        ]
        times = [e[1] for e in obs.events]
        assert times == sorted(times)

    def test_opened_closed_flags(self):
        items = make_items([(0, 4, 0.6), (1, 3, 0.6)], prefix="h")
        obs = RecordingObserver()
        simulate(items, FirstFit(), observers=[obs])
        arrive_flags = [e[4] for e in obs.events if e[0] == "arrive"]
        depart_flags = [e[4] for e in obs.events if e[0] == "depart"]
        assert arrive_flags == [True, True]  # both items opened bins
        assert depart_flags == [True, True]  # both bins closed

    def test_multiple_observers(self):
        items = make_items([(0, 1, 0.5)])
        a, b = RecordingObserver(), RecordingObserver()
        simulate(items, FirstFit(), observers=[a, b])
        assert a.events == b.events

    def test_departure_receives_the_arrival_view(self):
        placed = {}

        class Views(SimulationObserver):
            def on_arrival(self, time, item, bin, opened):
                placed[item.item_id] = item

            def on_departure(self, time, item, bin, closed):
                assert placed.pop(item.item_id) is item
                assert not bin.contains(item.item_id)

        simulate(make_items([(0, 4, 0.6), (1, 3, 0.3)]), FirstFit(), observers=[Views()])
        assert placed == {}


class TestRunTelemetry:
    def test_counters_match_result(self):
        items = make_items([(0, 5, 0.5), (1, 3, 0.5), (2, 8, 0.6), (6, 9, 0.2)])
        obs = MetricsObserver()
        result = simulate(items, FirstFit(), observers=[obs])
        reg = obs.registry
        assert reg["dbp_sessions_started_total"].value == len(items)
        assert reg["dbp_sessions_completed_total"].value == len(items)
        assert reg["dbp_bins_opened_total"].value == result.num_bins_used
        assert reg["dbp_bins_closed_total"].value == result.num_bins_used
        assert reg["dbp_open_bins"].value == 0
        assert reg["dbp_active_sessions"].value == 0
        assert reg["dbp_open_bins"].peak == result.max_bins_used

    def test_peak_open_bins_on_a_gaming_day(self, gaming_trace_day):
        obs = MetricsObserver()
        result = simulate(gaming_trace_day.items, FirstFit(), observers=[obs])
        assert obs.registry["dbp_open_bins"].peak == result.max_bins_used

    def test_final_cost_matches_result(self):
        items = make_items([(0, 5, 0.5), (1, 3, 0.5), (2, 8, 0.6)])
        result = simulate(items, FirstFit(), cost_rate=2)
        obs = MetricsObserver()
        summary = simulate_stream(iter(items), FirstFit(), cost_rate=2, observers=[obs])
        assert summary.total_cost == result.total_cost()
        assert 2 * obs.registry["dbp_bin_lifetime"].sum == result.total_cost()


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_telemetry_consistent_on_random_traces(items):
    obs = MetricsObserver()
    result = simulate(items, FirstFit(), observers=[obs])
    reg = obs.registry
    assert reg["dbp_open_bins"].peak == result.max_bins_used
    assert reg["dbp_bins_opened_total"].value == result.num_bins_used
    assert reg["dbp_bin_lifetime"].sum == result.total_cost()


class TestFailureSettlement:
    """``on_server_failure`` must settle the failed bin's rental in one stroke:
    the usual ``closed=True`` departure never fires for a revoked server."""

    def _sim(self, cost_rate=1):
        obs = MetricsObserver()
        sim = Simulator(FirstFit(), cost_rate=cost_rate, record=False, observers=[obs])
        return obs, sim

    def test_failed_bin_is_billed_to_the_failure_instant(self):
        obs, sim = self._sim()
        sim.arrive(0, 0.6, item_id="a")
        sim.arrive(1, 0.6, item_id="b")  # second bin
        evicted = sim.fail_bin(sim.open_bins[0], 4)
        assert [v.item_id for v in evicted] == ["a"]
        # bin0's life ended at 4; bin1 is still open
        assert obs.registry["dbp_bin_lifetime"].sum == 4
        sim.depart("b", 7)
        assert obs.registry["dbp_bin_lifetime"].sum == 4 + 6
        assert sim.finish_summary().total_cost == 4 + 6

    def test_settlement_matches_engine_summary_exactly(self):
        obs, sim = self._sim(cost_rate=3)
        sim.arrive(0, 0.6, item_id="a")
        sim.arrive(1, 0.6, item_id="b")
        sim.fail_bin(sim.open_bins[0], 4)
        sim.depart("b", 7)
        summary = sim.finish_summary()
        assert 3 * obs.registry["dbp_bin_lifetime"].sum == summary.total_cost
        assert summary.total_cost == 3 * (4 + 6)

    def test_failure_counters_stay_disjoint_from_drain_closes(self):
        obs, sim = self._sim()
        sim.arrive(0, 0.4, item_id="a")
        sim.arrive(0.5, 0.4, item_id="b")
        sim.arrive(1, 0.9, item_id="c")  # second bin
        sim.fail_bin(sim.open_bins[0], 3)  # evicts a and b together
        sim.depart("c", 6)  # natural drain close
        reg = obs.registry
        assert reg["dbp_server_failures_total"].value == 1
        assert reg["dbp_sessions_evicted_total"].value == 2
        assert reg["dbp_bins_opened_total"].value == 2
        assert reg["dbp_bins_closed_total"].value == 1  # only c's bin closed by drain
        assert reg["dbp_open_bins"].value == 0
        assert reg["dbp_active_sessions"].value == 0
        # evictions are not departures
        assert reg["dbp_sessions_completed_total"].value == 1

    def test_failure_settlement_survives_checkpoint_round_trip(self):
        obs, sim = self._sim()
        sim.arrive(0, 0.6, item_id="a")
        sim.arrive(1, 0.6, item_id="b")
        sim.fail_bin(sim.open_bins[0], 4)
        state = json.loads(json.dumps(obs.checkpoint_state()))

        restored = MetricsObserver()
        restored.restore_state(state)
        assert restored.registry.snapshot() == obs.registry.snapshot()
        # The open bin's level integral keeps running after restore, same
        # as the original's.
        open_bin = sim.open_bins[0]
        (view,) = open_bin.items()
        sim.depart("b", 7)
        restored.on_departure(7, view, open_bin, True)
        assert restored.registry.to_json() == obs.registry.to_json()
