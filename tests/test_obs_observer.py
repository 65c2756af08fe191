"""Tests for `repro.obs.observer.MetricsObserver` against the engine."""

import json

from repro import FirstFit, Item, Resources, Simulator, make_items, simulate
from repro.core.streaming import simulate_stream
from repro.obs import MetricsObserver, MetricsRegistry
from repro.workloads import Clipped, Exponential, Uniform
from repro.workloads.generators import stream_trace


def small_stream(n=300, seed=5):
    return stream_trace(
        arrival_rate=4.0,
        duration=Clipped(Exponential(20.0), 2.0, 80.0),
        size=Uniform(0.2, 0.6),
        n_items=n,
        seed=seed,
    )


class TestLifecycleCounters:
    def test_counters_agree_with_stream_summary(self):
        obs = MetricsObserver()
        summary = simulate_stream(small_stream(), FirstFit(), observers=[obs])
        reg = obs.registry
        assert reg["dbp_sessions_started_total"].value == summary.num_items
        assert reg["dbp_sessions_completed_total"].value == summary.num_items
        assert reg["dbp_bins_opened_total"].value == summary.num_bins_used
        assert reg["dbp_bins_closed_total"].value == summary.num_bins_used
        assert reg["dbp_open_bins"].peak == summary.peak_open_bins
        assert reg["dbp_open_bins"].value == 0
        assert reg["dbp_active_sessions"].value == 0
        assert reg["dbp_sim_time"].value == summary.end_time

    def test_bin_lifetimes_sum_to_total_bin_time(self):
        obs = MetricsObserver()
        summary = simulate_stream(small_stream(), FirstFit(), observers=[obs])
        lifetimes = obs.registry["dbp_bin_lifetime"]
        assert lifetimes.count == summary.num_bins_used
        # Same addends, possibly different order: tolerance, not equality.
        assert abs(lifetimes.sum - summary.total_bin_time) < 1e-6

    def test_probe_histogram_is_predeclared_for_stable_layout(self):
        with_probes = MetricsObserver()
        assert "dbp_fit_probes" in with_probes.registry
        assert with_probes.registry["dbp_fit_probes"].count == 0


class TestUtilization:
    def test_single_item_bin_utilization_is_its_size(self):
        obs = MetricsObserver()
        simulate(make_items([(0, 10, 0.5)]), FirstFit(), observers=[obs])
        util = obs.registry["dbp_bin_utilization_at_close"]
        assert util.count == 1
        assert util.sum == 0.5

    def test_piecewise_level_integral(self):
        # level 0.5 on [0,4), 0.8 on [4,6), 0.3 on [6,10) -> mean 0.48
        items = make_items([(0, 10, 0.5), (4, 6, 0.3)], prefix="u")
        obs = MetricsObserver()
        simulate(items, FirstFit(), observers=[obs])
        util = obs.registry["dbp_bin_utilization_at_close"]
        assert util.count == 1
        assert util.sum == (0.5 * 4 + 0.8 * 2 + 0.5 * 4) / 10

    def test_zero_lifetime_bin_skips_utilization(self):
        # A bin revoked at its own opening instant has no lifetime to
        # average over; it must not observe a utilization sample.
        obs = MetricsObserver()
        sim = Simulator(FirstFit(), record=False, observers=[obs])
        sim.arrive(5, 0.4, item_id="z")
        sim.fail_bin(sim.open_bins[0], 5)
        assert obs.registry["dbp_bin_lifetime"].count == 1
        assert obs.registry["dbp_bin_lifetime"].sum == 0
        assert obs.registry["dbp_bin_utilization_at_close"].count == 0

    def test_vector_shares_are_the_bottleneck_dimension(self):
        # A 2-D bin holding (0.2, 0.6) throughout: the fuller dimension sets
        # both the item's size fraction and the bin's utilization.
        item = Item(arrival=0, departure=4, size=Resources(0.2, 0.6), item_id="v")
        obs = MetricsObserver()
        simulate([item], FirstFit(), capacity=Resources(1, 1), observers=[obs])
        assert obs.registry["dbp_item_size_fraction"].sum == 0.6
        assert obs.registry["dbp_bin_utilization_at_close"].sum == 0.6

    def test_session_durations_and_size_fractions(self):
        obs = MetricsObserver()
        simulate(make_items([(0, 7, 0.25), (1, 3, 0.5)]), FirstFit(), observers=[obs])
        assert obs.registry["dbp_session_duration"].sum == 9  # 7 + 2
        assert obs.registry["dbp_item_size_fraction"].sum == 0.75


class TestFailures:
    def _failed_run(self):
        obs = MetricsObserver()
        sim = Simulator(FirstFit(), observers=[obs])
        sim.arrive(0, 0.5, item_id="a")
        sim.arrive(1, 0.3, item_id="b")
        evicted = sim.fail_bin(sim.open_bins[0], 5)
        return obs, evicted

    def test_failure_counts_and_gauges(self):
        obs, evicted = self._failed_run()
        reg = obs.registry
        assert len(evicted) == 2
        assert reg["dbp_server_failures_total"].value == 1
        assert reg["dbp_sessions_evicted_total"].value == 2
        assert reg["dbp_bins_closed_total"].value == 0  # failure != drain close
        assert reg["dbp_open_bins"].value == 0
        assert reg["dbp_active_sessions"].value == 0

    def test_failed_bin_still_contributes_lifetime_and_utilization(self):
        obs, _ = self._failed_run()
        reg = obs.registry
        assert reg["dbp_bin_lifetime"].sum == 5
        # level 0.5 on [0,1), 0.8 on [1,5) -> integral 3.7 over lifetime 5
        assert reg["dbp_bin_utilization_at_close"].sum == (0.5 * 1 + 0.8 * 4) / 5

    def test_evicted_sessions_do_not_count_as_completed(self):
        obs, _ = self._failed_run()
        assert obs.registry["dbp_sessions_completed_total"].value == 0
        assert obs.registry["dbp_session_duration"].count == 0


class TestExtras:
    def test_record_rejection(self):
        obs = MetricsObserver()
        obs.record_rejection()
        obs.record_rejection(3)
        assert obs.registry["dbp_rejections_total"].value == 4

    def test_shared_registry(self):
        reg = MetricsRegistry()
        obs = MetricsObserver(reg)
        assert obs.registry is reg
        assert "dbp_open_bins" in reg

    def test_snapshot_shorthand(self):
        obs = MetricsObserver()
        assert obs.snapshot() == obs.registry.snapshot()


class TestCheckpointing:
    def test_checkpoint_counts_itself_for_resume_parity(self):
        obs = MetricsObserver()
        state = obs.checkpoint_state()
        # The tally was bumped *before* the registry snapshot was taken.
        assert state["registry"]["dbp_checkpoints_total"]["value"] == 1
        assert obs.registry["dbp_checkpoints_total"].value == 1

    def test_restore_round_trips_through_json(self):
        obs = MetricsObserver()
        sim = Simulator(FirstFit(), observers=[obs])
        sim.arrive(0, 0.5, item_id="a")
        sim.arrive(2, 0.3, item_id="b")
        state = json.loads(json.dumps(obs.checkpoint_state()))

        fresh = MetricsObserver()
        fresh.restore_state(state)
        assert fresh.registry.to_json() == obs.registry.to_json()
        assert fresh._bin_stats == obs._bin_stats

    def test_resumed_stream_ends_with_identical_snapshot(self):
        """The headline contract: resume mid-stream, end byte-identical."""
        checkpoints = []
        straight = MetricsObserver()
        simulate_stream(
            small_stream(n=120, seed=9),
            FirstFit(),
            observers=[straight],
            checkpoint_every=60,
            on_checkpoint=checkpoints.append,
        )
        assert len(checkpoints) >= 2
        cp = checkpoints[1]

        resumed = MetricsObserver()
        simulate_stream(
            small_stream(n=120, seed=9),
            FirstFit(),
            observers=[resumed],
            checkpoint_every=60,
            on_checkpoint=lambda _c: None,
            resume_from=cp,
        )
        assert resumed.registry.to_json() == straight.registry.to_json()
        assert (
            resumed.registry["dbp_checkpoints_total"].value
            == straight.registry["dbp_checkpoints_total"].value
        )
