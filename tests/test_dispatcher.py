"""Tests for the cloud dispatch substrate."""

import pytest

from repro import BestFit, FirstFit, NewBinPerItem, NextFit, SimulationError
from repro.cloud import CloudGamingDispatcher, ServerType, dispatch_trace
from repro.opt.lower_bounds import opt_total_lower_bound


class TestServerType:
    def test_models(self):
        st = ServerType(rate=2.0, billing_quantum=60.0)
        assert st.continuous_model().bin_cost(30) == 60
        assert st.billed_model().bin_cost(61) == 2 * 120

    def test_no_quantum_falls_back_to_continuous(self):
        st = ServerType(billing_quantum=None)
        assert st.billed_model().bin_cost(31.5) == 31.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerType(gpu_capacity=0)
        with pytest.raises(ValueError):
            ServerType(rate=0)
        with pytest.raises(ValueError):
            ServerType(billing_quantum=0)


class TestDispatcherLifecycle:
    def test_sessions_share_server(self):
        d = CloudGamingDispatcher(FirstFit())
        s1 = d.start_session(0.0, gpu_demand=0.5, request_id="alice")
        s2 = d.start_session(1.0, gpu_demand=0.5, request_id="bob")
        assert s1 == s2 == 0
        assert d.active_sessions == 2
        assert d.servers_in_use == 1
        d.end_session("alice", 10.0)
        d.end_session("bob", 12.0)
        report = d.shutdown()
        assert report.num_servers_rented == 1
        assert report.continuous_cost == 12.0
        assert report.num_sessions == 2

    def test_overflow_opens_server(self):
        d = CloudGamingDispatcher(FirstFit())
        d.start_session(0.0, gpu_demand=0.7, request_id="a")
        assert d.start_session(0.0, gpu_demand=0.7, request_id="b") == 1
        d.end_session("a", 1.0)
        d.end_session("b", 1.0)
        rep = d.shutdown()
        assert rep.peak_concurrent_servers == 2

    def test_shutdown_with_live_sessions_rejected(self):
        d = CloudGamingDispatcher(FirstFit())
        d.start_session(0.0, gpu_demand=0.5, request_id="a")
        with pytest.raises(SimulationError):
            d.shutdown()


class TestDispatchTrace:
    def test_report_fields(self, gaming_trace):
        rep = dispatch_trace(gaming_trace, FirstFit())
        assert rep.algorithm_name == "first-fit"
        assert rep.num_sessions == len(gaming_trace)
        assert rep.billed_cost >= rep.continuous_cost
        assert 0 < rep.utilization <= 1
        assert rep.cost_per_session > 0
        row = rep.summary_row()
        assert set(row) == {
            "algorithm",
            "servers",
            "peak",
            "server-time",
            "cost(cont)",
            "cost(billed)",
            "util",
        }

    def test_first_fit_beats_naive(self, gaming_trace):
        ff = dispatch_trace(gaming_trace, FirstFit())
        naive = dispatch_trace(gaming_trace, NewBinPerItem())
        assert ff.continuous_cost < naive.continuous_cost
        assert ff.num_servers_rented < naive.num_servers_rented

    def test_gaming_day_ranking(self, gaming_trace_day):
        reports = {
            algo.name: dispatch_trace(gaming_trace_day, algo)
            for algo in (FirstFit(), BestFit(), NextFit(), NewBinPerItem())
        }
        ff = reports["first-fit"]
        assert ff.continuous_cost < 0.8 * reports["new-bin-per-item"].continuous_cost
        assert ff.billed_cost >= ff.continuous_cost
        assert ff.continuous_cost >= opt_total_lower_bound(gaming_trace_day.items)
        # Consolidating policies beat the non-consolidating baselines.
        costs = {name: float(rep.continuous_cost) for name, rep in reports.items()}
        assert costs["first-fit"] < costs["next-fit"] < costs["new-bin-per-item"]
        assert costs["best-fit"] < costs["new-bin-per-item"]

    def test_custom_server_type_scales_costs(self, gaming_trace):
        cheap = dispatch_trace(gaming_trace, FirstFit(), server_type=ServerType(rate=1.0))
        pricey = dispatch_trace(gaming_trace, FirstFit(), server_type=ServerType(rate=3.0))
        assert pricey.continuous_cost == pytest.approx(3 * cheap.continuous_cost)

    def test_bigger_servers_cut_server_count(self, gaming_trace):
        small = dispatch_trace(gaming_trace, FirstFit(), server_type=ServerType(gpu_capacity=1.0))
        big = dispatch_trace(gaming_trace, FirstFit(), server_type=ServerType(gpu_capacity=2.0))
        assert big.peak_concurrent_servers <= small.peak_concurrent_servers


class TestBillingSettlement:
    """Every rented server is billed exactly once, end of run included."""

    def test_stream_meter_settles_every_server(self, gaming_trace):
        from repro.cloud.dispatcher import _BillingMeter
        from repro.core.streaming import simulate_stream

        server_type = ServerType()
        meter = _BillingMeter(server_type.billed_model())
        summary = simulate_stream(
            iter(sorted(gaming_trace.items, key=lambda it: it.arrival)),
            FirstFit(),
            capacity=server_type.gpu_capacity,
            cost_rate=server_type.rate,
            observers=(meter,),
        )
        assert meter.servers_billed == summary.num_bins_used
        assert float(meter.billed) >= float(summary.total_cost)

    def test_stream_report_matches_trace_dispatch(self, gaming_trace):
        from repro.cloud import dispatch_stream

        stream_report = dispatch_stream(
            iter(sorted(gaming_trace.items, key=lambda it: it.arrival)), FirstFit()
        )
        trace_report = dispatch_trace(gaming_trace, FirstFit())
        assert stream_report.num_servers_rented == trace_report.num_servers_rented
        assert float(stream_report.billed_cost) == float(trace_report.billed_cost)

    def test_failed_servers_settle_at_revocation(self):
        from repro.cloud import FaultInjector, dispatch_faulty_stream
        from repro.cloud.dispatcher import _BillingMeter
        from repro.cloud.faults import simulate_faulty_stream
        from repro.workloads import Clipped, Exponential, Uniform, stream_trace

        def sessions():
            return stream_trace(
                arrival_rate=4.0,
                duration=Clipped(Exponential(6.0), 1.0, 20.0),
                size=Uniform(0.1, 0.6),
                n_items=500,
                seed=2,
            )

        server_type = ServerType()
        meter = _BillingMeter(server_type.billed_model())
        result = simulate_faulty_stream(
            sessions(),
            FirstFit(),
            injector=FaultInjector(rate=0.05, seed=5),
            capacity=server_type.gpu_capacity,
            cost_rate=server_type.rate,
            observers=(meter,),
        )
        assert result.report.num_failures > 0
        # settlements = servers closed by departures + servers revoked
        assert meter.servers_billed == result.summary.num_bins_used
