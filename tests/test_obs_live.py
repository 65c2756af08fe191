"""Tests for the live observability plane (`repro.obs.live`).

Covers the HTTP surface (routes, readiness, point-in-time snapshots), the
deterministic heartbeat, and the end-to-end guarantee that a mid-run
scrape is well-formed while the *final* scrape byte-equals the
``metrics.prom`` artifact.
"""

from __future__ import annotations

import io

import pytest

from repro import FirstFit
from repro.obs import (
    Heartbeat,
    LiveExportObserver,
    LiveMetricsServer,
    ManualClock,
    MetricsRegistry,
    observe_stream,
    scrape,
)
from repro.workloads import Clipped, Exponential, Uniform
from repro.workloads.generators import stream_trace

WORKLOAD = dict(
    arrival_rate=5.0,
    duration=Clipped(Exponential(20.0), 3.0, 70.0),
    size=Uniform(0.2, 0.6),
    n_items=150,
    seed=29,
)


def fresh_stream():
    return stream_trace(**WORKLOAD)


# ------------------------------------------------------------------- server


class TestLiveMetricsServer:
    def test_routes_serve_published_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter").inc(3)
        with LiveMetricsServer() as server:
            assert scrape(server.port, "/healthz") == b"ok\n"
            server.publish_registry(registry)
            assert scrape(server.port, "/readyz") == b"ready\n"
            assert scrape(server.port, "/metrics").decode() == registry.to_prometheus()
            assert (
                scrape(server.port, "/snapshot.json").decode()
                == registry.to_json() + "\n"
            )

    def test_not_ready_until_first_publish(self):
        with LiveMetricsServer() as server:
            assert scrape(server.port, "/healthz") == b"ok\n"
            for path in ("/readyz", "/metrics", "/snapshot.json"):
                with pytest.raises(ConnectionError, match="503"):
                    scrape(server.port, path)
            server.publish_registry(MetricsRegistry())
            assert scrape(server.port, "/readyz") == b"ready\n"

    def test_unknown_route_is_404(self):
        with LiveMetricsServer() as server:
            with pytest.raises(ConnectionError, match="404"):
                scrape(server.port, "/nope")

    def test_snapshot_is_point_in_time(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(1)
        with LiveMetricsServer() as server:
            server.publish_registry(registry)
            counter.inc(41)  # not republished: scrape sees the old point
            assert b"c_total 1\n" in scrape(server.port, "/metrics")
            server.publish_registry(registry)
            assert b"c_total 42\n" in scrape(server.port, "/metrics")

    def test_ephemeral_port_and_url(self):
        with LiveMetricsServer() as server:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"


# ---------------------------------------------------------------- heartbeat


class TestHeartbeat:
    def test_interval_gating_with_manual_clock(self):
        out = io.StringIO()
        beat = Heartbeat(
            out, clock=ManualClock(0.0, tick=3.0), interval=5.0,
            total_items=10, label="run",
        )
        emitted = [
            beat.beat(events=e, open_bins=2, placed=p)
            for e, p in [(1, 1), (2, 2), (3, 3), (4, 4)]
        ]
        # t=0 arms, t=3 below interval, t=6 fires, t=9 below again.
        assert emitted == [False, False, True, False]
        assert beat.beats == 1
        # elapsed 6s for 3/10 placed -> eta = 6 * 7/3 = 14.0s
        assert out.getvalue() == "run: events=3 open_bins=2 placed=3/10 eta=14.0s\n"

    def test_force_emits_immediately_and_without_total(self):
        out = io.StringIO()
        beat = Heartbeat(out, clock=ManualClock(0.0, tick=1.0), label="x")
        assert beat.beat(events=7, open_bins=1, placed=7, force=True)
        assert out.getvalue() == "x: events=7 open_bins=1 placed=7\n"


# ------------------------------------------------------- end-to-end scraping


class TestLiveDispatchEndToEnd:
    def test_mid_run_scrape_and_final_byte_equality(self, tmp_path):
        registry = MetricsRegistry()
        with LiveMetricsServer() as server:
            live = LiveExportObserver(registry, server, publish_every=40)
            mid_run: list[bytes] = []

            def items():
                for index, item in enumerate(fresh_stream()):
                    if index == 100:  # scrape while the run is in flight
                        mid_run.append(scrape(server.port, "/metrics"))
                        mid_run.append(scrape(server.port, "/snapshot.json"))
                    yield item

            summary, session = observe_stream(
                items(),
                FirstFit(),
                registry=registry,
                extra_observers=(live,),
            )
            live.publish()
            final = scrape(server.port, "/metrics")
            final_json = scrape(server.port, "/snapshot.json")
        assert summary.num_items == WORKLOAD["n_items"]
        # The mid-run scrape saw a consistent, well-formed snapshot...
        assert mid_run and mid_run[0].startswith(b"# HELP")
        assert b"dbp_events_processed_total" in mid_run[0]
        # ...and the final scrape byte-equals the exported artifacts.
        written = session.write_artifacts(tmp_path)
        assert final == written["metrics_prom"].read_bytes()
        assert final_json == written["metrics_json"].read_bytes()
        assert final != mid_run[0]  # the run really advanced in between

    def test_live_observer_does_not_change_deterministic_artifacts(self):
        plain_summary, plain_session = observe_stream(fresh_stream(), FirstFit())
        registry = MetricsRegistry()
        with LiveMetricsServer() as server:
            live = LiveExportObserver(registry, server, publish_every=25)
            live_summary, live_session = observe_stream(
                fresh_stream(), FirstFit(), registry=registry,
                extra_observers=(live,),
            )
        assert live_summary == plain_summary
        assert live_session.registry.to_prometheus() == (
            plain_session.registry.to_prometheus()
        )

    def test_publish_every_validation(self):
        with pytest.raises(ValueError, match="publish_every"):
            LiveExportObserver(MetricsRegistry(), publish_every=0)
