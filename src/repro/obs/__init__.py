"""repro.obs — structured observability for the streaming engine.

Three pillars, layered strictly *above* the engine (the engine never
imports this package, and lint rule DBP002 keeps it wall-clock-free):

* :mod:`repro.obs.metrics` — a deterministic metrics registry
  (counters, gauges, fixed-bucket histograms) with byte-stable JSON and
  Prometheus text exports, populated from engine hooks by
  :class:`~repro.obs.observer.MetricsObserver`.
* :mod:`repro.obs.tracing` — span-structured lifecycle traces (one span
  per bin life, one per session, parent-linked) as streaming JSONL, with
  an exact replay verifier that reconstructs the run's
  :class:`~repro.core.streaming.StreamSummary` from the file alone.
* :mod:`repro.obs.profiling` — injectable-clock wall-time profiling of
  hot paths plus deterministic fit-probe counting via a transparent
  algorithm wrapper.

:class:`~repro.obs.session.ObservationSession` /
:func:`~repro.obs.session.observe_stream` wire all three around a run and
export the artifact set (metrics snapshot, Prometheus text, run
manifest, trace, profile report).

The live observability plane builds on the same pillars without touching
them: :mod:`repro.obs.live` serves published registry snapshots over
HTTP beside a running simulation, and :mod:`repro.obs.flight` keeps a
bounded flight recorder so crashed runs leave a post-mortem.
"""

from .clock import Clock, ManualClock, MonotonicClock
from .flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightObserver,
    FlightRecorder,
    install_signal_dump,
    iter_flight_records,
)
from .live import Heartbeat, LiveExportObserver, LiveMetricsServer, scrape
from .manifest import RunManifest, build_chaos_manifest, build_manifest
from .metrics import (
    LATENCY_SECONDS_BUCKETS,
    PROBE_BUCKETS,
    SIZE_FRACTION_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from .observer import MetricsObserver
from .profiling import InstrumentedAlgorithm, Profiler, instrument_algorithm
from .session import ObservationSession, observe_stream
from .tracing import (
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
    LifecycleTracer,
    TraceReplayError,
    iter_trace_records,
    replay_summary,
    verify_trace,
)

__all__ = [
    # clocks
    "Clock",
    "ManualClock",
    "MonotonicClock",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "MetricsObserver",
    "SIZE_FRACTION_BUCKETS",
    "TIME_BUCKETS",
    "LATENCY_SECONDS_BUCKETS",
    "PROBE_BUCKETS",
    # tracing
    "TRACE_SCHEMA_VERSION",
    "JsonlTraceWriter",
    "LifecycleTracer",
    "TraceReplayError",
    "iter_trace_records",
    "replay_summary",
    "verify_trace",
    # profiling
    "InstrumentedAlgorithm",
    "Profiler",
    "instrument_algorithm",
    # manifest + session
    "RunManifest",
    "build_chaos_manifest",
    "build_manifest",
    "ObservationSession",
    "observe_stream",
    # live plane
    "Heartbeat",
    "LiveExportObserver",
    "LiveMetricsServer",
    "scrape",
    # flight recorder
    "FLIGHT_SCHEMA_VERSION",
    "FlightObserver",
    "FlightRecorder",
    "install_signal_dump",
    "iter_flight_records",
]
