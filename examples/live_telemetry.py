#!/usr/bin/env python
"""Operating a dispatcher live: structured observability under a flash crowd.

Feeds a bursty MMPP day through the streaming engine with the full
``repro.obs`` stack attached — a deterministic metrics registry populated
by :class:`MetricsObserver`, a lifecycle tracer writing span-structured
JSONL, and an hourly "ops dashboard" observer that reads the registry's
gauges mid-run, the way a wall monitor would.  At the end the live
counters are reconciled against the engine's own summary, and the trace
file alone is replayed to reconstruct that summary exactly.

Run:  python examples/live_telemetry.py
"""

import io

from repro import FirstFit
from repro.core.telemetry import SimulationObserver
from repro.obs import MetricsRegistry, observe_stream, replay_summary
from repro.workloads import Clipped, Exponential, Uniform, generate_mmpp_trace

trace = generate_mmpp_trace(
    rates=(0.3, 6.0),          # quiet periods vs launch-night spikes
    mean_dwell=40.0,
    horizon=480.0,             # an 8-hour evening, minutes
    duration=Clipped(Exponential(30.0), 5.0, 120.0),
    size=Uniform(0.15, 0.55),
    seed=3,
)
print(f"{len(trace)} sessions over 8h, mu = {float(trace.mu):.2f}\n")


class HourlyDashboard(SimulationObserver):
    """Prints a fleet snapshot each simulated hour, straight off the registry.

    This is the point of the shared registry: any observer (or an exporter
    thread, in production) can read the same gauges the metrics observer
    maintains, without touching engine state.
    """

    def __init__(self, registry: MetricsRegistry, checkpoints: list[float]) -> None:
        self.registry = registry
        self.pending = list(checkpoints)

    def _tick(self, time) -> None:
        while self.pending and time > self.pending[0]:
            t = self.pending.pop(0)
            reg = self.registry
            print(
                f"{t:6.0f}"
                f"  {int(reg['dbp_active_sessions'].value):6d}"
                f"  {int(reg['dbp_open_bins'].value):7d}"
                f"  {int(reg['dbp_open_bins'].peak):5d}"
                f"  {int(reg['dbp_bins_opened_total'].value):7d}"
            )

    def on_arrival(self, time, item, bin, opened) -> None:
        self._tick(time)

    def on_departure(self, time, item, bin, closed) -> None:
        self._tick(time)


registry = MetricsRegistry()
dashboard = HourlyDashboard(registry, [60.0 * h for h in range(1, 9)])
trace_sink = io.StringIO()

print(f"{'time':>6}  {'active':>6}  {'servers':>7}  {'peak':>5}  {'rented':>7}")
summary, session = observe_stream(
    sorted(trace.items, key=lambda it: (it.arrival, it.item_id)),
    FirstFit(),
    trace=trace_sink,
    registry=registry,
    seed=3,
    workload={"generator": "mmpp", "horizon": 480.0},
    extra_observers=(dashboard,),
)

print(
    f"\nfinal: {summary.num_bins_used} servers rented, "
    f"peak {summary.peak_open_bins}, cost {float(summary.total_cost):.1f}"
)

# The registry's counters are maintained event by event, yet agree exactly
# with the engine's post-hoc summary — same events, same arithmetic.
assert registry["dbp_sessions_started_total"].value == summary.num_items
assert registry["dbp_bins_opened_total"].value == summary.num_bins_used
assert registry["dbp_open_bins"].peak == summary.peak_open_bins
print("live registry reconciles with the settled summary (exact).")

# Stronger still: the JSONL trace alone — no engine, no registry —
# replays to the identical StreamSummary, floats included.
replayed, recorded = replay_summary(trace_sink.getvalue().splitlines())
assert replayed == summary and recorded == summary
lines = trace_sink.getvalue().count("\n")
print(f"lifecycle trace ({lines} records) replays the summary exactly.\n")

# A taste of the exporter: the registry renders straight to Prometheus
# text format (and to byte-stable JSON via registry.to_json()).
prom = registry.to_prometheus()
for line in prom.splitlines():
    if line.startswith(("dbp_open_bins", "dbp_sessions_", "dbp_bins_")):
        print(line)
