"""The metrics-populating simulation observer.

:class:`MetricsObserver` turns the engine's observer hook stream into the
structured instrument set the MinTotal analysis actually judges algorithms
by: since the objective is the integral of open-bin count over time, the
per-bin signals — lifetime, time-averaged utilization at close, how full
bins were when a failure struck — *are* the cost decomposition.  Everything
is measured in simulation time, so snapshots are deterministic and
byte-stable under a fixed seed (asserted in CI).

The observer reads open time and capacity from each :class:`~repro.core.bin.Bin`
and session sizes and arrivals from the hooks' :class:`~repro.algorithms.base.Arrival`
views, so the only private state it keeps is what nothing else knows: the
registry and, per open bin, the running level-time integral.  It implements
``checkpoint_state``/``restore_state``, so metrics survive a streamed-run
checkpoint/resume exactly: the resumed snapshot equals the uninterrupted
run's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from ..core.numeric import Num
from ..core.resources import Resources, Size
from ..core.telemetry import SimulationObserver
from .metrics import (
    PROBE_BUCKETS,
    SIZE_FRACTION_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..algorithms.base import Arrival
    from ..core.bin import Bin

__all__ = ["MetricsObserver"]


def _share(part: Any, whole: Any) -> Num:
    """``part / whole`` of two sizes; for vectors, the largest per-dimension share."""
    if isinstance(part, Resources):
        return max(p / w for p, w in zip(part, whole))
    return part / whole


class MetricsObserver(SimulationObserver):
    """Populates a :class:`~repro.obs.metrics.MetricsRegistry` from engine hooks.

    Instruments (all simulation-time, all deterministic):

    * ``dbp_sessions_started_total`` / ``dbp_sessions_completed_total`` —
      placements and natural departures.
    * ``dbp_bins_opened_total`` / ``dbp_bins_closed_total`` — bin lifecycle,
      including bins a migration opens or empties (failure revocations are
      counted separately).
    * ``dbp_server_failures_total`` / ``dbp_sessions_evicted_total`` —
      fault activity.
    * ``dbp_rejections_total`` — admission rejections, recorded by the
      dispatch layer via :meth:`record_rejection`.
    * ``dbp_checkpoints_total`` — checkpoint activity; counted inside
      :meth:`checkpoint_state` so resumed runs continue the tally exactly.
    * ``dbp_events_processed_total`` — every observed engine event
      (arrival, departure, or failure); the heartbeat's rate/ETA signal.
    * ``dbp_open_bins`` / ``dbp_active_sessions`` gauges (with peaks) and
      the ``dbp_sim_time`` gauge (last event time).
    * ``dbp_bin_lifetime`` / ``dbp_session_duration`` histograms (sim-time
      durations) and ``dbp_bin_utilization_at_close`` — the bin's
      *time-averaged* fill level over its whole life, the quantity the
      vector-DBP evaluation literature reports.
    * ``dbp_item_size_fraction`` — item size as a fraction of its bin's
      capacity.

    For vector (:class:`~repro.core.resources.Resources`) sizes, a fraction
    of capacity is the largest per-dimension share — the bin's bottleneck.

    Pass a shared registry to co-locate these with profiling counters, or
    let the observer create its own.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._started = r.counter(
            "dbp_sessions_started_total", "Sessions placed into bins"
        )
        self._completed = r.counter(
            "dbp_sessions_completed_total", "Sessions that departed naturally"
        )
        self._rejected = r.counter(
            "dbp_rejections_total", "Sessions rejected at admission"
        )
        self._bins_opened = r.counter("dbp_bins_opened_total", "Bins opened")
        self._bins_closed = r.counter(
            "dbp_bins_closed_total", "Bins closed by their last departure"
        )
        self._failures = r.counter(
            "dbp_server_failures_total", "Bins revoked by server failures"
        )
        self._evicted = r.counter(
            "dbp_sessions_evicted_total", "Active sessions evicted by failures"
        )
        self._checkpoints = r.counter(
            "dbp_checkpoints_total", "Checkpoints captured during the run"
        )
        self._events = r.counter(
            "dbp_events_processed_total",
            "Engine events observed (arrivals, departures, failures)",
        )
        self._open_bins = r.gauge("dbp_open_bins", "Currently open bins")
        self._active = r.gauge("dbp_active_sessions", "Currently active sessions")
        self._sim_time = r.gauge("dbp_sim_time", "Simulation time of the last event")
        self._bin_lifetime = r.histogram(
            "dbp_bin_lifetime",
            "Bin open-to-close duration (simulation time)",
            buckets=TIME_BUCKETS,
        )
        self._session_duration = r.histogram(
            "dbp_session_duration",
            "Session arrival-to-departure duration (simulation time)",
            buckets=TIME_BUCKETS,
        )
        self._utilization = r.histogram(
            "dbp_bin_utilization_at_close",
            "Time-averaged bin fill level over its lifetime, at close",
            buckets=SIZE_FRACTION_BUCKETS,
        )
        self._item_size = r.histogram(
            "dbp_item_size_fraction",
            "Item size as a fraction of its bin's capacity",
            buckets=SIZE_FRACTION_BUCKETS,
        )
        # declared here so the registry layout is complete (and byte-stable)
        # even for runs whose algorithm is not instrumented
        r.histogram(
            "dbp_fit_probes",
            "Candidate bins examined per placement decision",
            buckets=PROBE_BUCKETS,
        )
        #: bin.index -> [last_event_time, level_time_integral]; the integral
        #: is a Resources vector when sizes are
        self._bin_stats: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------ hooks

    def on_arrival(self, time: Num, item: "Arrival", bin: "Bin", opened: bool) -> None:
        self._events.inc()
        self._started.inc()
        self._active.inc()
        self._sim_time.set(time)
        if opened:
            self._open_bin(bin.index, time)
        else:
            self._accrue(bin.index, time, bin.level - item.size)
        self._item_size.observe(_share(item.size, bin.capacity))

    def on_departure(self, time: Num, item: "Arrival", bin: "Bin", closed: bool) -> None:
        self._events.inc()
        self._completed.inc()
        self._active.dec()
        self._sim_time.set(time)
        self._session_duration.observe(time - item.arrival)
        # the bin is observed after removal
        self._accrue(bin.index, time, bin.level + item.size)
        if closed:
            self._bins_closed.inc()
            self._close_bin(bin)

    def on_server_failure(
        self, time: Num, bin: "Bin", evicted: Sequence["Arrival"]
    ) -> None:
        self._events.inc()
        self._failures.inc()
        self._evicted.inc(len(evicted))
        self._active.dec(len(evicted))
        self._sim_time.set(time)
        level_before: Size = 0
        for view in evicted:
            level_before = level_before + view.size
        self._accrue(bin.index, time, level_before)
        self._close_bin(bin)

    def on_migration(
        self,
        time: Num,
        item: "Arrival",
        from_bin: "Bin",
        to_bin: "Bin",
        from_closed: bool,
        to_opened: bool,
    ) -> None:
        # Not a session start or end, and not an engine event: only the
        # two bins' lifecycles and level integrals move.
        self._accrue(from_bin.index, time, from_bin.level + item.size)
        if from_closed:
            self._bins_closed.inc()
            self._close_bin(from_bin)
        if to_opened:
            self._open_bin(to_bin.index, time)
        else:
            self._accrue(to_bin.index, time, to_bin.level - item.size)

    def _open_bin(self, index: int, time: Num) -> None:
        self._bins_opened.inc()
        self._open_bins.inc()
        self._bin_stats[index] = [time, 0.0]

    def _accrue(self, index: int, time: Num, level_before: Size) -> None:
        """Add ``level_before`` held since the bin's last event to its integral."""
        stats = self._bin_stats[index]
        stats[1] = stats[1] + level_before * (time - stats[0])
        stats[0] = time

    def _close_bin(self, bin: "Bin") -> None:
        self._open_bins.dec()
        level_time = self._bin_stats.pop(bin.index)[1]
        lifetime = bin.usage_length
        self._bin_lifetime.observe(lifetime)
        if lifetime > 0:
            self._utilization.observe(_share(level_time, bin.capacity * lifetime))

    # ---------------------------------------------------------------- extras

    def record_rejection(self, count: int = 1) -> None:
        """Count admission rejections (called by dispatch/fleet layers)."""
        self._rejected.inc(count)

    def snapshot(self) -> dict[str, Any]:
        """Shorthand for ``self.registry.snapshot()``."""
        return self.registry.snapshot()

    # ----------------------------------------------------------- checkpointing

    def checkpoint_state(self) -> dict[str, Any]:
        """Snapshot the registry and the open bins' level integrals — and count it.

        The checkpoint counter is incremented *here*, before the state is
        rendered, so an interrupted-then-resumed run ends with exactly the
        same ``dbp_checkpoints_total`` as the uninterrupted run: resuming
        from checkpoint ``k`` restores a tally of ``k`` and the resumed run
        captures the remaining checkpoints itself.
        """
        self._checkpoints.inc()
        return {
            "registry": self.registry.checkpoint_state(),
            "bin_stats": {str(k): list(v) for k, v in self._bin_stats.items()},
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.registry.restore_state(state["registry"])
        self._bin_stats = {int(k): list(v) for k, v in state["bin_stats"].items()}
