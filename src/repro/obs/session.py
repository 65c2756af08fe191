"""One-stop wiring: observers, instrumentation, and artifact export.

:class:`ObservationSession` assembles the pillars of :mod:`repro.obs`
around a single run — a :class:`~repro.obs.observer.MetricsObserver`
feeding a shared deterministic registry, an optional
:class:`~repro.obs.tracing.LifecycleTracer`, an optional wall-clock
:class:`~repro.obs.profiling.Profiler` (own registry, never mixed into
the deterministic one), and the probe-counting algorithm wrapper — then
hands back the observer tuple and instrumented algorithm to feed any
driver (:func:`~repro.core.streaming.simulate_stream`, the cloud
dispatcher, the fault harness).

:func:`observe_stream` is the convenience driver for the common case:
stream a trace with observability on, finish the trace with its summary
trailer, and return ``(summary, session)``.  Checkpoint/resume passes
straight through — the session's observers implement
``checkpoint_state``/``restore_state``, so a resumed run's snapshot and
trace equal the uninterrupted run's.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Callable, Iterable, Mapping, Sequence

from ..algorithms.base import PackingAlgorithm
from ..core.checkpoint import StreamCheckpoint
from ..core.item import Item
from ..core.numeric import Num
from ..core.streaming import StreamSummary, simulate_stream
from ..core.telemetry import SimulationObserver
from .clock import Clock
from .manifest import RunManifest, build_manifest
from .metrics import MetricsRegistry
from .observer import MetricsObserver
from .profiling import Profiler, instrument_algorithm
from .tracing import LifecycleTracer

__all__ = ["ObservationSession", "observe_stream"]


class ObservationSession:
    """Observability wiring for one simulated run.

    Parameters
    ----------
    algorithm:
        The algorithm under observation.  When metrics or profiling are
        on it is wrapped by
        :func:`~repro.obs.profiling.instrument_algorithm`; drive the
        simulation with :attr:`instrumented` (choices are unchanged).
    trace:
        Optional path or text sink for the lifecycle trace.
    metrics:
        Whether to attach a :class:`MetricsObserver` (default on).
    profile:
        Whether to attach a wall-clock :class:`Profiler`.  Its latencies
        live in :attr:`Profiler.registry`, separate from the
        deterministic :attr:`registry`, so metrics snapshots stay
        byte-stable with profiling enabled.
    clock:
        Clock injected into the profiler (tests pass a
        :class:`~repro.obs.clock.ManualClock`).
    seed, workload, extra:
        Optional provenance recorded in the run manifest.
    """

    def __init__(
        self,
        algorithm: PackingAlgorithm,
        *,
        capacity: Num = 1,
        cost_rate: Num = 1,
        trace: str | Path | IO[str] | None = None,
        metrics: bool = True,
        profile: bool = False,
        clock: Clock | None = None,
        log_checkpoints: bool = False,
        registry: MetricsRegistry | None = None,
        seed: int | None = None,
        workload: Mapping[str, Any] | None = None,
        extra: Mapping[str, Any] | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.capacity = capacity
        self.cost_rate = cost_rate
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics: MetricsObserver | None = (
            MetricsObserver(self.registry) if metrics else None
        )
        self.tracer: LifecycleTracer | None = (
            LifecycleTracer(
                trace,
                algorithm=algorithm.name,
                capacity=capacity,
                cost_rate=cost_rate,
                log_checkpoints=log_checkpoints,
            )
            if trace is not None
            else None
        )
        self.profiler: Profiler | None = Profiler(clock=clock) if profile else None
        self.instrumented: PackingAlgorithm = (
            instrument_algorithm(algorithm, self.registry, profiler=self.profiler)
            if metrics or profile
            else algorithm
        )
        self.manifest: RunManifest = build_manifest(
            algorithm=algorithm.name,
            capacity=capacity,
            cost_rate=cost_rate,
            seed=seed,
            workload=workload,
            extra=extra,
        )
        self.summary: StreamSummary | None = None

    @property
    def observers(self) -> tuple[SimulationObserver, ...]:
        """The observer tuple, in a stable order (metrics, then tracer).

        Checkpoints store observer state positionally, so a resumed run
        must attach the same observers in the same order — two sessions
        configured alike always produce the same tuple shape.
        """
        out: list[SimulationObserver] = []
        if self.metrics is not None:
            out.append(self.metrics)
        if self.tracer is not None:
            out.append(self.tracer)
        return tuple(out)

    # ----------------------------------------------------------------- finish

    def finish(self, summary: StreamSummary) -> StreamSummary:
        """Record the run's summary (writes the trace trailer, if tracing)."""
        self.summary = summary
        if self.tracer is not None:
            self.tracer.finish(summary)
        return summary

    # -------------------------------------------------------------- artifacts

    def write_artifacts(self, directory: str | Path) -> dict[str, Path]:
        """Write the export set; returns ``{artifact_name: path}``.

        Deterministic artifacts: ``metrics.json`` (byte-stable snapshot),
        ``metrics.prom`` (Prometheus text format), ``manifest.json``.
        With profiling on, the non-deterministic wall-clock report lands
        separately in ``profile.json``.
        """
        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        written: dict[str, Path] = {}
        written["manifest"] = _write(out / "manifest.json", self.manifest.to_json() + "\n")
        written["metrics_json"] = _write(out / "metrics.json", self.registry.to_json() + "\n")
        written["metrics_prom"] = _write(out / "metrics.prom", self.registry.to_prometheus())
        if self.profiler is not None:
            import json

            report = json.dumps(
                self.profiler.report(), sort_keys=True, separators=(",", ":")
            )
            written["profile"] = _write(out / "profile.json", report + "\n")
        return written


def _write(path: Path, content: str) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(content)
    return path


def observe_stream(
    items: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    capacity: Num = 1,
    cost_rate: Num = 1,
    indexed: bool = True,
    trace: str | Path | IO[str] | None = None,
    metrics: bool = True,
    profile: bool = False,
    clock: Clock | None = None,
    log_checkpoints: bool = False,
    registry: MetricsRegistry | None = None,
    seed: int | None = None,
    workload: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
    extra_observers: Sequence[SimulationObserver] = (),
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[StreamCheckpoint], None] | None = None,
    resume_from: StreamCheckpoint | None = None,
    session: ObservationSession | None = None,
) -> tuple[StreamSummary, ObservationSession]:
    """Stream a trace with full observability; returns ``(summary, session)``.

    A thin driver over :func:`~repro.core.streaming.simulate_stream`: it
    builds an :class:`ObservationSession` (or reuses the one given — the
    resume path, where the caller restores observer state from a
    checkpoint before the run), attaches its observers plus any
    ``extra_observers``, runs with the instrumented algorithm, and
    finishes the session so the trace carries its summary trailer.  The
    whole run is timed into the profiler's ``event_loop`` phase when
    profiling is on.
    """
    if session is None:
        session = ObservationSession(
            algorithm,
            capacity=capacity,
            cost_rate=cost_rate,
            trace=trace,
            metrics=metrics,
            profile=profile,
            clock=clock,
            log_checkpoints=log_checkpoints,
            registry=registry,
            seed=seed,
            workload=workload,
            extra=extra,
        )
    observers = session.observers + tuple(extra_observers)

    def run() -> StreamSummary:
        return simulate_stream(
            items,
            session.instrumented,
            capacity=capacity,
            cost_rate=cost_rate,
            indexed=indexed,
            observers=observers,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            resume_from=resume_from,
        )

    if session.profiler is not None:
        with session.profiler.time("event_loop"):
            summary = run()
    else:
        summary = run()
    return session.finish(summary), session
