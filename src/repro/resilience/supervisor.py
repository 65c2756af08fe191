"""Crash supervision for streamed runs: persist, die, resume, converge.

The recovery half of the resilience layer.  A supervised run drives the
ordinary streaming engine while shipping every checkpoint into a durable
:class:`~repro.resilience.store.CheckpointStore`; when the run dies — a
real exception or an injected chaos crash — the supervisor restarts it
from the newest *verifiable* generation (corrupt generations are skipped,
and counted, never silently restored).

The differential guarantee, asserted by the test suite and the chaos
campaign: because the engine is deterministic and checkpoints are exact
(bit-for-bit floats, tagged ``Fraction``/``Resources`` values), a run
killed at **any** point and resumed here produces a
:class:`~repro.core.streaming.StreamSummary` — and, for dispatch, a
billed cost — float-identical to the uninterrupted run.  Crash recovery
is invisible in the results; only :class:`RecoveryStats` shows it
happened.

Two entry points:

* :func:`supervised_stream` — the core engine
  (:func:`~repro.core.streaming.simulate_stream`): scalar, exact-rational
  and vector runs alike.
* :func:`supervised_dispatch_stream` — the cloud dispatch facade
  (:func:`~repro.cloud.dispatcher.dispatch_stream`), whose billing meter
  state rides inside each checkpoint so settlement never double-bills
  across a crash.

Sources and algorithms are passed as *factories*: each attempt needs a
fresh iterator over the same stream and a fresh algorithm instance, the
same contract checkpoint resume already imposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..core.numeric import Num
from ..algorithms.base import PackingAlgorithm
from ..cloud.dispatcher import ServerType, StreamDispatchReport, dispatch_stream
from ..core.checkpoint import StreamCheckpoint
from ..core.item import Item
from ..core.resources import Size
from ..core.streaming import StreamSummary, simulate_stream
from ..core.telemetry import SimulationObserver
from ..core.validation import CheckpointFormatError
from ..obs.flight import FlightRecorder
from .store import CheckpointStore

__all__ = [
    "RecoveryExhaustedError",
    "RecoveryStats",
    "SupervisedStreamResult",
    "SupervisedDispatchReport",
    "supervised_stream",
    "supervised_dispatch_stream",
]

_R = TypeVar("_R")

#: ``checkpoint_hook(generation, checkpoint)`` — called after each durable
#: save; raising from it crashes the attempt (chaos injection point).
CheckpointHook = Callable[[int, StreamCheckpoint], None]


class RecoveryExhaustedError(RuntimeError):
    """The supervised run kept crashing past ``max_restarts``.

    The final attempt's exception is chained as ``__cause__``.
    """

    def __init__(self, crashes: int, last_error: BaseException) -> None:
        super().__init__(
            f"supervised run crashed {crashes} times (max_restarts exceeded); "
            f"last error: {type(last_error).__name__}: {last_error}"
        )
        self.crashes = crashes
        self.last_error = last_error


@dataclass(frozen=True, slots=True)
class RecoveryStats:
    """What supervision did — all invisible in the run's results."""

    #: Attempts that died and were restarted.
    crashes: int
    #: Generations persisted across all attempts.
    checkpoints_written: int
    #: Generation each resuming attempt restarted from, in attempt order.
    resumed_generations: tuple[int, ...]
    #: Corrupt generations skipped by verified fallback across all resumes:
    #: those failing verification, and those that verified but could not
    #: be restored.
    corrupt_generations_skipped: int


@dataclass(frozen=True, slots=True)
class SupervisedStreamResult:
    """A supervised core-engine run: the exact summary plus recovery stats."""

    summary: StreamSummary
    stats: RecoveryStats


@dataclass(frozen=True, slots=True)
class SupervisedDispatchReport:
    """A supervised dispatch: the exact billing report plus recovery stats."""

    report: StreamDispatchReport
    stats: RecoveryStats


def _publish_metrics(metrics: Any, stats: RecoveryStats) -> None:
    metrics.counter(
        "dbp_resilience_restarts_total", "supervised attempts restarted after a crash"
    ).inc(stats.crashes)
    metrics.counter(
        "dbp_resilience_checkpoints_total", "checkpoint generations persisted"
    ).inc(stats.checkpoints_written)
    metrics.counter(
        "dbp_resilience_corrupt_generations_total",
        "corrupt checkpoint generations detected and skipped on resume",
    ).inc(stats.corrupt_generations_skipped)


def _supervise(
    run_attempt: Callable[
        [StreamCheckpoint | None, Callable[[StreamCheckpoint], None]], _R
    ],
    *,
    store: CheckpointStore,
    max_restarts: int,
    recover_on: tuple[type[BaseException], ...],
    checkpoint_hook: CheckpointHook | None,
    metrics: Any,
    flight: FlightRecorder | None = None,
) -> tuple[_R, RecoveryStats]:
    """The restart loop shared by both supervised entry points.

    Each attempt resumes from the newest generation that verifies and has
    not failed to restore.  An attempt that resumed from generation ``g``
    and raised :class:`~repro.core.validation.CheckpointFormatError` (its
    payload decoded but some state did not restore) marks ``g`` corrupt,
    whatever ``recover_on`` says: ``g`` counts in
    ``corrupt_generations_skipped``, not in ``crashes`` (no event ran), and
    the next attempt falls back to the newest good generation older than
    ``g``, or starts from scratch.  A mismatched run
    (:class:`~repro.core.checkpoint.CheckpointError`) is not a corrupt
    generation and is handled like any other error.
    """
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    crashes = 0
    written = 0
    corrupt_skipped = 0
    resumed: list[int] = []
    #: Generations that verified but could not be restored.
    unrestorable: set[int] = set()
    while True:
        entry = store.latest_good()
        while entry is not None and entry.generation in unrestorable:
            corrupt_skipped += len(entry.skipped) + 1
            entry = store.latest_good(below=entry.generation)
        resume_from: StreamCheckpoint | None = None
        if entry is not None:
            corrupt_skipped += len(entry.skipped)
            resume_from = entry.checkpoint
            resumed.append(entry.generation)
            if flight is not None:
                flight.note_recovery(entry.generation)

        def sink(checkpoint: StreamCheckpoint) -> None:
            nonlocal written
            generation = store.save(checkpoint)
            written += 1
            if flight is not None:
                flight.note_checkpoint(generation)
            if checkpoint_hook is not None:
                checkpoint_hook(generation, checkpoint)

        try:
            result = run_attempt(resume_from, sink)
        except (*recover_on, CheckpointFormatError) as exc:
            if entry is not None and isinstance(exc, CheckpointFormatError):
                unrestorable.add(entry.generation)
                continue
            if not isinstance(exc, recover_on):
                raise
            crashes += 1
            if flight is not None:
                flight.note_fault(exc, attempt=crashes)
            if crashes > max_restarts:
                if flight is not None:
                    flight.dump(reason="recovery-exhausted")
                raise RecoveryExhaustedError(crashes, exc) from exc
            if flight is not None:
                flight.dump(reason="restart")
            continue
        stats = RecoveryStats(
            crashes=crashes,
            checkpoints_written=written,
            resumed_generations=tuple(resumed),
            corrupt_generations_skipped=corrupt_skipped,
        )
        if metrics is not None:
            _publish_metrics(metrics, stats)
        return result, stats


def supervised_stream(
    stream_factory: Callable[[], Iterable[Item]],
    algorithm_factory: Callable[[], PackingAlgorithm],
    *,
    store: CheckpointStore,
    checkpoint_every: int = 256,
    capacity: Size = 1,
    cost_rate: Num = 1,
    observer_factory: Callable[[], Sequence[SimulationObserver]] | None = None,
    max_restarts: int = 16,
    recover_on: tuple[type[BaseException], ...] = (Exception,),
    checkpoint_hook: CheckpointHook | None = None,
    metrics: Any = None,
    flight: FlightRecorder | None = None,
) -> SupervisedStreamResult:
    """Run :func:`~repro.core.streaming.simulate_stream` under supervision.

    Every ``checkpoint_every`` events a generation is persisted to
    ``store``.  An attempt dying with one of ``recover_on`` is restarted
    from the newest verifiable generation, up to ``max_restarts`` times
    (then :class:`RecoveryExhaustedError`).  The returned summary is
    float-identical to the uninterrupted run's.

    With a ``flight`` recorder attached, every persisted generation,
    fault, and recovery is recorded, and the ring is dumped as a JSONL
    post-mortem on each restart and on recovery exhaustion (attach a
    :class:`~repro.obs.flight.FlightObserver` via ``observer_factory`` to
    get lifecycle spans into the same ring).
    """

    def attempt(
        resume_from: StreamCheckpoint | None,
        sink: Callable[[StreamCheckpoint], None],
    ) -> StreamSummary:
        return simulate_stream(
            stream_factory(),
            algorithm_factory(),
            capacity=capacity,
            cost_rate=cost_rate,
            observers=tuple(observer_factory()) if observer_factory is not None else (),
            checkpoint_every=checkpoint_every,
            on_checkpoint=sink,
            resume_from=resume_from,
        )

    summary, stats = _supervise(
        attempt,
        store=store,
        max_restarts=max_restarts,
        recover_on=recover_on,
        checkpoint_hook=checkpoint_hook,
        metrics=metrics,
        flight=flight,
    )
    return SupervisedStreamResult(summary=summary, stats=stats)


def supervised_dispatch_stream(
    stream_factory: Callable[[], Iterable[Item]],
    algorithm_factory: Callable[[], PackingAlgorithm],
    *,
    store: CheckpointStore,
    checkpoint_every: int = 256,
    server_type: ServerType | None = None,
    observer_factory: Callable[[], Sequence[SimulationObserver]] | None = None,
    max_restarts: int = 16,
    recover_on: tuple[type[BaseException], ...] = (Exception,),
    checkpoint_hook: CheckpointHook | None = None,
    metrics: Any = None,
    flight: FlightRecorder | None = None,
) -> SupervisedDispatchReport:
    """Run :func:`~repro.cloud.dispatcher.dispatch_stream` under supervision.

    The internal billing meter's accrued state rides inside every
    persisted generation, so a resumed dispatch settles each server
    exactly once: billed cost, server counts, and the summary equal the
    uninterrupted run's bit for bit.
    """

    def attempt(
        resume_from: StreamCheckpoint | None,
        sink: Callable[[StreamCheckpoint], None],
    ) -> StreamDispatchReport:
        return dispatch_stream(
            stream_factory(),
            algorithm_factory(),
            server_type=server_type,
            observers=tuple(observer_factory()) if observer_factory is not None else (),
            checkpoint_every=checkpoint_every,
            on_checkpoint=sink,
            resume_from=resume_from,
        )

    report, stats = _supervise(
        attempt,
        store=store,
        max_restarts=max_restarts,
        recover_on=recover_on,
        checkpoint_hook=checkpoint_hook,
        metrics=metrics,
        flight=flight,
    )
    return SupervisedDispatchReport(report=report, stats=stats)
