"""A deterministic, fault-isolating process pool for sharded runs.

The execution layer under parallel sweeps and experiment fan-out.  Design
constraints, in order:

1. **Determinism.**  Results are slotted by task *index*, never by
   completion order, so the merged output is identical at any worker count
   and under any scheduling interleaving.  Nothing in a task's inputs
   depends on which worker runs it or when.
2. **No hangs.**  Every task has an optional wall-clock deadline enforced
   by killing the worker (a stuck task cannot block the pool), every
   worker death is detected and isolated, and the pool always drains:
   callers get either all results or a :class:`ShardExecutionError`
   carrying typed :class:`ShardFailure` records.
3. **Bounded retries.**  A failed task (raise / timeout / crash) is retried
   up to ``retries`` times on another assignment; each task contributes
   exactly one result slot, so retries can never double-count rows.
4. **Amortized transfer.**  Tasks are handed to workers in chunks to
   amortize pickling and round-trips; chunking is a transport detail and
   cannot affect results.

Workers are plain ``multiprocessing`` processes speaking length-prefixed
pickles over a dedicated pipe each; the coordinator multiplexes with
``multiprocessing.connection.wait`` — no threads, no shared queues to
corrupt when a worker is killed mid-task.
"""

from __future__ import annotations

import heapq
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .failures import ShardExecutionError, ShardFailure, UnpicklableTaskError

if TYPE_CHECKING:
    from ..resilience.retry import RetryPolicy

__all__ = ["run_tasks", "merge_indexed", "default_chunk_size", "PoolCounters"]

# Wire protocol tags (worker -> coordinator: _OK/_ERR; coordinator -> worker:
# chunk lists and _STOP).
_OK = "ok"
_ERR = "err"
_STOP = "stop"

#: Grace period when joining workers during shutdown before killing them.
_JOIN_GRACE_SECONDS = 2.0


#: Sentinel marking an unfilled merge slot (results may legitimately be None).
_EMPTY = object()


def merge_indexed(pairs: Iterable[tuple[int, Any]], n_tasks: int) -> list[Any]:
    """Order-independent merge: slot ``(index, result)`` pairs into a list.

    The completion-order-erasing step of the determinism contract: whatever
    order shards finish in, the merged list is the same.  Duplicate or
    missing indices are protocol violations and raise ``ValueError``.
    """
    slots: list[Any] = [_EMPTY] * n_tasks
    for index, result in pairs:
        if not 0 <= index < n_tasks:
            raise ValueError(f"shard index {index} outside 0..{n_tasks - 1}")
        if slots[index] is not _EMPTY:
            raise ValueError(f"shard index {index} merged twice")
        slots[index] = result
    missing = [i for i, slot in enumerate(slots) if slot is _EMPTY]
    if missing:
        raise ValueError(f"merge incomplete: no result for indices {missing}")
    return slots


def default_chunk_size(n_tasks: int, workers: int) -> int:
    """Chunk size amortizing round-trips while keeping assignment balanced.

    Aim for ~4 chunks per worker (so stragglers can be balanced around),
    capped at 32 tasks per chunk (so a killed worker forfeits little work).
    """
    if n_tasks <= 0:
        return 1
    return max(1, min(32, -(-n_tasks // (max(1, workers) * 4))))


@dataclass(slots=True)
class PoolCounters:
    """Deterministic counters describing one drained pool run."""

    submitted: int = 0
    completed: int = 0
    retried: int = 0
    failed: int = 0
    respawned: int = 0

    def publish(self, metrics: Any) -> None:
        """Mirror the counters into a ``repro.obs`` metrics registry."""
        metrics.counter(
            "dbp_parallel_tasks_total", "tasks submitted to the pool"
        ).inc(self.submitted)
        metrics.counter(
            "dbp_parallel_completed_total", "tasks that returned a result"
        ).inc(self.completed)
        metrics.counter(
            "dbp_parallel_retries_total", "task attempts beyond the first"
        ).inc(self.retried)
        metrics.counter(
            "dbp_parallel_failures_total", "tasks that terminally failed"
        ).inc(self.failed)
        metrics.counter(
            "dbp_parallel_worker_respawns_total",
            "workers replaced after a crash or deadline kill",
        ).inc(self.respawned)


def _worker_main(conn: Connection, fn_bytes: bytes) -> None:
    """Worker loop: receive task chunks, reply one message per task."""
    fn = pickle.loads(fn_bytes)
    try:
        while True:
            message = conn.recv()
            if message[0] == _STOP:
                return
            for index, payload in message[1]:
                try:
                    result = fn(payload)
                except Exception as exc:  # a raising task is data, not death
                    conn.send((_ERR, index, f"{type(exc).__name__}: {exc}"))
                else:
                    try:
                        conn.send((_OK, index, result))
                    except Exception as exc:  # unpicklable result
                        conn.send(
                            (
                                _ERR,
                                index,
                                "result not picklable "
                                f"({type(exc).__name__}: {exc})",
                            )
                        )
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return


@dataclass(slots=True)
class _Worker:
    """Coordinator-side view of one worker process."""

    process: Any
    conn: Connection
    assigned: deque[int] = field(default_factory=deque)
    deadline: float | None = None


class _Coordinator:
    """Drives one :func:`run_tasks` call to completion."""

    def __init__(
        self,
        fn_bytes: bytes,
        tasks: Sequence[Any],
        *,
        workers: int,
        timeout: float | None,
        retries: int,
        chunk_size: int,
        ctx: Any,
        on_progress: Callable[[int, int, int], None] | None,
        counters: PoolCounters,
        retry_policy: "RetryPolicy | None" = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> None:
        self._fn_bytes = fn_bytes
        self._tasks = tasks
        self._timeout = timeout
        self._retries = retries
        self._chunk_size = chunk_size
        self._ctx = ctx
        self._on_progress = on_progress
        self._counters = counters
        self._retry_policy = retry_policy
        self._on_result = on_result
        self._delayed: list[tuple[float, int]] = []  # (due monotonic, index)
        self._pending: deque[int] = deque(range(len(tasks)))
        self._attempts = [0] * len(tasks)
        self._results: dict[int, Any] = {}
        self._failures: dict[int, ShardFailure] = {}
        self._workers: list[_Worker] = [self._spawn() for _ in range(workers)]

    # ------------------------------------------------------------ lifecycle

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._fn_bytes), daemon=True
        )
        process.start()
        child_conn.close()  # the worker holds its own copy
        return _Worker(process=process, conn=parent_conn)

    def _kill(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()

    def shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send((_STOP,))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _JOIN_GRACE_SECONDS
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            self._kill(worker)
        self._workers.clear()

    # ------------------------------------------------------------- the loop

    def run(self) -> list[Any]:
        n = len(self._tasks)
        while len(self._results) + len(self._failures) < n:
            self._promote_due_retries()
            self._assign_idle()
            self._pump()
            self._enforce_deadlines()
            self._sleep_if_only_delayed()
        if self._failures:
            raise ShardExecutionError(
                tuple(self._failures.values()), completed=self._results
            )
        return merge_indexed(self._results.items(), n)

    def _promote_due_retries(self) -> None:
        """Move backed-off retries whose delay has elapsed onto the queue."""
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            self._pending.append(heapq.heappop(self._delayed)[1])

    def _sleep_if_only_delayed(self) -> None:
        """Idle briefly when every remaining task is waiting out a backoff."""
        if self._pending or not self._delayed:
            return
        if any(w.assigned for w in self._workers):
            return
        remaining = self._delayed[0][0] - time.monotonic()
        if remaining > 0:
            time.sleep(min(remaining, 0.05))

    def _assign_idle(self) -> None:
        for worker in self._workers:
            if worker.assigned or not self._pending:
                continue
            chunk = [
                self._pending.popleft()
                for _ in range(min(self._chunk_size, len(self._pending)))
            ]
            payload = [(index, self._tasks[index]) for index in chunk]
            try:
                worker.conn.send((None, payload))
            except Exception as exc:
                # An unpicklable payload is a caller bug, not a shard fault.
                self._pending.extendleft(reversed(chunk))
                raise UnpicklableTaskError("task payload", payload, exc) from exc
            worker.assigned.extend(chunk)
            self._arm_deadline(worker)

    def _arm_deadline(self, worker: _Worker) -> None:
        worker.deadline = (
            time.monotonic() + self._timeout if self._timeout is not None else None
        )

    def _wait_budget(self) -> float | None:
        deadlines = [
            w.deadline for w in self._workers if w.assigned and w.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _pump(self) -> None:
        """Wait for any worker message and drain every readable pipe."""
        busy = [w for w in self._workers if w.assigned]
        if not busy:
            return
        ready = wait([w.conn for w in busy], timeout=self._wait_budget())
        by_conn = {w.conn: w for w in self._workers}
        for conn in ready:
            worker = by_conn[conn]
            try:
                while conn.poll(0):
                    self._handle_reply(worker, conn.recv())
            except (EOFError, OSError):
                self._on_worker_death(worker, "worker process died")

    def _handle_reply(self, worker: _Worker, message: tuple) -> None:
        tag, index = message[0], message[1]
        # The head of the assigned queue is the task the worker ran.
        if worker.assigned and worker.assigned[0] == index:
            worker.assigned.popleft()
        else:  # pragma: no cover - protocol invariant
            worker.assigned.remove(index)
        self._arm_deadline(worker)
        if tag == _OK:
            self._record_result(index, message[2])
        else:
            self._attempts[index] += 1
            self._retry_or_fail(index, "error", message[2])

    def _record_result(self, index: int, result: Any) -> None:
        # First success wins; assignment is exclusive so seconds cannot occur.
        if index in self._results or index in self._failures:
            return
        self._results[index] = result
        self._counters.completed += 1
        # Result before progress: a progress callback publishing what the
        # results add up to must already see this task's result.
        if self._on_result is not None:
            self._on_result(index, result)
        if self._on_progress is not None:
            self._on_progress(len(self._results), len(self._tasks), index)

    def _retry_or_fail(self, index: int, kind: str, message: str) -> None:
        if self._attempts[index] <= self._retries:
            self._counters.retried += 1
            if self._retry_policy is not None:
                delay = self._retry_policy.delay(
                    self._attempts[index], key=f"task-{index}"
                )
                heapq.heappush(self._delayed, (time.monotonic() + delay, index))
            else:
                self._pending.append(index)
            return
        self._failures[index] = ShardFailure(
            index=index,
            task=self._tasks[index],
            kind=kind,
            attempts=self._attempts[index],
            message=message,
        )
        self._counters.failed += 1

    def _on_worker_death(self, worker: _Worker, message: str) -> None:
        """Isolate a dead/killed worker: requeue its tasks, replace it."""
        self._kill(worker)
        assigned = list(worker.assigned)
        worker.assigned.clear()
        if assigned:
            # Only the head task was in flight; charge the attempt to it.
            head, rest = assigned[0], assigned[1:]
            self._attempts[head] += 1
            self._retry_or_fail(head, "crash", message)
            self._pending.extend(rest)
        self._counters.respawned += 1
        self._workers[self._workers.index(worker)] = self._spawn()

    def _enforce_deadlines(self) -> None:
        if self._timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if not worker.assigned or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            assigned = list(worker.assigned)
            worker.assigned.clear()
            self._kill(worker)
            head, rest = assigned[0], assigned[1:]
            self._attempts[head] += 1
            self._retry_or_fail(
                head, "timeout", f"exceeded per-task timeout of {self._timeout}s"
            )
            self._pending.extend(rest)
            self._counters.respawned += 1
            self._workers[self._workers.index(worker)] = self._spawn()


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: int,
    timeout: float | None = None,
    retries: int = 1,
    chunk_size: int | None = None,
    start_method: str | None = None,
    metrics: Any = None,
    on_progress: Callable[[int, int, int], None] | None = None,
    retry_policy: "RetryPolicy | None" = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Run ``fn(task)`` for every task across ``workers`` processes.

    Returns results **in task order**, regardless of completion order or
    worker count — the merge is a pure slot-by-index write.  ``fn`` and
    every task payload must be picklable (checked up front for ``fn``;
    a bad payload raises :class:`UnpicklableTaskError` at submission).

    ``timeout`` is a per-task wall-clock deadline enforced by killing the
    worker; ``retries`` bounds re-executions after an error, timeout, or
    worker crash.  Tasks that still fail surface as one
    :class:`ShardExecutionError` after the pool drains, carrying a
    :class:`ShardFailure` per lost task plus all completed results.

    ``metrics`` may be a :class:`repro.obs.MetricsRegistry`; the pool
    publishes deterministic ``dbp_parallel_*`` counters into it.
    ``on_progress(completed, total, index)`` fires after every completed
    task (``index`` is the completing task's shard index).

    ``on_result(index, result)`` delivers each task's result as it
    arrives, in completion order.  Exactly one delivery per task — the
    first successful attempt's — before that task's ``on_progress`` call,
    so counters fed from this callback always agree with the reported
    completion count.

    ``retry_policy`` (a :class:`repro.resilience.RetryPolicy`) spaces
    retries by seeded exponential backoff on the wall clock instead of
    requeueing immediately — crash-looping tasks stop hammering the pool.
    Delays affect scheduling only; results and counters stay exactly as
    deterministic as without it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    tasks = list(tasks)
    try:
        fn_bytes = pickle.dumps(fn)
    except Exception as exc:
        raise UnpicklableTaskError("task function", fn, exc) from exc
    counters = PoolCounters(submitted=len(tasks))
    if not tasks:
        if metrics is not None:
            counters.publish(metrics)
        return []
    workers = min(workers, len(tasks))
    ctx = get_context(start_method) if start_method else get_context()
    coordinator = _Coordinator(
        fn_bytes,
        tasks,
        workers=workers,
        timeout=timeout,
        retries=retries,
        chunk_size=chunk_size or default_chunk_size(len(tasks), workers),
        ctx=ctx,
        on_progress=on_progress,
        counters=counters,
        retry_policy=retry_policy,
        on_result=on_result,
    )
    try:
        return coordinator.run()
    finally:
        coordinator.shutdown()
        if metrics is not None:
            counters.publish(metrics)
