"""Pool mechanics and fault paths of :mod:`repro.parallel`.

Covers the worker-robustness half of the determinism contract: a raising,
hanging, or dying task surfaces as a typed :class:`ShardFailure` carrying
the offending payload, the pool always drains (no hangs, no zombie
workers), and bounded retries re-execute a task without ever producing a
second row.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.validation import EmptySweepError
from repro.obs import MetricsRegistry
from repro.parallel import (
    ShardExecutionError,
    ShardFailure,
    UnpicklableTaskError,
    default_chunk_size,
    merge_indexed,
    parallel_manifest,
    run_tasks,
)
from repro.analysis.sweep import grid, run_sweep


# ----------------------------------------------------------------- task fns
# Worker task bodies must be module-level so they pickle.


def _square(x):
    return x * x


def _identity_row(a, b):
    return {"a": a, "b": b, "prod": a * b}


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("task three always fails")
    return x * 10


def _hang_on_two(x):
    if x == 2:
        time.sleep(60.0)
    return x


def _exit_on_one(x):
    if x == 1:
        os._exit(17)  # hard worker death, bypassing exception handling
    return x


def _flaky_once(task):
    """Fails the first attempt per payload, using a marker file as memory."""
    x, marker_dir = task
    marker = os.path.join(marker_dir, f"attempted-{x}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("1")
        raise RuntimeError(f"first attempt for {x}")
    return x * 100


def _unpicklable_result(x):
    return lambda: x  # lambdas cannot cross the pipe back


# ---------------------------------------------------------------- mechanics


def test_results_arrive_in_task_order():
    assert run_tasks(_square, list(range(20)), workers=3) == [
        x * x for x in range(20)
    ]


def test_worker_count_never_exceeds_tasks():
    assert run_tasks(_square, [4], workers=8) == [16]


def test_empty_task_list_returns_empty():
    assert run_tasks(_square, [], workers=2) == []


def test_chunking_cannot_affect_results():
    tasks = list(range(17))
    expected = [x * x for x in tasks]
    for chunk_size in (1, 2, 5, 17):
        assert run_tasks(_square, tasks, workers=2, chunk_size=chunk_size) == expected


def test_default_chunk_size_bounds():
    assert default_chunk_size(0, 4) == 1
    assert default_chunk_size(1, 4) == 1
    assert 1 <= default_chunk_size(100, 4) <= 32
    assert default_chunk_size(10_000, 2) == 32


def test_unpicklable_function_fails_fast():
    with pytest.raises(UnpicklableTaskError, match="task function"):
        run_tasks(lambda x: x, [1, 2], workers=2)


def test_unpicklable_result_is_an_error_not_a_hang():
    with pytest.raises(ShardExecutionError) as info:
        run_tasks(_unpicklable_result, [1], workers=1, retries=0)
    (failure,) = info.value.failures
    assert failure.kind == "error"
    assert "not picklable" in failure.message


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError, match="workers"):
        run_tasks(_square, [1], workers=0)
    with pytest.raises(ValueError, match="retries"):
        run_tasks(_square, [1], workers=1, retries=-1)
    with pytest.raises(ValueError, match="timeout"):
        run_tasks(_square, [1], workers=1, timeout=0)


# -------------------------------------------------------------- fault paths


def test_raising_task_surfaces_typed_failure_with_payload():
    with pytest.raises(ShardExecutionError) as info:
        run_tasks(_fail_on_three, list(range(6)), workers=2, retries=1)
    failures = info.value.failures
    assert len(failures) == 1
    failure = failures[0]
    assert isinstance(failure, ShardFailure)
    assert failure.index == 3
    assert failure.task == 3  # the offending payload rides along
    assert failure.kind == "error"
    assert failure.attempts == 2  # first try + one bounded retry
    assert "task three always fails" in failure.message
    # The pool drained: every other task still completed.
    assert sorted(info.value.completed) == [0, 1, 2, 4, 5]
    assert info.value.completed[4] == 40


def test_timeout_kills_worker_and_reports_timeout_failure():
    start = time.monotonic()
    with pytest.raises(ShardExecutionError) as info:
        run_tasks(
            _hang_on_two,
            list(range(5)),
            workers=2,
            timeout=1.0,
            retries=0,
            chunk_size=1,
        )
    elapsed = time.monotonic() - start
    (failure,) = info.value.failures
    assert failure.kind == "timeout"
    assert failure.index == 2 and failure.task == 2
    assert sorted(info.value.completed) == [0, 1, 3, 4]
    assert elapsed < 30.0, "a hanging task must not hang the pool"


def test_crashed_worker_is_isolated_and_reported():
    with pytest.raises(ShardExecutionError) as info:
        run_tasks(_exit_on_one, list(range(5)), workers=2, retries=1, chunk_size=2)
    (failure,) = info.value.failures
    assert failure.kind == "crash"
    assert failure.index == 1 and failure.task == 1
    assert failure.attempts == 2
    # Tasks sharing the dead worker's chunk were re-run elsewhere.
    assert sorted(info.value.completed) == [0, 2, 3, 4]


def test_retries_are_deterministic_and_never_double_count(tmp_path):
    tasks = [(x, str(tmp_path)) for x in range(6)]
    rows = run_tasks(_flaky_once, tasks, workers=2, retries=1, chunk_size=1)
    assert rows == [x * 100 for x in range(6)]  # one row per task, in order
    # Every payload was attempted (and the even ones retried) exactly once.
    markers = sorted(p.name for p in tmp_path.iterdir())
    assert markers == [f"attempted-{x}" for x in range(6)]


def test_zero_retries_fails_on_first_error(tmp_path):
    tasks = [(x, str(tmp_path)) for x in range(2)]
    with pytest.raises(ShardExecutionError) as info:
        run_tasks(_flaky_once, tasks, workers=1, retries=0)
    assert {f.attempts for f in info.value.failures} == {1}


# --------------------------------------------------- progress/metrics wiring


def test_pool_publishes_deterministic_metrics():
    registry = MetricsRegistry()
    run_tasks(_square, list(range(8)), workers=2, metrics=registry)
    snapshot = registry.snapshot()["counters"]
    assert snapshot["dbp_parallel_tasks_total"] == 8
    assert snapshot["dbp_parallel_completed_total"] == 8
    assert snapshot["dbp_parallel_failures_total"] == 0


def test_pool_metrics_count_retries_and_failures():
    registry = MetricsRegistry()
    with pytest.raises(ShardExecutionError):
        run_tasks(
            _fail_on_three, list(range(6)), workers=2, retries=2, metrics=registry
        )
    counters = registry.snapshot()["counters"]
    assert counters["dbp_parallel_tasks_total"] == 6
    assert counters["dbp_parallel_completed_total"] == 5
    assert counters["dbp_parallel_retries_total"] == 2
    assert counters["dbp_parallel_failures_total"] == 1


def test_on_progress_reports_monotonic_completion():
    seen = []
    run_tasks(
        _square,
        list(range(7)),
        workers=2,
        on_progress=lambda done, total, index: seen.append((done, total, index)),
    )
    assert [(done, total) for done, total, _ in seen] == [(k, 7) for k in range(1, 8)]
    assert sorted(index for _, _, index in seen) == list(range(7))


@pytest.mark.parametrize("workers", [1, 2])
def test_on_result_delivers_each_result_once_before_its_progress(workers):
    events = []
    results = run_tasks(
        _square,
        list(range(7)),
        workers=workers,
        chunk_size=2,
        on_result=lambda index, result: events.append(("result", index, result)),
        on_progress=lambda done, total, index: events.append(("progress", index)),
    )
    delivered = events[0::2]
    assert sorted(delivered) == [("result", i, i * i) for i in range(7)]
    assert events[1::2] == [("progress", index) for _, index, _ in delivered]
    assert results == [i * i for i in range(7)]


def test_parallel_manifest_is_byte_stable():
    a = parallel_manifest(kind="sweep", tasks=12, workers=4, root_seed=7)
    b = parallel_manifest(kind="sweep", tasks=12, workers=4, root_seed=7)
    assert a.to_json() == b.to_json()
    assert '"algorithm":"parallel/sweep"' in a.to_json()


# --------------------------------------------------------------- merge unit


def test_merge_indexed_rejects_duplicates_and_gaps():
    assert merge_indexed([(1, "b"), (0, "a")], 2) == ["a", "b"]
    with pytest.raises(ValueError, match="twice"):
        merge_indexed([(0, "a"), (0, "b")], 2)
    with pytest.raises(ValueError, match="incomplete"):
        merge_indexed([(0, "a")], 2)
    with pytest.raises(ValueError, match="outside"):
        merge_indexed([(5, "a")], 2)


# ------------------------------------------------- typed empty-sweep errors


def test_empty_sweep_is_typed_on_both_paths():
    with pytest.raises(EmptySweepError):
        run_sweep(_identity_row, [])
    with pytest.raises(EmptySweepError):
        run_sweep(_identity_row, [], workers=4)
    # Still a ValueError for historical call sites.
    with pytest.raises(ValueError):
        run_sweep(_identity_row, [], workers=2)


def test_run_sweep_parallel_failure_carries_grid_point():
    points = grid(x=[0, 1, 2, 3, 4])
    with pytest.raises(ShardExecutionError) as info:
        run_sweep(_sweep_fail_on_three, points, workers=2)
    (failure,) = info.value.failures
    assert failure.task == {"x": 3}


def _sweep_fail_on_three(x):
    if x == 3:
        raise RuntimeError("bad grid point")
    return {"x": x, "y": x + 1}


def _die_once(task):
    """Hard-kills the worker on the first attempt per payload."""
    x, marker_dir = task
    marker = os.path.join(marker_dir, f"died-{x}")
    if x == 1 and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("1")
        os._exit(23)
    return x + 7


def test_worker_respawns_are_counted(tmp_path):
    registry = MetricsRegistry()
    rows = run_tasks(
        _die_once,
        [(x, str(tmp_path)) for x in range(4)],
        workers=2,
        retries=1,
        chunk_size=1,
        metrics=registry,
    )
    assert rows == [x + 7 for x in range(4)]
    counters = registry.snapshot()["counters"]
    assert counters["dbp_parallel_worker_respawns_total"] == 1
    assert counters["dbp_parallel_retries_total"] == 1


def test_deadline_kill_counts_as_respawn():
    registry = MetricsRegistry()
    with pytest.raises(ShardExecutionError):
        run_tasks(
            _hang_on_two,
            list(range(4)),
            workers=2,
            timeout=0.5,
            retries=0,
            chunk_size=1,
            metrics=registry,
        )
    assert registry.snapshot()["counters"]["dbp_parallel_worker_respawns_total"] >= 1


def test_retry_policy_backs_off_and_preserves_results(tmp_path):
    from repro.resilience import RetryPolicy

    registry = MetricsRegistry()
    tasks = [(x, str(tmp_path)) for x in range(5)]
    start = time.monotonic()
    rows = run_tasks(
        _flaky_once,
        tasks,
        workers=2,
        retries=1,
        chunk_size=1,
        retry_policy=RetryPolicy(base_delay=0.2, multiplier=1.0, max_delay=0.2, jitter=0.0),
        metrics=registry,
    )
    elapsed = time.monotonic() - start
    assert rows == [x * 100 for x in range(5)]  # backoff never reorders rows
    assert elapsed >= 0.2, "retries must actually wait out the backoff"
    counters = registry.snapshot()["counters"]
    assert counters["dbp_parallel_retries_total"] == 5
    assert counters["dbp_parallel_failures_total"] == 0
