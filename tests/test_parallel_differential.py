"""Differential suite: parallel execution is byte-identical to serial.

The determinism contract of :mod:`repro.parallel`, checked end-to-end:
for **every registered experiment**, running the catalogue sharded across
2 and 4 workers yields tables, claim checks, exported JSON artifacts and
the counters ``run --serve-metrics`` serves exactly equal to the serial
run; the same holds for ``run_sweep`` over a grid with a ``seed`` axis.
The serial run is also where every claim is checked at the experiments'
default parameters, and it is what ``docs/REPORT.md`` prints.  CI runs
this module in the tier-1 job; its ``parallel-smoke`` job byte-diffs a
seeded artifact on disk.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import FirstFit, simulate
from repro.analysis.sweep import grid, run_sweep
from repro.cli import _count_experiment
from repro.experiments import available_experiments, run_experiments
from repro.experiments.io import result_to_dict, results_to_json
from repro.experiments.report import render_markdown
from repro.obs import MetricsRegistry
from repro.parallel import derive_seed, point_key, run_tasks
from repro.workloads import Clipped, Exponential, Uniform, generate_trace

WORKER_COUNTS = (2, 4)


# --------------------------------------------------------------- experiments


@pytest.fixture(scope="module")
def serial_catalogue():
    """Every registered experiment, run serially once per test session."""
    names = available_experiments()
    return names, run_experiments(names)


@pytest.fixture(scope="module")
def parallel_catalogues(serial_catalogue):
    """The full catalogue run once per tested worker count."""
    names, _ = serial_catalogue
    return {workers: run_experiments(names, parallel=workers) for workers in WORKER_COUNTS}


def test_every_claim_holds_at_the_default_parameters(serial_catalogue):
    names, serial = serial_catalogue
    failing = [
        f"{name}: {check}"
        for name, result in zip(names, serial)
        for check in result.checks
        if not check.holds
    ]
    assert failing == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_every_experiment_matches_serial(serial_catalogue, parallel_catalogues, workers):
    names, serial = serial_catalogue
    parallel = parallel_catalogues[workers]
    assert len(parallel) == len(serial)
    for name, expected, got in zip(names, serial, parallel):
        assert got.name == expected.name == name
        assert got.table.headers == expected.table.headers, name
        assert got.checks == expected.checks, name
        assert got.notes == expected.notes, name
        assert got.table.rows == expected.table.rows, name
        # The exported artifact is byte-identical, not merely equal.
        assert json.dumps(result_to_dict(got), sort_keys=True) == json.dumps(
            result_to_dict(expected), sort_keys=True
        ), name


def test_catalogue_artifact_bytes_match_serial(serial_catalogue, parallel_catalogues):
    _, serial = serial_catalogue
    for workers in WORKER_COUNTS:
        assert (
            results_to_json(parallel_catalogues[workers]).encode()
            == results_to_json(serial).encode()
        )


REPORT = Path(__file__).resolve().parents[1] / "docs" / "REPORT.md"


def test_docs_report_is_the_default_catalogue(serial_catalogue):
    """``python -m repro report --out docs/REPORT.md`` regenerates the file."""
    _, serial = serial_catalogue
    assert render_markdown(serial) == REPORT.read_text(encoding="utf-8")


#: What ``run all --serve-metrics`` serves once the whole catalogue is in.
FLEET_COUNTERS = (
    "# HELP dbp_claims_checked_total Paper claims evaluated\n"
    "# TYPE dbp_claims_checked_total counter\n"
    "dbp_claims_checked_total 63\n"
    "# HELP dbp_claims_failed_total Paper claims that FAILED\n"
    "# TYPE dbp_claims_failed_total counter\n"
    "dbp_claims_failed_total 0\n"
    "# HELP dbp_experiment_rows_total Table rows produced by experiments\n"
    "# TYPE dbp_experiment_rows_total counter\n"
    "dbp_experiment_rows_total 417\n"
    "# HELP dbp_experiments_completed_total Experiments completed\n"
    "# TYPE dbp_experiments_completed_total counter\n"
    "dbp_experiments_completed_total 24\n"
)


def _served(results) -> str:
    registry = MetricsRegistry()
    for result in results:
        _count_experiment(registry, result)
    return registry.to_prometheus()


def test_served_fleet_counters_match_at_every_worker_count(
    serial_catalogue, parallel_catalogues
):
    _, serial = serial_catalogue
    assert _served(serial) == FLEET_COUNTERS
    # Results reach the counter in completion order; integer sums ignore it.
    assert _served(reversed(serial)) == FLEET_COUNTERS
    for workers in WORKER_COUNTS:
        assert _served(parallel_catalogues[workers]) == FLEET_COUNTERS


# Fast deterministic experiments, enough to exercise multi-chunk scheduling.
FAST_EXPERIMENTS = [
    "bounds-sandwich",
    "capacity-cap",
    "flash-crowd",
    "fleet-mix",
    "mff",
    "offline-gaps",
]


def test_experiment_order_is_input_order_not_completion_order(serial_catalogue):
    _, serial = serial_catalogue
    # A deliberately shuffled batch comes back in the shuffled order —
    # results follow the request, never worker scheduling.
    shuffled = list(reversed(FAST_EXPERIMENTS))
    parallel = run_experiments(shuffled, parallel=2)
    assert [r.name for r in parallel] == shuffled
    by_name = {r.name: r for r in serial}
    for result in parallel:
        assert result.table.rows == by_name[result.name].table.rows


# --------------------------------------------------------------- run_sweep


def _packing_row(rate, mean_duration, seed):
    """One grid point: generate a seeded workload, pack it, report costs."""
    trace = generate_trace(
        arrival_rate=rate,
        horizon=60.0,
        duration=Clipped(Exponential(mean_duration), 2.0, 40.0),
        size=Uniform(0.1, 0.6),
        seed=seed,
    )
    result = simulate(trace.items, FirstFit())
    return {
        "rate": rate,
        "mean_duration": mean_duration,
        "seed": seed,
        "items": len(trace),
        "bins": result.num_bins_used,
        "cost": float(result.total_cost()),
    }


def _packing_row_of(point):
    return _packing_row(**point)


def seeded_grid(root_seed):
    """A ``seed`` axis derived per point, as a caller builds one."""
    points = grid(rate=[0.5, 1.0, 2.0], mean_duration=[5.0, 15.0])
    return [dict(p, seed=derive_seed(root_seed, point_key(p))) for p in points]


SWEEP_GRID = seeded_grid(42)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_run_sweep_seeded_grid_matches_serial(workers):
    serial = run_sweep(_packing_row, SWEEP_GRID)
    parallel = run_sweep(_packing_row, SWEEP_GRID, workers=workers)
    assert parallel.headers == serial.headers
    assert parallel.rows == serial.rows
    assert parallel == serial


def test_run_sweep_explicit_seeds_match_serial():
    points = grid(rate=[1.0, 2.0], mean_duration=[5.0], seed=[3, 9])
    serial = run_sweep(_packing_row, points)
    parallel = run_sweep(_packing_row, points, workers=2)
    assert parallel == serial


def test_derived_seeds_are_scheduling_independent():
    # The seed column of a parallel sweep equals the seeds derived up
    # front — worker identity and completion order never leak in.
    expected = [p["seed"] for p in SWEEP_GRID]
    parallel = run_sweep(_packing_row, SWEEP_GRID, workers=4)
    assert parallel.column("seed") == expected


def test_chunking_is_unobservable_in_sweep_results():
    # A sharded sweep's rows come from the pool, whose chunk size never
    # shows in them.
    points = seeded_grid(7)
    serial = run_sweep(_packing_row, points)
    for chunk_size in (1, 3, 6):
        rows = run_tasks(_packing_row_of, points, workers=2, chunk_size=chunk_size)
        assert [[row[h] for h in serial.headers] for row in rows] == serial.rows
