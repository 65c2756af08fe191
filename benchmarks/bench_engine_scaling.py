"""Engine throughput baseline: indexed streamed engine vs seed list scan.

Measures items-per-second for First Fit and Best Fit at 10k / 100k / 1M
items on a scan-heavy workload (long sessions, large items — thousands of
simultaneously open bins), and records the result to ``BENCH_engine.json``
so future PRs can track engine throughput:

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --write

* Sizes up to ``--scan-limit`` (default 100k) run on **both** engines —
  the O(n log n) indexed path and the seed O(n²) list scan — on the same
  materialized trace, yielding a direct speedup figure (the refactor's
  acceptance bar is >= 10x for First Fit at 100k).
* Larger sizes run **streamed**: the lazy heap-merge event stream with
  recording off.  The timed pass replays a trace built before the timer
  starts, so it measures the engine alone; a separate tracemalloc pass
  pulls the same trace from its generator to show the full event list
  (and trace) is never materialized.
* An **observability overhead** pass re-runs one streamed size with the
  full ``repro.obs`` stack attached (metrics registry + probe counting +
  lifecycle tracer writing JSONL to disk) and records the wall-time ratio
  against the uninstrumented run — the acceptance bar is <= 2x.
* A **live scrape** pass re-runs the registry-observed streamed size with
  the live metrics endpoint attached (``LiveMetricsServer`` + a background
  client scraping ``/metrics`` at ~1 Hz) and records the wall-time ratio
  against the plain registry-observed run — the acceptance bar is <= 1.1x,
  i.e. serving live snapshots is nearly free on top of observation.
* A **workers scaling** pass runs the same multi-seed sweep serially and
  sharded across ``--workers`` processes (``repro.parallel``), asserts the
  rows are identical (the determinism contract), and records both
  wall-clocks plus the speedup and the machine's core count — the
  acceptance bar is >= 2x at 4 workers on a 4-core runner.
* A **vector** pass packs correlated 2-D and 4-D demand vectors with
  First Fit through the per-dimension candidate-intersection index and
  through the list scan on the same trace, asserting the packings agree.
  The acceptance gate is *relative to the scalar engine*: the vector
  indexed path must stay within 3x of the scalar indexed path's per-item
  cost at the same trace size (``within_3x_of_scalar``), so extra
  dimensions degrade throughput gracefully instead of silently falling
  back to the O(n²) scan.

Also runnable under pytest (tiny sizes) as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path

from repro import BestFit, FirstFit, simulate
from repro.analysis.sweep import grid, run_sweep
from repro.core.streaming import simulate_stream
from repro.obs import (
    LiveExportObserver,
    LiveMetricsServer,
    MetricsRegistry,
    observe_stream,
    scrape,
)
from repro.workloads import (
    Clipped,
    Exponential,
    Uniform,
    generate_vector_trace,
    stream_trace,
)

DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
DEFAULT_SCAN_LIMIT = 100_000
DEFAULT_OBS_SIZE = 100_000
DEFAULT_SWEEP_SEEDS = 8
DEFAULT_SWEEP_ITEMS = 20_000
DEFAULT_WORKERS = 4
DEFAULT_VECTOR_SIZE = 100_000
DEFAULT_VECTOR_DIMS = (2, 4)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def workload(n_items: int, seed: int = 0):
    """Scan-heavy stream: ~100 arrivals/t.u., 20-200 t.u. sessions, big items."""
    return stream_trace(
        arrival_rate=100.0,
        duration=Clipped(Exponential(100.0), 20.0, 200.0),
        size=Uniform(0.3, 0.9),
        n_items=n_items,
        seed=seed,
    )


def _algorithms():
    return [("first-fit", FirstFit), ("best-fit", BestFit)]


def vector_workload(n_items: int, dims: int, seed: int = 0):
    """Correlated d-dimensional trace with the same session shape.

    ``generate_vector_trace`` is horizon-driven (Poisson arrivals), so the
    realised item count is ~``n_items``; rows record the exact count.
    """
    return generate_vector_trace(
        arrival_rate=100.0,
        horizon=n_items / 100.0,
        duration=Clipped(Exponential(100.0), 20.0, 200.0),
        sizes=[Uniform(0.3, 0.9)] * dims,
        correlation=0.5,
        seed=seed,
        name=f"bench-vector-{dims}d",
    )


def run_vector_baseline(
    n_items: int = DEFAULT_VECTOR_SIZE,
    dims_list=DEFAULT_VECTOR_DIMS,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
    seed: int = 0,
    scalar_indexed_ips: float | None = None,
) -> list[dict]:
    """Vector First Fit through the candidate-intersection index vs scan.

    ``scalar_indexed_ips`` is the scalar First Fit indexed throughput at
    the same trace size; when provided, each row records the slowdown of
    the vector index against it and whether it clears the <= 3x gate.
    """
    rows = []
    for dims in dims_list:
        items = list(vector_workload(n_items, dims, seed))
        n = len(items)
        t0 = time.perf_counter()
        indexed = simulate(items, FirstFit())
        indexed_s = time.perf_counter() - t0
        indexed_ips = n / indexed_s
        row = {
            "algorithm": "first-fit",
            "dims": dims,
            "n_items": n,
            "engine": "vector-indexed",
            "seconds": round(indexed_s, 3),
            "items_per_sec": round(indexed_ips),
            "bins": indexed.num_bins_used,
            "peak_open": indexed.max_bins_used,
        }
        if scalar_indexed_ips is not None:
            vs_scalar = scalar_indexed_ips / indexed_ips
            row["vs_scalar_indexed"] = round(vs_scalar, 2)
            row["within_3x_of_scalar"] = vs_scalar <= 3.0
        rows.append(row)
        msg = (
            f"vector-ff {dims}d n={n:>9,}: indexed {indexed_ips:>10,.0f} it/s"
        )
        if n_items <= scan_limit:
            t0 = time.perf_counter()
            scan = simulate(items, FirstFit(), indexed=False)
            scan_s = time.perf_counter() - t0
            if indexed != scan:
                raise AssertionError(
                    f"vector {dims}d indexed/list-scan packings diverge at {n}"
                )
            rows.append(
                {
                    "algorithm": "first-fit",
                    "dims": dims,
                    "n_items": n,
                    "engine": "vector-listscan",
                    "seconds": round(scan_s, 3),
                    "items_per_sec": round(n / scan_s),
                    "bins": scan.num_bins_used,
                    "peak_open": scan.max_bins_used,
                }
            )
            msg += (
                f", listscan {n/scan_s:>8,.0f} it/s, "
                f"speedup {scan_s/indexed_s:.1f}x"
            )
        if "vs_scalar_indexed" in row:
            msg += (
                f", {row['vs_scalar_indexed']:.2f}x scalar indexed "
                f"({'within' if row['within_3x_of_scalar'] else 'OVER'} 3x gate)"
            )
        print(msg)
    return rows


def run_observability_overhead(n_items: int, seed: int = 0) -> list[dict]:
    """Streamed run with and without the full observability stack attached.

    The observed run carries everything a production dispatch would: the
    metrics registry fed by :class:`~repro.obs.MetricsObserver`, the
    probe-counting algorithm wrapper, and a lifecycle tracer writing JSONL
    to a real file (the dominant cost — several records per session).
    """
    rows = []
    for name, algo_cls in _algorithms():
        t0 = time.perf_counter()
        plain = simulate_stream(workload(n_items, seed), algo_cls())
        plain_s = time.perf_counter() - t0

        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=True) as sink:
            t0 = time.perf_counter()
            observed, _session = observe_stream(
                workload(n_items, seed), algo_cls(), trace=sink.name
            )
            observed_s = time.perf_counter() - t0
        if observed != plain:
            raise AssertionError(
                f"{name} observed run changed the packing at {n_items}"
            )
        overhead = observed_s / plain_s
        rows.append(
            {
                "algorithm": name,
                "n_items": n_items,
                "plain_seconds": round(plain_s, 3),
                "observed_seconds": round(observed_s, 3),
                "overhead": round(overhead, 2),
                "within_2x": overhead <= 2.0,
            }
        )
        print(
            f"{name:>10} n={n_items:>9,}: plain {plain_s:.2f}s, "
            f"observed {observed_s:.2f}s (metrics+trace), "
            f"overhead {overhead:.2f}x"
        )
    return rows


def run_live_scrape_overhead(n_items: int, seed: int = 0) -> list[dict]:
    """Registry-observed streamed run with and without the live plane.

    The live run adds everything ``dispatch --serve-metrics`` would: a
    ``LiveMetricsServer`` receiving producer-rendered snapshots from a
    ``LiveExportObserver`` (republish every 1000 events) while a background
    client scrapes ``/metrics`` at ~1 Hz.  Both runs carry the metrics
    registry, so the ratio isolates the cost of *serving* telemetry from
    the already-measured cost of collecting it.
    """
    rows = []
    for name, algo_cls in _algorithms():
        t0 = time.perf_counter()
        plain, _session = observe_stream(workload(n_items, seed), algo_cls())
        plain_s = time.perf_counter() - t0

        registry = MetricsRegistry()
        stop = threading.Event()
        scrapes: list[int] = []
        with LiveMetricsServer() as server:
            live = LiveExportObserver(registry, server, publish_every=1000)

            def scraper():
                while not stop.wait(1.0):
                    try:
                        scrapes.append(len(scrape(server.port, "/metrics")))
                    except ConnectionError:
                        pass  # not ready yet: the run has not published

            client = threading.Thread(target=scraper, daemon=True)
            client.start()
            t0 = time.perf_counter()
            served, _session = observe_stream(
                workload(n_items, seed),
                algo_cls(),
                registry=registry,
                extra_observers=(live,),
            )
            served_s = time.perf_counter() - t0
            stop.set()
            client.join()
        if served != plain:
            raise AssertionError(
                f"{name} live-served run changed the packing at {n_items}"
            )
        overhead = served_s / plain_s
        rows.append(
            {
                "algorithm": name,
                "n_items": n_items,
                "observed_seconds": round(plain_s, 3),
                "live_seconds": round(served_s, 3),
                "scrapes": len(scrapes),
                "overhead": round(overhead, 2),
                "within_1_1x": overhead <= 1.1,
            }
        )
        print(
            f"{name:>10} n={n_items:>9,}: observed {plain_s:.2f}s, "
            f"live-served {served_s:.2f}s ({len(scrapes)} scrapes), "
            f"overhead {overhead:.2f}x"
        )
    return rows


def _sweep_replication(replicate: int, seed: int, n_items: int) -> dict:
    """One multi-seed sweep point: pack a freshly generated workload.

    Module-level so the sharded path can pickle it; ``seed`` arrives via
    the sweep's root-seed derivation, so serial and parallel runs see the
    same seed for the same point by construction.
    """
    summary = simulate_stream(workload(n_items, seed), FirstFit())
    return {
        "replicate": replicate,
        "seed": seed,
        "bins": summary.num_bins_used,
        "cost": float(summary.total_cost),
    }


def run_workers_scaling(
    n_seeds: int = DEFAULT_SWEEP_SEEDS,
    n_items: int = DEFAULT_SWEEP_ITEMS,
    workers: int = DEFAULT_WORKERS,
    root_seed: int = 0,
) -> dict:
    """Serial vs sharded wall-clock for a multi-seed sweep.

    The sweep is the paper-table shape: ``n_seeds`` independent seeded
    replications of a streamed First Fit packing.  Rows must be identical
    between the two runs — the benchmark asserts it — so the recorded
    speedup is for *bit-exact* parallelism, not a relaxed variant.
    """
    points = grid(replicate=list(range(n_seeds)))
    fn = partial(_sweep_replication, n_items=n_items)
    t0 = time.perf_counter()
    serial = run_sweep(fn, points, root_seed=root_seed)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_sweep(fn, points, root_seed=root_seed, workers=workers)
    parallel_s = time.perf_counter() - t0
    if parallel != serial:
        raise AssertionError("parallel sweep rows diverged from the serial run")
    speedup = serial_s / parallel_s
    row = {
        "n_seeds": n_seeds,
        "n_items": n_items,
        "workers": workers,
        "cores": os.cpu_count(),
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "rows_identical": True,
    }
    print(
        f"parallel sweep n_seeds={n_seeds}, n_items={n_items:,}: "
        f"serial {serial_s:.2f}s, {workers} workers {parallel_s:.2f}s "
        f"(speedup {speedup:.2f}x on {os.cpu_count()} core(s), rows identical)"
    )
    return row


def run_baseline(
    sizes=DEFAULT_SIZES,
    scan_limit=DEFAULT_SCAN_LIMIT,
    seed=0,
    obs_size=None,
    sweep_seeds=DEFAULT_SWEEP_SEEDS,
    sweep_items=DEFAULT_SWEEP_ITEMS,
    workers=DEFAULT_WORKERS,
    vector_size=None,
    vector_dims=DEFAULT_VECTOR_DIMS,
) -> dict:
    results = []
    speedups: dict[str, dict[str, float]] = {}
    scalar_indexed_ips: dict[int, float] = {}
    for name, algo_cls in _algorithms():
        for n_items in sizes:
            if n_items <= scan_limit:
                items = list(workload(n_items, seed))
                t0 = time.perf_counter()
                indexed = simulate(items, algo_cls())
                indexed_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                scan = simulate(items, algo_cls(), indexed=False)
                scan_s = time.perf_counter() - t0
                if indexed != scan:
                    raise AssertionError(
                        f"{name} indexed/list-scan packings diverge at {n_items}"
                    )
                if name == "first-fit":
                    scalar_indexed_ips[n_items] = n_items / indexed_s
                results.append(
                    {
                        "algorithm": name,
                        "n_items": n_items,
                        "engine": "indexed",
                        "seconds": round(indexed_s, 3),
                        "items_per_sec": round(n_items / indexed_s),
                        "bins": indexed.num_bins_used,
                        "peak_open": indexed.max_bins_used,
                    }
                )
                results.append(
                    {
                        "algorithm": name,
                        "n_items": n_items,
                        "engine": "listscan",
                        "seconds": round(scan_s, 3),
                        "items_per_sec": round(n_items / scan_s),
                        "bins": scan.num_bins_used,
                        "peak_open": scan.max_bins_used,
                    }
                )
                speedups.setdefault(name, {})[str(n_items)] = round(
                    scan_s / indexed_s, 2
                )
                print(
                    f"{name:>10} n={n_items:>9,}: indexed {n_items/indexed_s:>10,.0f} it/s, "
                    f"listscan {n_items/scan_s:>8,.0f} it/s, "
                    f"speedup {scan_s/indexed_s:.1f}x"
                )
            else:
                # Engine-only timing: the trace is generated before the timer.
                items = list(workload(n_items, seed))
                t0 = time.perf_counter()
                summary = simulate_stream(iter(items), algo_cls())
                streamed_s = time.perf_counter() - t0
                del items
                # Separate memory pass, pulling the trace from its generator.
                tracemalloc.start()
                audited = simulate_stream(workload(n_items, seed), algo_cls())
                _, peak_bytes = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                if audited != summary:
                    raise AssertionError(
                        f"{name} memory pass diverged from the timed run at {n_items}"
                    )
                results.append(
                    {
                        "algorithm": name,
                        "n_items": n_items,
                        "engine": "indexed-streamed",
                        "seconds": round(streamed_s, 3),
                        "items_per_sec": round(summary.num_items / streamed_s),
                        "bins": summary.num_bins_used,
                        "peak_open": summary.peak_open_bins,
                        "peak_mem_mb": round(peak_bytes / 1e6, 1),
                    }
                )
                print(
                    f"{name:>10} n={n_items:>9,}: streamed {summary.num_items/streamed_s:>9,.0f} it/s, "
                    f"peak mem {peak_bytes/1e6:,.1f} MB "
                    f"({summary.num_bins_used:,} bins, peak {summary.peak_open_bins:,} open)"
                )
    if obs_size is None:
        obs_size = min(DEFAULT_OBS_SIZE, max(sizes))
    if vector_size is None:
        vector_size = min(DEFAULT_VECTOR_SIZE, max(sizes))
    vector = run_vector_baseline(
        n_items=vector_size,
        dims_list=vector_dims,
        scan_limit=scan_limit,
        seed=seed,
        scalar_indexed_ips=scalar_indexed_ips.get(vector_size),
    )
    observability = run_observability_overhead(obs_size, seed)
    live_scrape = run_live_scrape_overhead(obs_size, seed)
    parallel_sweep = run_workers_scaling(
        n_seeds=sweep_seeds, n_items=sweep_items, workers=workers, root_seed=seed
    )
    return {
        "workload": {
            "arrival_rate": 100.0,
            "duration": "Clipped(Exponential(100), 20, 200)",
            "size": "Uniform(0.3, 0.9)",
            "seed": seed,
        },
        "sizes": list(sizes),
        "scan_limit": scan_limit,
        "results": results,
        "speedups": speedups,
        "vector": {
            "workload": {
                "arrival_rate": 100.0,
                "duration": "Clipped(Exponential(100), 20, 200)",
                "sizes": "Uniform(0.3, 0.9) per dimension",
                "correlation": 0.5,
                "seed": seed,
            },
            "results": vector,
        },
        "observability": observability,
        "live_scrape_overhead": live_scrape,
        "parallel_sweep": parallel_sweep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help="trace sizes to measure",
    )
    parser.add_argument(
        "--scan-limit",
        type=int,
        default=DEFAULT_SCAN_LIMIT,
        help="largest size the O(n²) list scan is run at",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--obs-size",
        type=int,
        default=None,
        help="streamed size for the observability-overhead pass "
        f"(default: min({DEFAULT_OBS_SIZE}, largest size))",
    )
    parser.add_argument(
        "--sweep-seeds",
        type=int,
        default=DEFAULT_SWEEP_SEEDS,
        help="replications in the workers-scaling sweep",
    )
    parser.add_argument(
        "--sweep-items",
        type=int,
        default=DEFAULT_SWEEP_ITEMS,
        help="items per replication in the workers-scaling sweep",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        help="worker count for the parallel-sweep pass",
    )
    parser.add_argument(
        "--vector-size",
        type=int,
        default=None,
        help="trace size for the vector pass "
        f"(default: min({DEFAULT_VECTOR_SIZE}, largest size))",
    )
    parser.add_argument(
        "--vector-dims",
        type=int,
        nargs="+",
        default=list(DEFAULT_VECTOR_DIMS),
        help="dimensionalities for the vector pass",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"record the baseline to {OUTPUT.name}",
    )
    args = parser.parse_args(argv)
    baseline = run_baseline(
        sizes=tuple(args.sizes),
        scan_limit=args.scan_limit,
        seed=args.seed,
        obs_size=args.obs_size,
        sweep_seeds=args.sweep_seeds,
        sweep_items=args.sweep_items,
        workers=args.workers,
        vector_size=args.vector_size,
        vector_dims=tuple(args.vector_dims),
    )
    if args.write:
        OUTPUT.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline written to {OUTPUT}")
    return 0


# ------------------------------------------------------------------ pytest

def test_engine_baseline_smoke():
    """Tiny-size smoke run: both engines agree and the report is complete."""
    baseline = run_baseline(
        sizes=(500, 2000),
        scan_limit=500,
        sweep_seeds=4,
        sweep_items=500,
        workers=2,
        vector_size=500,
        vector_dims=(2, 3),
    )
    engines = {r["engine"] for r in baseline["results"]}
    assert engines == {"indexed", "listscan", "indexed-streamed"}
    assert baseline["speedups"]["first-fit"]["500"] > 0
    vector_rows = baseline["vector"]["results"]
    assert {r["engine"] for r in vector_rows} == {
        "vector-indexed",
        "vector-listscan",
    }
    assert {r["dims"] for r in vector_rows} == {2, 3}
    for row in vector_rows:
        if row["engine"] == "vector-indexed":
            assert "within_3x_of_scalar" in row
    assert {row["algorithm"] for row in baseline["observability"]} == {
        "first-fit",
        "best-fit",
    }
    for row in baseline["observability"]:
        assert row["overhead"] > 0
    live_rows = baseline["live_scrape_overhead"]
    assert {row["algorithm"] for row in live_rows} == {"first-fit", "best-fit"}
    for row in live_rows:
        assert row["overhead"] > 0 and "within_1_1x" in row
    sweep = baseline["parallel_sweep"]
    assert sweep["rows_identical"] is True
    assert sweep["n_seeds"] == 4 and sweep["workers"] == 2
    assert sweep["serial_seconds"] > 0 and sweep["parallel_seconds"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
