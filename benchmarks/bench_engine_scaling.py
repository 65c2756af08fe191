"""Record the engine ratios the docs cite into ``BENCH_engine.json``.

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py

Every row but ``repack`` runs on the scan-heavy stream of ``dbpbench``'s
``stream-ff`` workload (arrival rate 100, ``Clipped(Exponential(100), 20,
200)`` sessions, ``Uniform(0.3, 0.9)`` sizes, seed 0; thousands of open
bins):

* ``index``: record-mode ``simulate`` vs its list scan (``indexed=False``),
  First Fit and Best Fit, 10k items (a 100k list scan takes over a minute);
* ``vector``: First Fit on 2-D and 4-D demand (same sessions, correlation
  0.5): cost per item vs scalar First Fit at 100k, list scan vs index at 2k;
* ``observed``: ``observe_stream`` (metrics, JSONL tracer on disk) vs plain
  ``simulate_stream``, and ``live``: that run plus ``LiveMetricsServer`` and
  a client scraping about once a second vs without, FF and BF at 100k;
* ``memory``: ``tracemalloc`` peak of ``simulate_stream`` pulling the
  generator, 10k and 100k, in an untimed pass of its own;
* ``repack``: ``simulate_stream`` with First Fit and ``BoundedRepacker(1)``
  vs First Fit alone on the migration probe of
  ``tests/test_obs_migration.py`` (2,000 ``stream_trace`` sessions, seed 3;
  about a dozen open bins) with float, ``Fraction`` and 2-D sizes, and the
  number of migrations;
* ``catalogue``: wall time of every experiment, serial and at 2 workers.

Inputs are built before the timer starts.  A ratio is the median and
quartiles over pairs whose order alternates (5 pairs at 10k items and
below, 3 at 100k); both sides of every pair must compute the same result.
Exit status 1 means a structural gate failed: the index is less than 5x
the list scan at 10k, the 100k memory peak exceeds twice the 10k peak, or
an equivalence check failed (including two repeats of a ``repack`` run
that disagree on the summary or the migration count).  Other ratios are
recorded without a bar.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import tempfile
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

from repro import BestFit, FirstFit, simulate
from repro.core.item import Item
from repro.core.resources import Resources
from repro.core.streaming import simulate_stream
from repro.experiments import available_experiments, run_experiments
from repro.experiments.io import results_to_json
from repro.obs import LiveExportObserver, LiveMetricsServer, MetricsRegistry, observe_stream, scrape
from repro.renting import BoundedRepacker
from repro.workloads import Clipped, Exponential, Uniform, generate_vector_trace, stream_trace

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
ALGORITHMS = {"first-fit": FirstFit, "best-fit": BestFit}
SMALL, LARGE, VECTOR_SCAN = 10_000, 100_000, 2_000
PAIRS = {SMALL: 5, LARGE: 3, VECTOR_SCAN: 5}
DURATION = Clipped(Exponential(100.0), 20.0, 200.0)
SIZE = Uniform(0.3, 0.9)
#: The migration probe of tests/test_obs_migration.py, at its full size.
PROBE = dict(
    arrival_rate=5, duration=Clipped(Exponential(20), 2, 60), size=Uniform(0.05, 0.6), seed=3
)
PROBE_ITEMS, PROBE_PAIRS = 2_000, 5


def stream(n_items: int):
    return stream_trace(arrival_rate=100.0, duration=DURATION, size=SIZE, n_items=n_items, seed=0)


def vector_items(n_items: int, dims: int) -> list:
    """About ``n_items`` (Poisson arrivals); rows record the realised count."""
    trace = generate_vector_trace(
        arrival_rate=100.0, horizon=n_items / 100.0, duration=DURATION,
        sizes=[SIZE] * dims, correlation=0.5, seed=0,
    )
    return list(trace)


def probe_items(kind: str) -> list:
    """The probe's sessions: float, exact (times on a 1/8 grid, sizes on a
    1/64 grid, as ``Fraction``) or 2-D (``(s, 0.65 - s)``)."""
    items = []
    for item in stream_trace(n_items=PROBE_ITEMS, **PROBE):
        if kind == "fraction":
            item = Item(
                Fraction(round(item.arrival * 8), 8),
                Fraction(round(item.departure * 8), 8),
                Fraction(round(item.size * 64), 64),
                item.item_id,
            )
        elif kind == "2d":
            size = Resources(item.size, 0.65 - item.size)
            item = Item(item.arrival, item.departure, size, item.item_id)
        items.append(item)
    return items


def clocked(fn):
    """``(output, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def paired(n_pairs: int, base, other, scale: float = 1.0):
    """``other``'s time over ``base``'s (times ``scale``): median and quartiles
    over pairs whose order alternates, plus both outputs of every pair."""
    ratios, base_s, other_s, outputs = [], [], [], []
    for i in range(n_pairs):
        if i % 2 == 0:
            (ob, tb), (oo, to) = clocked(base), clocked(other)
        else:
            (oo, to), (ob, tb) = clocked(other), clocked(base)
        base_s.append(tb)
        other_s.append(to)
        outputs.append((ob, oo))
        ratios.append(to / tb * scale)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    stats = {"pairs": n_pairs, "ratio": round(median, 2), "ratio_q1": round(q1, 2)}
    stats["ratio_q3"] = round(q3, 2)
    stats["base_s"] = round(statistics.median(base_s), 3)
    stats["other_s"] = round(statistics.median(other_s), 3)
    return stats, outputs


def index_rows(items: list) -> tuple[dict, object]:
    """List scan over index; also returns the timed First Fit result."""
    rows, results = {}, {}
    for name, algo in ALGORITHMS.items():
        stats, outputs = paired(
            PAIRS[SMALL],
            lambda: simulate(items, algo()),
            lambda: simulate(items, algo(), indexed=False),
        )
        results[name] = result = outputs[0][0]
        rows[name] = {
            "n_items": len(items),
            **stats,
            "bins": result.num_bins_used,
            "peak_open": result.max_bins_used,
            "packings_equal": all(a == b for a, b in outputs),
        }
    return rows, results["first-fit"]


def vector_rows(scalar_items: list) -> tuple[dict, object]:
    """Vector over scalar per item, and list scan over index; also returns
    the timed scalar First Fit result."""
    rows = {}
    for dims in (2, 4):
        items = vector_items(LARGE, dims)
        stats, outputs = paired(
            PAIRS[LARGE],
            lambda: simulate(scalar_items, FirstFit()),
            lambda: simulate(items, FirstFit()),
            scale=len(scalar_items) / len(items),
        )
        scalar = outputs[0][0]
        rows[f"{dims}d_per_item_vs_scalar"] = {
            "n_items": len(items), "scalar_n_items": len(scalar_items), **stats
        }
        items = vector_items(VECTOR_SCAN, dims)
        stats, outputs = paired(
            PAIRS[VECTOR_SCAN],
            lambda: simulate(items, FirstFit()),
            lambda: simulate(items, FirstFit(), indexed=False),
        )
        rows[f"{dims}d_listscan_vs_indexed"] = {
            "n_items": len(items),
            **stats,
            "packings_equal": all(a == b for a, b in outputs),
        }
    return rows, scalar


def live_run(items: list, algo, trace: str):
    """The observed run with the live endpoint served and scraped."""
    registry = MetricsRegistry()
    stop = threading.Event()
    scrapes: list[int] = []
    with LiveMetricsServer() as server:
        live = LiveExportObserver(registry, server, publish_every=1000)

        def client() -> None:
            while not stop.wait(1.0):
                try:
                    scrapes.append(len(scrape(server.port, "/metrics")))
                except ConnectionError:
                    pass  # nothing published yet

        scraper = threading.Thread(target=client, daemon=True)
        scraper.start()
        try:
            summary, _ = observe_stream(
                iter(items), algo(), trace=trace, registry=registry, extra_observers=(live,)
            )
        finally:
            stop.set()
            scraper.join(timeout=10.0)
    return summary, len(scrapes)


def observer_rows(items: list) -> tuple[dict, dict]:
    """Observed over plain, and live-served over observed."""
    observed, live = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        trace = str(Path(tmp, "trace.jsonl"))
        for name, algo in ALGORITHMS.items():
            stats, outputs = paired(
                PAIRS[LARGE],
                lambda: simulate_stream(iter(items), algo()),
                lambda: observe_stream(iter(items), algo(), trace=trace)[0],
            )
            plain = outputs[0][0]
            observed[name] = {
                "n_items": len(items), **stats, "summaries_equal": all(a == b for a, b in outputs)
            }
            stats, outputs = paired(
                PAIRS[LARGE],
                lambda: observe_stream(iter(items), algo(), trace=trace)[0],
                lambda: live_run(items, algo, trace),
            )
            live[name] = {
                "n_items": len(items),
                **stats,
                "scrapes": min(scrapes for _, (_, scrapes) in outputs),
                "summaries_equal": all(a == b == plain for a, (b, _) in outputs),
            }
    return observed, live


def memory_rows(timed: dict) -> dict:
    """Peak traced memory per size; ``timed`` maps a size to its timed result."""
    rows = {}
    for n_items, result in timed.items():
        tracemalloc.start()
        try:
            summary = simulate_stream(stream(n_items), FirstFit())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows[str(n_items)] = {
            "peak_mb": round(peak / 1e6, 2),
            "peak_open": summary.peak_open_bins,
            "matches_timed_run": (summary.num_bins_used, summary.peak_open_bins)
            == (result.num_bins_used, result.max_bins_used)
            and math.isclose(summary.total_cost, result.total_cost(), rel_tol=1e-9),
        }
    rows["ratio"] = round(rows[str(LARGE)]["peak_mb"] / rows[str(SMALL)]["peak_mb"], 2)
    return rows


def repack_rows() -> dict:
    """First Fit + ``BoundedRepacker(1)`` over First Fit alone, per size type."""
    rows = {}
    for kind in ("float", "fraction", "2d"):
        items = probe_items(kind)

        def repacked():
            repacker = BoundedRepacker(1)
            summary = simulate_stream(iter(items), FirstFit(), repacker=repacker)
            return summary, repacker.migrations_done

        stats, outputs = paired(
            PROBE_PAIRS, lambda: simulate_stream(iter(items), FirstFit()), repacked
        )
        rows[kind] = {
            "n_items": len(items),
            **stats,
            "migrations": outputs[0][1][1],
            "repeats_agree": all(pair == outputs[0] for pair in outputs),
        }
    return rows


def catalogue_row() -> dict:
    names = available_experiments()
    serial, serial_s = clocked(lambda: results_to_json(run_experiments(names)))
    sharded, sharded_s = clocked(lambda: results_to_json(run_experiments(names, parallel=2)))
    return {
        "experiments": len(names),
        "serial_s": round(serial_s, 1),
        "parallel_2_s": round(sharded_s, 1),
        "speedup": round(serial_s / sharded_s, 2),
        "artifacts_equal": serial == sharded,
    }


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [
        line.split(":", 1)[1].strip()
        for line in (cpuinfo.read_text().splitlines() if cpuinfo.exists() else ())
        if line.startswith("model name")
    ]
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=OUTPUT.parent, capture_output=True, text=True, check=False,
    ).stdout.strip()
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(cores) if cores is not None else os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "commit": commit or "unknown",
    }


def gates(rows: dict) -> dict:
    checks = [
        *(row["packings_equal"] for row in rows["index"].values()),
        *(row.get("packings_equal", True) for row in rows["vector"].values()),
        *(row["summaries_equal"] for row in (*rows["observed"].values(), *rows["live"].values())),
        *(rows["memory"][str(n)]["matches_timed_run"] for n in (SMALL, LARGE)),
        *(row["repeats_agree"] for row in rows["repack"].values()),
        rows["catalogue"]["artifacts_equal"],
    ]
    return {
        "index_first_fit_at_least_5x": rows["index"]["first-fit"]["ratio"] >= 5,
        "index_best_fit_at_least_5x": rows["index"]["best-fit"]["ratio"] >= 5,
        "memory_100k_at_most_2x_10k": rows["memory"]["ratio"] <= 2,
        "equivalence_checks": all(checks),
    }


def main() -> int:
    started = time.perf_counter()
    rows = {}
    rows["index"], small = index_rows(list(stream(SMALL)))
    items = list(stream(LARGE))
    rows["vector"], large = vector_rows(items)
    rows["observed"], rows["live"] = observer_rows(items)
    rows["memory"] = memory_rows({SMALL: small, LARGE: large})
    rows["repack"] = repack_rows()
    rows["catalogue"] = catalogue_row()
    record = {
        "machine": machine(),
        "workload": "stream_trace(arrival_rate=100, duration=Clipped(Exponential(100), 20, 200), "
        "size=Uniform(0.3, 0.9), seed=0); vector rows: that size per dimension, correlation 0.5; "
        "repack rows: stream_trace(arrival_rate=5, duration=Clipped(Exponential(20), 2, 60), "
        "size=Uniform(0.05, 0.6), seed=3), 2,000 sessions",
        "rows": rows,
        "gates": gates(rows),
        "wall_s": round(time.perf_counter() - started, 1),
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(rows, indent=1))
    print(f"wrote {OUTPUT.name} in {record['wall_s']} s; gates: {record['gates']}")
    return 0 if all(record["gates"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
