"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 dbpbench/run.py --workload stream-ff --seed 1 --seconds 16 --trace 0

The run builds the workload's inputs from the seed, computes the output
oracle, and then keeps its passes apart:

* ``--trace 0``: set-up time from fresh interpreters (median of several),
  a memory pass that starts ``tracemalloc`` only after the inputs exist
  (it also warms the allocator), and a timed pass of repeated runs with
  no wrappers and no ``tracemalloc`` (median items/s).  Both time metrics
  are scaled to a fixed host speed (see :class:`HostClock` and
  :func:`measure_setup`); the raw figures go to the provenance line.
* ``--trace 1``: untraced runs for the overhead baseline, then two traced
  runs (see ``layers.py``) whose per-layer counts must repeat exactly.

Every run's output is checked against the oracle; a run whose check
fails, or that raises, counts all its sessions as failed.  The next to
last stdout line holds the machine and provenance block and the
workload's measured properties; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIZES = ("full", "toy")
SETUP_PROBES = {"full": 5, "toy": 2}
#: What the reference spawn before each set-up probe imports, and about
#: its time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11);
#: ``setup_s`` is scaled to that host speed.
REFERENCE_IMPORTS = "import asyncio, decimal, email.parser, fractions, json, numpy"
REFERENCE_SPAWN_S = 0.25

# name -> (unit, better); a --trace 0 run emits exactly these metrics.
END_TO_END: dict[str, tuple[str, str]] = {
    "items_per_s": ("items/s", "higher"),
    "peak_mem_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="toy: self-test inputs")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------- host speed

#: Host seconds between two samples of the reference kernel.
SAMPLE_EVERY_S = 0.02
#: About the kernel's fastest time on the reference host (Intel Xeon,
#: 2 vCPUs, Python 3.11); ``items_per_s`` is scaled to this host speed.
KERNEL_NOMINAL_NS = 100_000


def _reference_kernel() -> int:
    """Fixed pure-Python work with the engine's mix of small objects, heap
    and dict updates, and string-keyed lookups."""
    heap: list[tuple[float, int]] = []
    live: dict[int, tuple[int, float]] = {}
    for i in range(100):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i))
        live[i] = (i, i * 0.5)
        if len(heap) > 25:
            del live[heapq.heappop(heap)[1]]
    rows = [[i, i * 0.5, str(i)] for i in range(150)]
    index = {row[2]: row for row in rows}
    total = len(live)
    for row in rows:
        total += index[row[2]][0]
    return total


class HostClock:
    """Samples the host's speed while a run executes.

    Other tenants of the build host move its speed by up to 2x within
    seconds, so the raw time of a run says as much about the host as about
    the program.  Inside ``with clock:`` an interval timer interrupts the
    run every ``SAMPLE_EVERY_S`` to run a fixed reference kernel twice,
    timing the second (warm) call.  The kernel shares the host with the
    run at that moment, so the run's work time divided by the kernel's
    mean time is steady where either alone is not.  Both kernel calls are
    excluded from the run's work time (:attr:`spent_ns`).
    """

    def __init__(self) -> None:
        self.spent_ns = 0  # both kernel calls: not the program's time
        self.kernel_ns = 0  # the timed calls only
        self.samples = 0
        self._previous: Any = None

    def sample(self, *_: Any) -> None:
        # The kernel frees all it allocates, so with the collector paused
        # it neither runs nor brings forward a collection of the run's
        # objects.
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter_ns()
        _reference_kernel()
        warm = time.perf_counter_ns()
        _reference_kernel()
        done = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.spent_ns += done - began
        self.kernel_ns += done - warm
        self.samples += 1

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a run shorter than one period
            self.sample()

    def speed(self) -> float:
        """How much slower than the reference host the host ran (1 = same)."""
        return self.kernel_ns / self.samples / KERNEL_NOMINAL_NS


# ------------------------------------------------------------------ set-up


def setup_probe(args: argparse.Namespace) -> int:
    """Child side of ``setup_s``: import, build, and stamp the first event."""
    from workloads import WORKLOADS, Env

    first: list[float] = []

    def stamped(items: list[Any]) -> Any:
        def feed() -> Any:
            first.append(time.monotonic())
            yield from items

        return feed()

    workload = WORKLOADS[args.workload]
    workload.run(workload.probe(args.seed, args.size), Env(Path(args.setup_probe)), stamped)
    print(json.dumps({"first_event": first[0]}))
    return 0


def _reference_spawn() -> float:
    """Seconds to start a fresh interpreter that imports a fixed module set."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True, timeout=120, cwd=ROOT)
    return time.monotonic() - started


def measure_setup(args: argparse.Namespace, workdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first event.

    Returns each probe's host seconds and the seconds of the reference
    spawn made just before it.  The set-up time is mostly process start,
    module loading and unmarshalling, which the reference kernel does not
    track but a reference spawn does.
    """
    samples, references = [], []
    for k in range(SETUP_PROBES[args.size]):
        probe_dir = workdir / f"setup-{k}"
        probe_dir.mkdir()
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--size", args.size, "--setup-probe", str(probe_dir),
        ]
        references.append(_reference_spawn())
        spawned = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["first_event"] - spawned)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples, references


# ------------------------------------------------------------------ passes


class Ledger:
    """Attempted/failed sessions and the first few failure reasons."""

    def __init__(self, workload: Any, ref: dict[str, Any] | None, ref_error: str | None) -> None:
        self.workload = workload
        self.ref = ref
        self.ref_error = ref_error
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None

    def record(self, n_items: int, out: Any = None, error: str | None = None) -> bool:
        """Check one run's output; returns whether it passed."""
        self.attempted += n_items
        problems = [error] if error else []
        if not problems:
            if self.ref is None:
                problems = [f"oracle failed: {self.ref_error}"]
            else:
                problems = self.workload.check(out, self.ref)
                digest = self.workload.digest(out)
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    problems.append("output differs from the first run on the same input")
        if problems:
            self.failed += n_items
            for problem in problems:
                if problem not in self.errors and len(self.errors) < 8:
                    self.errors.append(problem)
        return not problems


def one_run(
    workload: Any, inputs: Any, env: Any, clock: HostClock | None = None
) -> tuple[int, Any, str | None]:
    """Run the workload once: (host ns, output or None, error or None)."""
    gc.collect()
    started = time.perf_counter_ns()
    try:
        with clock or contextlib.nullcontext():
            out, error = workload.run(inputs, env), None
    except Exception as exc:  # the program failed: count it, keep measuring
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - started, out, error


def memory_pass(workload: Any, inputs: Any, env: Any, ledger: Ledger) -> float:
    """Peak traced allocation (MB) of one run; the inputs predate the trace."""
    gc.collect()
    tracemalloc.start()
    try:
        _, out, error = one_run(workload, inputs, env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ledger.record(len(inputs.items), out, error)
    env.clear()
    return peak / 1e6


def timed_pass(
    workload: Any, inputs: Any, env: Any, ledger: Ledger, seconds: float
) -> tuple[list[float], list[float], Any]:
    """Repeat runs for about ``seconds`` (at least three).

    Returns each run's work seconds (kernel time excluded), the host's
    slowness factor during it, and the first run's output.
    """
    works: list[float] = []
    speeds: list[float] = []
    first = None
    started = time.perf_counter()
    while len(works) < 3 or time.perf_counter() - started + statistics.fmean(works) <= seconds:
        clock = HostClock()
        wall_ns, out, error = one_run(workload, inputs, env, clock)
        works.append((wall_ns - clock.spent_ns) * 1e-9)
        speeds.append(clock.speed())
        ledger.record(len(inputs.items), out, error)
        env.clear()
        first = first if first is not None else out
    return works, speeds, first


def traced_pass(
    workload: Any, inputs: Any, env: Any, ledger: Ledger, untraced_s: float
) -> dict[str, float]:
    """Two traced runs; times are their mean, counts must repeat exactly."""
    from layers import COUNT_METRICS, PER_LAYER, Tracer

    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            wall_ns, out, error = one_run(workload, inputs, env)
        finally:
            tracer.uninstall()
        if not ledger.record(len(inputs.items), out, error):
            return {name: 0.0 for name in PER_LAYER}
        env.clear()
        metrics = tracer.layer_metrics(wall_ns)
        metrics.update(workload.layer_counts(out, tracer.counts, len(inputs.items)))
        metrics["trace.wall_s"] = wall_ns * 1e-9
        runs.append(metrics)
    first, second = runs
    moved = [name for name in COUNT_METRICS if first[name] != second[name]]
    if moved:
        ledger.failed += 2 * len(inputs.items)
        ledger.errors.append(f"per-layer counts differ between traced runs: {moved}")
    merged = {
        name: first[name] if name in COUNT_METRICS else (first[name] + second[name]) / 2
        for name in PER_LAYER
    }
    merged["trace.overhead_ratio"] = (first["trace.wall_s"] + second["trace.wall_s"]) / 2 / untraced_s
    return merged


# -------------------------------------------------------------- provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) > 2 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def _git_commit() -> str | None:
    """HEAD of the repository rooted exactly here (plain checkouts have none)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "scratch_dir": str(workdir.relative_to(ROOT)),
        "scratch_fs": _filesystem(workdir),
    }


# -------------------------------------------------------------------- main


def measure(args: argparse.Namespace, workload: Any, workdir: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    """All passes of one run: (result object, provenance line)."""
    from workloads import Env

    env = Env(workdir)
    started = time.perf_counter()
    inputs = workload.inputs(args.seed, args.size)
    timings: dict[str, Any] = {"inputs_s": time.perf_counter() - started}
    try:
        ref, ref_error = workload.reference(inputs, env), None
    except Exception as exc:  # the program failed under the oracle
        ref, ref_error = None, f"{type(exc).__name__}: {exc}"
    env.clear()
    timings["oracle_s"] = time.perf_counter() - started - timings["inputs_s"]
    # A streamed source would not keep the pre-built inputs alive, so the
    # collector should not keep traversing them during the measured runs.
    gc.collect()
    gc.freeze()
    ledger = Ledger(workload, ref, ref_error)
    n = len(inputs.items)

    if args.trace == 0:
        setup, references = measure_setup(args, workdir)
        peak_mb = memory_pass(workload, inputs, env, ledger)
        works, speeds, first = timed_pass(workload, inputs, env, ledger, args.seconds)
        metrics = {
            "items_per_s": statistics.median(n / work * speed for work, speed in zip(works, speeds)),
            "peak_mem_mb": peak_mb,
            "setup_s": statistics.median(
                t / ref * REFERENCE_SPAWN_S for t, ref in zip(setup, references)
            ),
        }
        units = END_TO_END
        timings.update(
            run_s=works,
            host_speed=speeds,
            raw_items_per_s=statistics.median(n / work for work in works),
            setup_s=setup,
            setup_reference_s=references,
        )
    else:
        from layers import PER_LAYER

        works, speeds, first = timed_pass(workload, inputs, env, ledger, args.seconds / 2)
        metrics = traced_pass(workload, inputs, env, ledger, statistics.median(works))
        units = PER_LAYER
        timings.update(run_s=works, host_speed=speeds)

    line = {
        "provenance": provenance(args, workdir),
        "properties": workload.properties(first) if first is not None else {},
        "timings": timings,
        "errors": ledger.errors,
    }
    result = {
        "correct": ledger.failed == 0 and not ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return result, line


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, line = measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(line, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
