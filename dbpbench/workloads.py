"""The four benchmark workloads: inputs, one run, and the output oracle.

Every workload is a single-threaded, socket-free use of the library:

* ``stream-ff``     — ``dispatch_stream`` + First Fit on the scan-heavy
  stream of ``benchmarks/bench_engine_scaling.py`` (index churn).
* ``supervised-bf`` — ``supervised_dispatch_stream`` + Best Fit on small
  items, with observers, a checkpoint store and one injected crash.
* ``faulty-mff``    — ``dispatch_faulty_stream`` + Modified First Fit on a
  scaled cloud-gaming day with crashes, retries and a circuit breaker.
* ``exact-ratio``   — the paper's exact measurement pipeline: record-mode
  ``simulate``, ``compare_algorithms`` against the OPT bracket, and the
  bounded-migration repacker, all in ``Fraction`` arithmetic.

Inputs come from the library's own generators, seeded by the benchmark
seed, and are built before any timing starts.  ``run`` is one timed unit
of work; ``reference`` and ``check`` are the oracle, run outside the
timed region.  The oracle works for any seed; for the seeds pinned in
``pins.json`` the output digest must also match.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from typing import Any, Callable, Iterable, Iterator

from repro.algorithms import BestFit, FirstFit, ModifiedFirstFit
from repro.analysis import bounds, ratio
from repro.cloud import dispatcher, faults
from repro.core import simulator, streaming
from repro.core.item import Item
from repro.core.telemetry import SimulationObserver
from repro.obs import observer, tracing
from repro.renting import repack
from repro.resilience import retry, store, supervisor
from repro.workloads import (
    Clipped,
    DiurnalPattern,
    Exponential,
    Uniform,
    generate_gaming_trace,
    generate_trace,
    stream_trace,
)

PINS_PATH = Path(__file__).with_name("pins.json")

#: ``source(items)`` turns the prepared item list into the driver's input.
Source = Callable[[list[Item]], Iterable[Item]]


@dataclass
class Inputs:
    seed: int
    size: str
    items: list[Item]


@dataclass
class Env:
    """Scratch space of one benchmark process (inside the checkout)."""

    workdir: Path
    _runs: int = field(default=0)

    def fresh_dir(self) -> Path:
        self._runs += 1
        path = self.workdir / f"run-{self._runs}"
        path.mkdir(parents=True)
        return path

    def clear(self) -> None:
        for path in self.workdir.glob("run-*"):
            shutil.rmtree(path, ignore_errors=True)


def _canonical_digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _summary(summary: streaming.StreamSummary) -> dict[str, str]:
    return {f.name: repr(getattr(summary, f.name)) for f in fields(summary)}


def load_pins() -> dict[str, dict[str, str]]:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text())


class Workload:
    """One workload; subclasses fill in the hooks below."""

    name = ""
    sizes: dict[str, dict[str, Any]] = {}

    def inputs(self, seed: int, size: str) -> Inputs:
        raise NotImplementedError

    def probe(self, seed: int, size: str) -> Inputs:
        """A one-session input for the set-up probe (no generator call)."""
        return Inputs(seed, size, [Item(arrival=0.0, departure=1.0, size=0.5, item_id="probe-0")])

    def run(self, inp: Inputs, env: Env, source: Source = iter) -> Any:
        raise NotImplementedError

    def reference(self, inp: Inputs, env: Env) -> dict[str, Any]:
        raise NotImplementedError

    def check(self, out: Any, ref: dict[str, Any]) -> list[str]:
        raise NotImplementedError

    def canonical(self, out: Any) -> Any:
        raise NotImplementedError

    def layer_counts(self, out: Any, counts: dict[str, int], n_items: int) -> dict[str, float]:
        """Per-layer metrics that come from the run's own output."""
        raise NotImplementedError

    def properties(self, out: Any) -> dict[str, Any]:
        """Measured workload properties, for the provenance line."""
        raise NotImplementedError

    # ----------------------------------------------------------- shared

    def digest(self, out: Any) -> str:
        return _canonical_digest(self.canonical(out))

    def pin(self, inp: Inputs) -> str | None:
        if inp.size != "full":
            return None
        return load_pins().get(self.name, {}).get(str(inp.seed))

    def _pin_errors(self, out: Any, ref: dict[str, Any]) -> list[str]:
        pin = ref.get("pin")
        if pin is not None and self.digest(out) != pin:
            return [f"output digest differs from the pinned digest for this seed ({pin[:12]}…)"]
        return []


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- stream-ff


def _engine_stream(n_items: int, size: Uniform, seed: int) -> list[Item]:
    """The scan-heavy stream of ``BENCH_engine.json``: rate 100, long sessions."""
    return list(
        stream_trace(
            arrival_rate=100.0,
            duration=Clipped(Exponential(100.0), 20.0, 200.0),
            size=size,
            n_items=n_items,
            seed=seed,
        )
    )


class StreamFF(Workload):
    name = "stream-ff"
    sizes = {
        "full": {"n_items": 25_000, "prefix": 2_000},
        "toy": {"n_items": 2_000, "prefix": 300},
    }

    def inputs(self, seed: int, size: str) -> Inputs:
        p = self.sizes[size]
        return Inputs(seed, size, _engine_stream(p["n_items"], Uniform(0.3, 0.9), seed))

    def run(self, inp: Inputs, env: Env, source: Source = iter) -> Any:
        # The default ServerType bills by the started hour.
        return dispatcher.dispatch_stream(
            source(inp.items), FirstFit(), server_type=dispatcher.ServerType()
        )

    def reference(self, inp: Inputs, env: Env) -> dict[str, Any]:
        prefix = inp.items[: self.sizes[inp.size]["prefix"]]
        scan = streaming.simulate_stream(
            iter(prefix), FirstFit(), capacity=1.0, cost_rate=1.0, indexed=False
        )
        indexed = self.run(Inputs(inp.seed, inp.size, prefix), env).summary
        return {
            "prefix_scan": scan,
            "prefix_indexed": indexed,
            "n_items": len(inp.items),
            "demand": math.fsum(it.size * it.length for it in inp.items),
            "one_bin_each": math.fsum(it.length for it in inp.items),
            "pin": self.pin(inp),
        }

    def check(self, out: Any, ref: dict[str, Any]) -> list[str]:
        errors = []
        if ref["prefix_indexed"] != ref["prefix_scan"]:
            errors.append("indexed First Fit differs from the list scan on the prefix")
        s = out.summary
        if s.num_items != ref["n_items"]:
            errors.append(f"{s.num_items} sessions served, expected {ref['n_items']}")
        tol = 1e-9 * ref["one_bin_each"]
        if not ref["demand"] - tol <= s.total_bin_time <= ref["one_bin_each"] + tol:
            errors.append("server time outside [total demand, one server per session]")
        if s.peak_open_bins > s.num_bins_used:
            errors.append("peak open servers exceed servers rented")
        if out.billed_cost < s.total_cost - tol:
            errors.append("hourly billed cost below the continuous cost")
        return errors + self._pin_errors(out, ref)

    def canonical(self, out: Any) -> Any:
        return {"summary": _summary(out.summary), "billed": repr(out.billed_cost)}

    def layer_counts(self, out: Any, counts: dict[str, int], n_items: int) -> dict[str, float]:
        s = out.summary
        return {"core.bin_index.opened_per_peak": _ratio(s.num_bins_used, s.peak_open_bins)}

    def properties(self, out: Any) -> dict[str, Any]:
        s = out.summary
        return {
            "sessions": s.num_items,
            "bins_opened": s.num_bins_used,
            "peak_open_bins": s.peak_open_bins,
            "opened_per_peak": _ratio(s.num_bins_used, s.peak_open_bins),
        }


# ------------------------------------------------------------ supervised-bf


class InjectedCrash(RuntimeError):
    """The one crash each supervised run recovers from."""


def _crash_at(items: Iterable[Item], position: int) -> Iterator[Item]:
    for i, item in enumerate(items):
        if i == position:
            raise InjectedCrash(f"injected crash before session {position}")
        yield item


@dataclass
class SupervisedOut:
    report: Any  # SupervisedDispatchReport
    active_per_checkpoint: list[int]
    trace_bytes: int


class SupervisedBF(Workload):
    name = "supervised-bf"
    sizes = {
        "full": {"n_items": 16_000, "checkpoint_every": 8_000},
        "toy": {"n_items": 1_500, "checkpoint_every": 600},
    }

    def inputs(self, seed: int, size: str) -> Inputs:
        p = self.sizes[size]
        return Inputs(seed, size, _engine_stream(p["n_items"], Uniform(0.01, 0.1), seed))

    def run(self, inp: Inputs, env: Env, source: Source = iter) -> Any:
        p = self.sizes[inp.size]
        rundir = env.fresh_dir()
        checkpoints = store.CheckpointStore(rundir / "store", keep=2)
        attempts: list[int] = []
        handles: list[Any] = []
        tracers: list[tracing.LifecycleTracer] = []
        active: list[int] = []

        def stream() -> Iterable[Item]:
            attempts.append(len(attempts) + 1)
            items = source(inp.items)
            # The first attempt dies halfway; the supervisor resumes it.
            return _crash_at(items, p["n_items"] // 2) if len(attempts) == 1 else items

        def observers() -> tuple[SimulationObserver, ...]:
            handle = open(rundir / f"trace-{len(attempts)}.jsonl", "w", encoding="utf-8", newline="\n")
            handles.append(handle)
            tracer = tracing.LifecycleTracer(handle, algorithm="best-fit", capacity=1.0, cost_rate=1.0)
            tracers.append(tracer)
            return (observer.MetricsObserver(), tracer)

        def on_checkpoint(generation: int, checkpoint: Any) -> None:
            active.append(len(checkpoint.active))

        try:
            result = supervisor.supervised_dispatch_stream(
                stream,
                BestFit,
                store=checkpoints,
                checkpoint_every=p["checkpoint_every"],
                server_type=dispatcher.ServerType(),
                observer_factory=observers,
                recover_on=(InjectedCrash,),
                checkpoint_hook=on_checkpoint,
            )
            tracers[-1].finish(result.report.summary)
        finally:
            for handle in handles:
                handle.close()
        trace_bytes = sum(path.stat().st_size for path in rundir.glob("trace-*.jsonl"))
        return SupervisedOut(result, active, trace_bytes)

    def reference(self, inp: Inputs, env: Env) -> dict[str, Any]:
        plain = dispatcher.dispatch_stream(
            iter(inp.items), BestFit(), server_type=dispatcher.ServerType()
        )
        return {"summary": plain.summary, "billed": plain.billed_cost, "pin": self.pin(inp)}

    def check(self, out: Any, ref: dict[str, Any]) -> list[str]:
        errors = []
        report, stats = out.report.report, out.report.stats
        if report.summary != ref["summary"]:
            errors.append("supervised summary differs from the uninterrupted dispatch")
        if report.billed_cost != ref["billed"]:
            errors.append("supervised billed cost differs from the uninterrupted dispatch")
        if stats.crashes != 1:
            errors.append(f"{stats.crashes} restarts, expected exactly 1")
        return errors + self._pin_errors(out, ref)

    def canonical(self, out: Any) -> Any:
        report, stats = out.report.report, out.report.stats
        return {
            "summary": _summary(report.summary),
            "billed": repr(report.billed_cost),
            "crashes": stats.crashes,
            "checkpoints_written": stats.checkpoints_written,
            "resumed_generations": list(stats.resumed_generations),
            "active_per_checkpoint": out.active_per_checkpoint,
            "trace_bytes": out.trace_bytes,
        }

    def layer_counts(self, out: Any, counts: dict[str, int], n_items: int) -> dict[str, float]:
        s = out.report.report.summary
        events = counts.get("core.simulator.arrivals", 0) + counts.get("core.simulator.departures", 0)
        return {
            "core.bin_index.opened_per_peak": _ratio(s.num_bins_used, s.peak_open_bins),
            "obs.trace_bytes": out.trace_bytes,
            "resilience.supervisor.restarts": out.report.stats.crashes,
            "resilience.supervisor.replay_ratio": _ratio(events, 2 * n_items),
        }

    def properties(self, out: Any) -> dict[str, Any]:
        s = out.report.report.summary
        return {
            "sessions": s.num_items,
            "bins_opened": s.num_bins_used,
            "peak_open_bins": s.peak_open_bins,
            "opened_per_peak": _ratio(s.num_bins_used, s.peak_open_bins),
            "checkpoints": out.report.stats.checkpoints_written,
            "active_sessions_per_checkpoint": fmean(out.active_per_checkpoint or [0]),
            "restarts": out.report.stats.crashes,
        }


# --------------------------------------------------------------- faulty-mff


class _UsageRecorder(SimulationObserver):
    """Collects every server's usage length as it is released or revoked."""

    def __init__(self) -> None:
        self.usages: list[Any] = []

    def on_departure(self, time: Any, item_id: str, bin: Any, closed: bool) -> None:
        if closed:
            self.usages.append(bin.usage_length)

    def on_server_failure(self, time: Any, bin: Any, evicted: Any) -> None:
        self.usages.append(bin.usage_length)


class FaultyMFF(Workload):
    name = "faulty-mff"
    # ``scale`` multiplies the default diurnal intensity (about 1k
    # sessions a day); failures are per minute of the day.
    sizes = {
        "full": {"scale": 30.0, "failure_rate": 0.75},
        "toy": {"scale": 1.0, "failure_rate": 0.05},
    }

    def inputs(self, seed: int, size: str) -> Inputs:
        scale = self.sizes[size]["scale"]
        day = generate_gaming_trace(
            pattern=DiurnalPattern(base_rate=0.2 * scale, amplitude=1.0 * scale), seed=seed
        )
        return Inputs(seed, size, list(day.items))

    def probe(self, seed: int, size: str) -> Inputs:
        item = Item(arrival=0.0, departure=30.0, size=0.1, item_id="probe-0", tag="fez")
        return Inputs(seed, size, [item])

    def _faults(self, inp: Inputs) -> dict[str, Any]:
        return {
            "injector": faults.FaultInjector(
                rate=self.sizes[inp.size]["failure_rate"], model=faults.CRASH, seed=inp.seed
            ),
            "recovery": faults.RECONNECT,
            "retry_policy": retry.RetryPolicy(seed=inp.seed),
            # Keyed by the session tag, i.e. by game title.
            "breaker": retry.CircuitBreaker(),
        }

    def run(self, inp: Inputs, env: Env, source: Source = iter) -> Any:
        return faults.dispatch_faulty_stream(
            source(inp.items),
            ModifiedFirstFit(),
            server_type=dispatcher.ServerType(),
            observers=(observer.MetricsObserver(),),
            **self._faults(inp),
        )

    def reference(self, inp: Inputs, env: Env) -> dict[str, Any]:
        faulty_usage, replay_usage = _UsageRecorder(), _UsageRecorder()
        faulty = faults.simulate_faulty_stream(
            iter(inp.items),
            ModifiedFirstFit(),
            capacity=1.0,
            cost_rate=1.0,
            observers=(faulty_usage,),
            record_induced=True,
            **self._faults(inp),
        )
        replay = simulator.simulate(
            faulty.induced_items,
            ModifiedFirstFit(),
            capacity=1.0,
            cost_rate=1.0,
            observers=(replay_usage,),
        )
        return {
            "summary": faulty.summary,
            "report": faulty.report.to_json(),
            "replay_agrees": (
                replay.num_bins_used == faulty.summary.num_bins_used
                and replay.max_bins_used == faulty.summary.peak_open_bins
                and sorted(faulty_usage.usages) == sorted(replay_usage.usages)
            ),
            "pin": self.pin(inp),
        }

    def check(self, out: Any, ref: dict[str, Any]) -> list[str]:
        errors = []
        if not ref["replay_agrees"]:
            errors.append("replaying the induced trace through simulate gives another packing")
        if out.summary != ref["summary"]:
            errors.append("faulty dispatch summary differs from simulate_faulty_stream")
        if out.report.to_json() != ref["report"]:
            errors.append("fault report differs from simulate_faulty_stream")
        if out.report.num_failures == 0:
            errors.append("no server failed; the workload must exercise recovery")
        return errors + self._pin_errors(out, ref)

    def canonical(self, out: Any) -> Any:
        return {
            "summary": _summary(out.summary),
            "billed": repr(out.billed_cost),
            "report": out.report.to_json(),
        }

    def layer_counts(self, out: Any, counts: dict[str, int], n_items: int) -> dict[str, float]:
        s, r = out.summary, out.report
        return {
            "core.bin_index.opened_per_peak": _ratio(s.num_bins_used, s.peak_open_bins),
            "cloud.faults.failures": r.num_failures,
            "cloud.faults.evictions": r.sessions_evicted,
            "cloud.faults.redispatch_share": _ratio(r.sessions_redispatched, s.num_items),
            "resilience.retry.delayed": r.sessions_delayed,
            "resilience.retry.breaker_trips": r.breaker_trips,
        }

    def properties(self, out: Any) -> dict[str, Any]:
        s, r = out.summary, out.report
        return {
            "admissions": s.num_items,
            "bins_opened": s.num_bins_used,
            "peak_open_bins": s.peak_open_bins,
            "opened_per_peak": _ratio(s.num_bins_used, s.peak_open_bins),
            "failures": r.num_failures,
            "redispatch_share": _ratio(r.sessions_redispatched, s.num_items),
            "breaker_trips": r.breaker_trips,
        }


# -------------------------------------------------------------- exact-ratio


@dataclass
class ExactOut:
    repacked: Any  # PackingResult of First Fit + BoundedRepacker(1)
    repacked_cost: Any
    evacuations: int
    measured: list[Any]  # RatioMeasurement per algorithm
    repack_s: float
    compare_s: float


def _exact_items(items: Iterable[Item]) -> list[Item]:
    """Integer times, sizes on the 1/60 grid, durations in [1, 16]."""
    return [
        Item(
            arrival=int(it.arrival),
            departure=int(it.arrival) + min(16, int(it.length)),
            size=Fraction(max(1, round(60 * it.size)), 60),
            item_id=it.item_id,
        )
        for it in items
    ]


class ExactRatio(Workload):
    name = "exact-ratio"
    sizes = {
        "full": {"arrival_rate": 4.0, "horizon": 450.0, "n_items": 1_200},
        "toy": {"arrival_rate": 2.0, "horizon": 40.0, "n_items": 50},
    }

    def inputs(self, seed: int, size: str) -> Inputs:
        p = self.sizes[size]
        trace = generate_trace(
            arrival_rate=p["arrival_rate"],
            horizon=p["horizon"],
            duration=Uniform(1.0, 17.0),
            size=Uniform(0.05, 0.7),
            seed=seed,
            name="exact",
        )
        # A prefix of the Poisson trace: every seed feeds the same number
        # of sessions.
        return Inputs(seed, size, _exact_items(trace.items[: p["n_items"]]))

    def probe(self, seed: int, size: str) -> Inputs:
        return Inputs(seed, size, [Item(arrival=0, departure=1, size=Fraction(1, 2), item_id="probe-0")])

    def run(self, inp: Inputs, env: Env, source: Source = iter) -> Any:
        repacker = repack.BoundedRepacker(1)
        started = time.perf_counter()
        # An iterator streams into the record-mode loop (items are in
        # arrival order); compare_algorithms needs the whole trace.
        repacked = simulator.simulate(source(inp.items), FirstFit(), repacker=repacker)
        cost = repacked.total_cost()
        middle = time.perf_counter()
        measured = ratio.compare_algorithms(
            inp.items, [FirstFit(), BestFit(), ModifiedFirstFit()]
        )
        finished = time.perf_counter()
        return ExactOut(
            repacked, cost, repacker.bins_emptied, measured, middle - started, finished - middle
        )

    def reference(self, inp: Inputs, env: Env) -> dict[str, Any]:
        items = inp.items
        costs: dict[str, Any] = {}
        indexed_equals_scan = True
        for algorithm in (FirstFit, BestFit, ModifiedFirstFit):
            scan = simulator.simulate(items, algorithm(), indexed=False)
            indexed_equals_scan &= simulator.simulate(items, algorithm()) == scan
            costs[scan.algorithm_name] = scan.total_cost()
        repacked = simulator.simulate(
            items, FirstFit(), indexed=False, repacker=repack.BoundedRepacker(1)
        )
        lengths = [it.length for it in items]
        return {
            "costs": costs,
            "indexed_equals_scan": indexed_equals_scan,
            "repacked": repacked,
            "mu": Fraction(max(lengths)) / Fraction(min(lengths)),
            "pin": self.pin(inp),
        }

    def check(self, out: Any, ref: dict[str, Any]) -> list[str]:
        errors = []
        exact = (int, Fraction)
        if not ref["indexed_equals_scan"]:
            errors.append("an indexed packing differs from the list scan")
        if out.repacked != ref["repacked"]:
            errors.append("First Fit + BoundedRepacker(1) differs from its list-scan run")
        if not isinstance(out.repacked_cost, exact):
            errors.append(f"repacked cost lost exactness ({type(out.repacked_cost).__name__})")
        mu = ref["mu"]
        limits = {
            "first-fit": bounds.theorem5_bound(mu),
            "modified-first-fit": bounds.mff_bound_unknown_mu(mu),
        }
        for m in out.measured:
            if m.cost != ref["costs"].get(m.algorithm_name):
                errors.append(f"{m.algorithm_name} cost differs from the list scan")
            if not isinstance(m.cost, exact) or not isinstance(m.opt.lower, exact):
                errors.append(f"{m.algorithm_name} cost or OPT bound lost exactness")
                continue
            limit = limits.get(m.algorithm_name)
            if limit is not None and Fraction(m.cost) / Fraction(m.opt.lower) > limit:
                errors.append(f"{m.algorithm_name} ratio exceeds its bound {limit}")
        if {m.algorithm_name for m in out.measured} != set(ref["costs"]):
            errors.append("compare_algorithms measured another set of algorithms")
        return errors + self._pin_errors(out, ref)

    def canonical(self, out: Any) -> Any:
        return {
            "measured": {
                m.algorithm_name: {
                    "cost": str(m.cost),
                    "opt": {f.name: str(getattr(m.opt, f.name)) for f in fields(m.opt)},
                }
                for m in out.measured
            },
            "repacked": {
                "cost": str(out.repacked_cost),
                "bins": out.repacked.num_bins_used,
                "peak": out.repacked.max_bins_used,
                "evacuations": out.evacuations,
            },
        }

    def layer_counts(self, out: Any, counts: dict[str, int], n_items: int) -> dict[str, float]:
        r = out.repacked
        return {
            "core.bin_index.opened_per_peak": _ratio(r.num_bins_used, r.max_bins_used),
            "renting.evacuations": out.evacuations,
            "renting.evacuation_ratio": _ratio(out.evacuations, counts.get("renting.calls", 0)),
        }

    def properties(self, out: Any) -> dict[str, Any]:
        r = out.repacked
        return {
            "sessions": len(r.items),
            "bins_opened": r.num_bins_used,
            "peak_open_bins": r.max_bins_used,
            "opened_per_peak": _ratio(r.num_bins_used, r.max_bins_used),
            "evacuations": out.evacuations,
            "repacker_share": _ratio(out.repack_s, out.repack_s + out.compare_s),
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (StreamFF(), SupervisedBF(), FaultyMFF(), ExactRatio())
}


def perturbed(name: str, ref: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``ref`` with its expected output moved (for the self-test)."""
    ref = dict(ref)
    if name == "stream-ff":
        ref["prefix_scan"] = replace(ref["prefix_scan"], num_bins_used=ref["prefix_scan"].num_bins_used + 1)
    elif name == "supervised-bf":
        ref["billed"] = ref["billed"] + 1
    elif name == "faulty-mff":
        ref["summary"] = replace(ref["summary"], peak_open_bins=ref["summary"].peak_open_bins + 1)
    else:
        ref["costs"] = {k: v + 1 for k, v in ref["costs"].items()}
    return ref
