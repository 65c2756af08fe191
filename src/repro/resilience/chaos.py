"""Seeded chaos campaigns: prove the recovery paths actually work.

A chaos campaign is a deterministic grid of fault-injection scenarios run
against the resilience layer, each asserting the invariants a crash-safe
dispatcher must keep:

* **crash** scenarios kill a supervised dispatch at every ``k``-th
  checkpoint write (an exception injected at the event boundary, exactly
  where a preempted process dies) and assert *exact resume*: the final
  :class:`~repro.core.streaming.StreamSummary`, billed cost, and server
  counts are float-identical to the uninterrupted run — **no double
  billing at settlement** and no lost placements.
* **corrupt** scenarios damage the newest stored generation (seeded
  single-bit flip, truncation to half, or emptying the file) and assert
  **every corruption is detected**: the supervisor must skip the bad
  generation (never silently restore it) and still converge to the exact
  uninterrupted results from the previous good one.
* **worker-kill** scenarios hard-kill (``os._exit``) a parallel-pool
  worker mid-task and assert the pool isolates the death: results stay
  complete and correct, and the respawn shows up in the
  ``dbp_parallel_worker_respawns_total`` counter.
* every scenario also checks **monotone event time** through a
  checkpoint-aware observer: simulation time never runs backwards across
  a crash/resume boundary.

Campaigns are pure functions of their config: the same seed produces a
byte-identical :meth:`ChaosCampaignReport.to_json` at any worker count
(scenario rows are slot-merged by index, never appended in completion
order) — CI runs a campaign twice and byte-diffs the reports.

Exposed as the ``chaos`` experiment (crash + corruption scenarios; the
worker-kill scenario needs to spawn processes and is skipped when the
experiment itself runs inside a daemonized pool worker) and the
``python -m repro chaos`` CLI subcommand (full campaign).
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..algorithms import get_algorithm
from ..cloud.dispatcher import ServerType, dispatch_stream
from ..core.numeric import Num
from ..core.resources import Resources
from ..core.telemetry import SimulationObserver
from ..obs.flight import SPAN_KINDS, FlightObserver, FlightRecorder
from ..obs.manifest import build_chaos_manifest
from ..obs.tracing import LifecycleTracer
from ..workloads.distributions import Clipped, Exponential, Uniform
from ..workloads.generators import generate_vector_trace, stream_trace
from .store import CheckpointStore
from .supervisor import supervised_dispatch_stream

__all__ = [
    "CHAOS_SCHEMA_VERSION",
    "InjectedCrash",
    "ChaosCampaignConfig",
    "ChaosCampaignReport",
    "build_scenarios",
    "run_campaign",
]

#: Version stamp of the campaign report layout.
CHAOS_SCHEMA_VERSION = 1

#: Exit code worker-kill scenarios die with (visible in pool failure text).
_KILL_EXIT_CODE = 11


class InjectedCrash(RuntimeError):
    """The chaos harness's synthetic process death."""


class _MonotoneTimeObserver(SimulationObserver):
    """Asserts event times never decrease, across resume boundaries too.

    The last seen time rides in every checkpoint, so a resumed attempt
    keeps enforcing monotonicity against the pre-crash run — a resume
    that rewound time would trip here even if the final summary matched.
    """

    def __init__(self) -> None:
        self.last_time: Num | None = None
        self.violations = 0

    def _observe(self, time: Num) -> None:
        if self.last_time is not None and time < self.last_time:
            self.violations += 1
        else:
            self.last_time = time

    def on_arrival(self, time: Num, item: Any, bin: Any, opened: bool) -> None:
        self._observe(time)

    def on_departure(self, time: Num, item: Any, bin: Any, closed: bool) -> None:
        self._observe(time)

    def checkpoint_state(self) -> Any:
        return {"last_time": self.last_time, "violations": self.violations}

    def restore_state(self, state: Any) -> None:
        self.last_time = state["last_time"]
        self.violations = state["violations"]


@dataclass(frozen=True, slots=True)
class ChaosCampaignConfig:
    """The seeded grid a campaign expands into scenarios."""

    seed: int = 0
    n_items: int = 400
    checkpoint_every: int = 64
    algorithm: str = "first-fit"
    #: Kill the run at every ``k``-th checkpoint write, one scenario per k.
    crash_points: tuple[int, ...] = (1, 2, 4)
    corruption_modes: tuple[str, ...] = ("bitflip", "truncate", "empty")
    traces: tuple[str, ...] = ("scalar", "vector")
    include_worker_kill: bool = True
    #: Store rotation depth (generations kept on disk).
    keep: int = 4

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {self.n_items}")
        if any(k < 1 for k in self.crash_points):
            raise ValueError(f"crash points must be >= 1: {self.crash_points}")
        unknown = set(self.corruption_modes) - {"bitflip", "truncate", "empty"}
        if unknown:
            raise ValueError(f"unknown corruption modes: {sorted(unknown)}")
        unknown = set(self.traces) - {"scalar", "vector"}
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")


@dataclass(frozen=True, slots=True)
class ChaosCampaignReport:
    """Deterministic outcome of one campaign: rows, totals, manifest.

    ``to_json`` is byte-stable for a given config — across repeat runs
    *and* worker counts — so CI can diff reports instead of eyeballing
    them.
    """

    config: dict[str, Any]
    rows: tuple[dict[str, Any], ...]
    totals: dict[str, int] = field(default_factory=dict)
    manifest: dict[str, Any] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(row["ok"] for row in self.rows)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------ scenarios


def build_scenarios(config: ChaosCampaignConfig) -> list[dict[str, Any]]:
    """Expand a config into its ordered scenario specs (plain dicts).

    Specs are picklable data, so a campaign can shard them across pool
    workers; ordering is the report's row order.
    """
    specs: list[dict[str, Any]] = []
    base = {
        "seed": config.seed,
        "n_items": config.n_items,
        "checkpoint_every": config.checkpoint_every,
        "algorithm": config.algorithm,
        "keep": config.keep,
    }
    for trace in config.traces:
        for k in config.crash_points:
            specs.append({**base, "kind": "crash", "trace": trace, "crash_every": k})
        for mode in config.corruption_modes:
            specs.append({**base, "kind": "corrupt", "trace": trace, "mode": mode})
    if config.include_worker_kill:
        specs.append({"kind": "worker-kill", "seed": config.seed})
    for index, spec in enumerate(specs):
        spec["scenario"] = f"s{index:03d}"
    return specs


def _trace_items(spec: dict[str, Any]):
    """A fresh iterator over the scenario's seeded session stream."""
    if spec["trace"] == "vector":
        trace = generate_vector_trace(
            arrival_rate=4.0,
            horizon=spec["n_items"] / 4.0,
            duration=Clipped(Exponential(10.0), 2.0, 40.0),
            sizes=(Uniform(0.1, 0.6), Uniform(0.1, 0.5)),
            correlation=0.5,
            seed=spec["seed"],
            capacity=Resources(1.0, 1.0),
        )
        return iter(sorted(trace.items, key=lambda it: it.arrival))
    return stream_trace(
        arrival_rate=5.0,
        duration=Clipped(Exponential(8.0), 1.0, 30.0),
        size=Uniform(0.15, 0.6),
        n_items=spec["n_items"],
        seed=spec["seed"],
    )


def _server_type(spec: dict[str, Any]) -> ServerType:
    capacity: Any = Resources(1.0, 1.0) if spec["trace"] == "vector" else 1.0
    return ServerType(gpu_capacity=capacity, rate=1.0, billing_quantum=30.0)


def _baseline(spec: dict[str, Any], extra_observers: tuple[Any, ...] = ()):
    """The uninterrupted run every invariant is measured against."""
    return dispatch_stream(
        _trace_items(spec),
        get_algorithm(spec["algorithm"]),
        server_type=_server_type(spec),
        observers=(_MonotoneTimeObserver(), *extra_observers),
    )


def _span_lines(trace_text: str) -> list[str]:
    """The lifecycle-span record lines of a JSONL trace, in order."""
    return [
        line
        for line in trace_text.splitlines()
        if line and json.loads(line).get("kind") in SPAN_KINDS
    ]


def _run_crash_scenario(spec: dict[str, Any], workdir: Path) -> dict[str, Any]:
    # Trace the uninterrupted run too: the flight recorder's surviving
    # span window must be a byte-exact suffix of it.
    base_trace = io.StringIO()
    base = _baseline(
        spec,
        (
            LifecycleTracer(
                base_trace, algorithm=spec["algorithm"], capacity=1, cost_rate=1
            ),
        ),
    )
    base_spans = _span_lines(base_trace.getvalue())
    store = CheckpointStore(workdir / "store", keep=spec["keep"])
    every_k = spec["crash_every"]
    monotone = _MonotoneTimeObserver()
    flight = FlightRecorder(capacity=96, path=workdir / "flight.jsonl")

    def observers():
        return (monotone, FlightObserver(flight))

    def hook(generation: int, checkpoint: Any) -> None:
        if (generation + 1) % every_k == 0:
            raise InjectedCrash(f"chaos kill at generation {generation}")

    supervised = supervised_dispatch_stream(
        lambda: _trace_items(spec),
        lambda: get_algorithm(spec["algorithm"]),
        store=store,
        checkpoint_every=spec["checkpoint_every"],
        server_type=_server_type(spec),
        observer_factory=observers,
        max_restarts=10_000,
        recover_on=(InjectedCrash,),
        checkpoint_hook=hook,
        flight=flight,
    )
    report, stats = supervised.report, supervised.stats
    exact = (
        report.summary == base.summary
        and report.billed_cost == base.billed_cost  # dbp: noqa[DBP003] -- exact-resume oracle
        and report.num_servers_rented == base.num_servers_rented
        and report.peak_concurrent_servers == base.peak_concurrent_servers
    )
    spans = flight.span_lines()
    flight_suffix = len(spans) > 0 and spans == base_spans[-len(spans) :]
    return {
        "scenario": spec["scenario"],
        "kind": "crash",
        "trace": spec["trace"],
        "param": f"k={every_k}",
        "crashes": stats.crashes,
        "checkpoints": stats.checkpoints_written,
        "corruptions_injected": 0,
        "corruptions_detected": 0,
        "exact_resume": exact,
        "monotone_time": monotone.violations == 0,
        "flight_dumps": flight.dumps,
        "flight_records": len(flight),
        "flight_span_suffix": flight_suffix,
        "ok": exact
        and stats.crashes > 0
        and monotone.violations == 0
        and flight.dumps == stats.crashes
        and flight_suffix,
    }


def _corrupt_file(path: Path, mode: str, rng: random.Random) -> None:
    data = path.read_bytes()
    if mode == "empty":
        path.write_bytes(b"")
    elif mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    else:  # bitflip
        offset = rng.randrange(len(data))
        flipped = data[offset] ^ (1 << rng.randrange(8))
        path.write_bytes(data[:offset] + bytes([flipped]) + data[offset + 1 :])


def _run_corrupt_scenario(spec: dict[str, Any], workdir: Path) -> dict[str, Any]:
    base = _baseline(spec)
    store = CheckpointStore(workdir / "store", keep=spec["keep"])
    # Populate the store from a clean run, then damage the newest generation.
    # Same observer set as the recovery run below: checkpoint observer
    # states are positional, so the resuming call must match.
    dispatch_stream(
        _trace_items(spec),
        get_algorithm(spec["algorithm"]),
        server_type=_server_type(spec),
        observers=(_MonotoneTimeObserver(),),
        checkpoint_every=spec["checkpoint_every"],
        on_checkpoint=lambda cp: store.save(cp),
    )
    generations = store.generations()
    newest = generations[-1]
    rng = random.Random((spec["seed"], spec["scenario"], spec["mode"]).__repr__())
    _corrupt_file(store.path_for(newest), spec["mode"], rng)
    # Detection: verified fallback must skip the damaged newest generation.
    entry = store.latest_good()
    detected = (
        entry is not None
        and entry.generation < newest
        and any(s.generation == newest and not s.ok for s in entry.skipped)
    )
    # Recovery: a supervised restart from the damaged store still converges
    # to the uninterrupted results (it resumes from the previous good
    # generation and replays the tail).
    monotone = _MonotoneTimeObserver()
    supervised = supervised_dispatch_stream(
        lambda: _trace_items(spec),
        lambda: get_algorithm(spec["algorithm"]),
        store=store,
        checkpoint_every=spec["checkpoint_every"],
        server_type=_server_type(spec),
        observer_factory=lambda: (monotone,),
        max_restarts=0,
    )
    report, stats = supervised.report, supervised.stats
    exact = (
        report.summary == base.summary
        and report.billed_cost == base.billed_cost  # dbp: noqa[DBP003] -- exact-resume oracle
        and report.num_servers_rented == base.num_servers_rented
    )
    return {
        "scenario": spec["scenario"],
        "kind": "corrupt",
        "trace": spec["trace"],
        "param": spec["mode"],
        "crashes": stats.crashes,
        "checkpoints": stats.checkpoints_written,
        "corruptions_injected": 1,
        "corruptions_detected": int(detected and stats.corrupt_generations_skipped >= 1),
        "exact_resume": exact,
        "monotone_time": monotone.violations == 0,
        "flight_dumps": 0,
        "flight_records": 0,
        "flight_span_suffix": True,
        "ok": bool(detected) and exact and monotone.violations == 0,
    }


def _worker_kill_task(payload: dict[str, Any]) -> int:
    """Pool task: the marked task hard-kills its worker on first attempt.

    A sentinel file records the first execution, so the retry (on the
    respawned worker) succeeds — deterministic single death per campaign.
    """
    if payload.get("kill"):
        sentinel = Path(payload["sentinel"])
        if not sentinel.exists():
            sentinel.touch()
            os._exit(_KILL_EXIT_CODE)
    return payload["value"] * 2


def _run_worker_kill_scenario(spec: dict[str, Any], workdir: Path) -> dict[str, Any]:
    from ..obs.metrics import MetricsRegistry
    from ..parallel.pool import run_tasks
    from .retry import RetryPolicy

    sentinel = workdir / "killed.sentinel"
    tasks = [
        {"value": i, "kill": i == 2, "sentinel": str(sentinel)} for i in range(6)
    ]
    metrics = MetricsRegistry()
    results = run_tasks(
        _worker_kill_task,
        tasks,
        workers=2,
        retries=2,
        retry_policy=RetryPolicy(base_delay=0.01, max_delay=0.05, jitter=0.0),
        metrics=metrics,
    )
    correct = results == [i * 2 for i in range(6)]
    counters = metrics.snapshot()["counters"]
    respawns = int(counters["dbp_parallel_worker_respawns_total"])
    retried = int(counters["dbp_parallel_retries_total"])
    return {
        "scenario": spec["scenario"],
        "kind": "worker-kill",
        "trace": "-",
        "param": f"exit={_KILL_EXIT_CODE}",
        "crashes": 1,
        "checkpoints": 0,
        "corruptions_injected": 0,
        "corruptions_detected": 0,
        "exact_resume": correct,
        "monotone_time": True,
        "flight_dumps": 0,
        "flight_records": 0,
        "flight_span_suffix": True,
        "ok": correct and respawns >= 1 and retried >= 1,
    }


def _run_scenario(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one scenario spec in an isolated scratch directory."""
    workdir = Path(tempfile.mkdtemp(prefix=f"chaos-{spec['scenario']}-"))
    try:
        if spec["kind"] == "crash":
            return _run_crash_scenario(spec, workdir)
        if spec["kind"] == "corrupt":
            return _run_corrupt_scenario(spec, workdir)
        if spec["kind"] == "worker-kill":
            return _run_worker_kill_scenario(spec, workdir)
        raise ValueError(f"unknown scenario kind {spec['kind']!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------------------- campaign


def run_campaign(
    config: ChaosCampaignConfig | None = None,
    *,
    workers: int = 1,
    on_progress: Any = None,
) -> ChaosCampaignReport:
    """Run the full seeded campaign and assemble the byte-stable report.

    ``workers > 1`` shards the pure (crash/corrupt) scenarios across a
    deterministic process pool; worker-kill scenarios always run in this
    process because they spawn processes themselves (pool workers are
    daemonized and may not).  Rows land in spec order either way, so the
    report bytes do not depend on the worker count.

    ``on_progress(completed, total, index)`` follows the
    :func:`repro.parallel.run_tasks` contract over the *whole* campaign:
    ``total`` counts every scenario (worker-kill included) and ``index``
    is the scenario's position in spec order, whichever path ran it.
    """
    config = config or ChaosCampaignConfig()
    specs = build_scenarios(config)
    shardable = [s for s in specs if s["kind"] != "worker-kill"]
    local = [s for s in specs if s["kind"] == "worker-kill"]
    total = len(specs)
    index_of = {spec["scenario"]: i for i, spec in enumerate(specs)}
    completed = 0
    rows_by_scenario: dict[str, dict[str, Any]] = {}
    if workers > 1 and len(shardable) > 1:
        from ..parallel.pool import run_tasks

        shard_index = [index_of[s["scenario"]] for s in shardable]

        def pool_progress(done: int, _shard_total: int, idx: int) -> None:
            on_progress(done, total, shard_index[idx])

        for row in run_tasks(
            _run_scenario,
            shardable,
            workers=workers,
            on_progress=pool_progress if on_progress is not None else None,
        ):
            rows_by_scenario[row["scenario"]] = row
        completed = len(shardable)
    else:
        for spec in shardable:
            row = _run_scenario(spec)
            rows_by_scenario[row["scenario"]] = row
            completed += 1
            if on_progress is not None:
                on_progress(completed, total, index_of[spec["scenario"]])
    for spec in local:
        row = _run_scenario(spec)
        rows_by_scenario[row["scenario"]] = row
        completed += 1
        if on_progress is not None:
            on_progress(completed, total, index_of[spec["scenario"]])
    rows = tuple(rows_by_scenario[spec["scenario"]] for spec in specs)
    totals = {
        "scenarios": len(rows),
        "failed": sum(1 for r in rows if not r["ok"]),
        "crashes_injected": sum(r["crashes"] for r in rows),
        "checkpoints_written": sum(r["checkpoints"] for r in rows),
        "corruptions_injected": sum(r["corruptions_injected"] for r in rows),
        "corruptions_detected": sum(r["corruptions_detected"] for r in rows),
        "exact_resumes": sum(1 for r in rows if r["exact_resume"]),
    }
    config_echo = asdict(config)
    for key in ("crash_points", "corruption_modes", "traces"):
        config_echo[key] = list(config_echo[key])
    return ChaosCampaignReport(
        config=config_echo,
        rows=rows,
        totals=totals,
        manifest=build_chaos_manifest(
            schema=CHAOS_SCHEMA_VERSION, campaign=config_echo
        ),
    )
