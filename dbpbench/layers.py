"""Per-layer attribution for the traced pass.

Spans are recorded from the benchmark's side only: :class:`Tracer` swaps
the public entry points of each ``repro`` module (functions, methods,
classmethods, and the event-merge generators) for timing wrappers, runs
the workload, and puts every original back.  Nothing under ``src/`` is
edited and untraced passes run the unwrapped code.

Each span adds its duration to its parent's child time, so a layer's
*self time* is its spans' total duration minus the time of the spans it
called.  Spans are aggregated in memory (self time and call counts per
metric) and read out once the run ends; nothing is written while the
workload runs.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# name -> (unit, better); the traced pass emits exactly these metrics.
PER_LAYER: dict[str, tuple[str, str]] = {
    "core.bin_index.query_s": ("s", "lower"),
    "core.bin_index.queries": ("count", "lower"),
    "core.bin_index.query_hit_ratio": ("ratio", "higher"),
    "core.bin_index.maintain_s": ("s", "lower"),
    "core.bin_index.adds": ("count", "lower"),
    "core.bin_index.updates": ("count", "lower"),
    "core.bin_index.discards": ("count", "lower"),
    "core.bin_index.opened_per_peak": ("ratio", "lower"),
    "core.events.self_s": ("s", "lower"),
    "core.events.events": ("count", "lower"),
    "core.streaming.self_s": ("s", "lower"),
    "core.simulator.simulate_self_s": ("s", "lower"),
    "core.simulator.self_s": ("s", "lower"),
    "core.simulator.arrivals": ("count", "lower"),
    "core.simulator.departures": ("count", "lower"),
    "core.simulator.migrations": ("count", "lower"),
    "core.bin.self_s": ("s", "lower"),
    "core.bin.calls": ("count", "lower"),
    "algorithms.self_s": ("s", "lower"),
    "algorithms.choices": ("count", "lower"),
    "algorithms.open_new_ratio": ("ratio", "lower"),
    "cloud.dispatcher.billing_s": ("s", "lower"),
    "cloud.dispatcher.settlements": ("count", "lower"),
    "obs.hooks_s": ("s", "lower"),
    "obs.hook_calls": ("count", "lower"),
    "obs.checkpoint_state_s": ("s", "lower"),
    "obs.trace_bytes": ("B", "lower"),
    "core.checkpoint.capture_s": ("s", "lower"),
    "core.checkpoint.encode_s": ("s", "lower"),
    "core.checkpoint.decode_s": ("s", "lower"),
    "core.checkpoint.restore_s": ("s", "lower"),
    "core.checkpoint.checkpoints": ("count", "lower"),
    "core.checkpoint.bytes_per_checkpoint": ("B", "lower"),
    "resilience.store.save_s": ("s", "lower"),
    "resilience.store.load_s": ("s", "lower"),
    "resilience.supervisor.restarts": ("count", "lower"),
    "resilience.supervisor.replay_ratio": ("ratio", "lower"),
    "cloud.faults.self_s": ("s", "lower"),
    "cloud.faults.failures": ("count", "lower"),
    "cloud.faults.evictions": ("count", "lower"),
    "cloud.faults.redispatch_share": ("ratio", "lower"),
    "resilience.retry.self_s": ("s", "lower"),
    "resilience.retry.delayed": ("count", "lower"),
    "resilience.retry.breaker_trips": ("count", "lower"),
    "renting.self_s": ("s", "lower"),
    "renting.calls": ("count", "lower"),
    "renting.evacuations": ("count", "higher"),
    "renting.evacuation_ratio": ("ratio", "higher"),
    "opt.lower_bounds_s": ("s", "lower"),
    "opt.ffd_upper_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "core.result.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

#: Metrics that must repeat exactly across traced runs of one seed.
COUNT_METRICS = tuple(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B")
) + (
    "core.bin_index.query_hit_ratio",
    "core.bin_index.opened_per_peak",
    "algorithms.open_new_ratio",
    "resilience.supervisor.replay_ratio",
    "cloud.faults.redispatch_share",
    "renting.evacuation_ratio",
)

_NS = 1e-9


class Tracer:
    """Aggregating span recorder plus the patch table of layer boundaries."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Child-time accumulators, one per open span; [0] collects the
        # durations of top-level spans.
        self._child: list[int] = [0]
        self._undo: list[Callable[[], None]] = []

    # ---------------------------------------------------------------- spans

    def _span(
        self,
        fn: Callable[..., Any],
        metric: str,
        count: str | None,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        child = self._child
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            child.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[metric] += elapsed - child.pop()
                child[-1] += elapsed
            if count is not None:
                counts[count] += 1
            if on_result is not None:
                on_result(result)
            return result

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        return span

    def _iter_span(self, factory: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        """Wrap a generator factory so every ``next()`` is a core.events span."""
        tracer = self

        def make(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return _TimedIterator(factory(*args, **kwargs), tracer)

        return make

    # ------------------------------------------------------------- patching

    def _set(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def _patch_function(self, fn: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Rebind every module-level name of ``fn`` in loaded repro modules."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _patch_method(
        self,
        cls: type,
        name: str,
        metric: str,
        count: str | None = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Wrap ``cls.name`` where it is defined (classmethods included)."""
        owner = next(k for k in cls.__mro__ if name in k.__dict__)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._span(raw.__func__, metric, count, on_result))
        else:
            wrapped = self._span(raw, metric, count, on_result)
        self._set(owner, name, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        from repro.algorithms import BestFit, FirstFit, ModifiedFirstFit
        from repro.algorithms.base import OPEN_NEW
        from repro.analysis import ratio
        from repro.cloud import dispatcher, faults
        from repro.core import bin as core_bin
        from repro.core import bin_index, checkpoint, events, result, simulator, streaming
        from repro.obs import observer, tracing
        from repro.opt import lower_bounds, snapshot
        from repro.renting import repack
        from repro.resilience import retry, store

        counts = self.counts

        def hit(found: Any) -> None:
            if found is not None:
                counts["core.bin_index.hits"] += 1

        for name in ("first_fit", "best_fit"):
            self._patch_method(
                bin_index.OpenBinIndex, name, "core.bin_index.query_s",
                "core.bin_index.queries", hit,
            )
        for name, count in (("add", "adds"), ("update", "updates"), ("discard", "discards")):
            self._patch_method(
                bin_index.OpenBinIndex, name, "core.bin_index.maintain_s",
                f"core.bin_index.{count}",
            )

        # iter_events delegates to _merge_events, so only the simulator's
        # direct use of the merge core gets its own wrapper.
        self._patch_function(events.iter_events, self._iter_span(events.iter_events))
        self._set(simulator, "_merge_events", self._iter_span(events._merge_events))
        self._patch_function(
            streaming.simulate_stream,
            self._span(streaming.simulate_stream, "core.streaming.self_s", None),
        )
        self._patch_function(
            simulator.simulate,
            self._span(simulator.simulate, "core.simulator.simulate_self_s", None),
        )

        sim = simulator.Simulator
        for name, count in (
            ("arrive", "core.simulator.arrivals"),
            ("depart", "core.simulator.departures"),
            ("migrate", "core.simulator.migrations"),
            ("fail_bin", None),
            ("finish", None),
            ("finish_summary", None),
        ):
            self._patch_method(sim, name, "core.simulator.self_s", count)
        for name in ("add", "remove", "force_close"):
            self._patch_method(core_bin.Bin, name, "core.bin.self_s", "core.bin.calls")

        def choice(chosen: Any) -> None:
            if chosen is OPEN_NEW or chosen is None:
                counts["algorithms.open_new"] += 1

        patched: set[tuple[type, str]] = set()
        for cls in (FirstFit, BestFit, ModifiedFirstFit):
            for name in ("choose_bin_indexed", "choose_bin", "on_bin_opened"):
                owner = next(k for k in cls.__mro__ if name in k.__dict__)
                if (owner, name) in patched:
                    continue
                patched.add((owner, name))
                if name == "on_bin_opened":
                    self._patch_method(owner, name, "algorithms.self_s")
                else:
                    self._patch_method(owner, name, "algorithms.self_s", "algorithms.choices", choice)

        meter = dispatcher._BillingMeter
        for name in ("on_departure", "on_server_failure", "on_migration"):
            self._patch_method(meter, name, "cloud.dispatcher.billing_s")
        self._patch_method(meter, "_settle", "cloud.dispatcher.billing_s", "cloud.dispatcher.settlements")

        for cls in (observer.MetricsObserver, tracing.LifecycleTracer):
            for name in ("on_arrival", "on_departure", "on_server_failure", "on_migration"):
                if name in cls.__dict__:
                    self._patch_method(cls, name, "obs.hooks_s", "obs.hook_calls")
            for name in ("checkpoint_state", "restore_state"):
                self._patch_method(cls, name, "obs.checkpoint_state_s")

        def encoded(payload: str) -> None:
            counts["core.checkpoint.encoded_bytes"] += len(payload)

        ckpt = checkpoint.StreamCheckpoint
        self._patch_method(ckpt, "capture", "core.checkpoint.capture_s", "core.checkpoint.checkpoints")
        self._patch_method(ckpt, "to_json", "core.checkpoint.encode_s", "core.checkpoint.encodes", encoded)
        self._patch_method(ckpt, "from_json", "core.checkpoint.decode_s")
        self._patch_method(ckpt, "restore", "core.checkpoint.restore_s")
        self._patch_method(store.CheckpointStore, "save", "resilience.store.save_s")
        for name in ("load", "latest_good"):
            self._patch_method(store.CheckpointStore, name, "resilience.store.load_s")

        self._patch_function(
            faults.simulate_faulty_stream,
            self._span(faults.simulate_faulty_stream, "cloud.faults.self_s", None),
        )
        self._patch_method(faults.FaultInjector, "pick_victim", "cloud.faults.self_s")
        self._patch_method(retry.RetryPolicy, "delay", "resilience.retry.self_s")
        for name in ("record_failure", "record_success", "blocked_until", "is_open"):
            self._patch_method(retry.CircuitBreaker, name, "resilience.retry.self_s")

        for name in ("after_arrival", "after_departure"):
            self._patch_method(repack.BoundedRepacker, name, "renting.self_s", "renting.calls")

        for fn in (
            lower_bounds.demand_lower_bound,
            lower_bounds.span_lower_bound,
            lower_bounds.pointwise_lower_bound,
        ):
            self._patch_function(fn, self._span(fn, "opt.lower_bounds_s", None))
        self._patch_function(
            snapshot.opt_total_ffd_upper_bound,
            self._span(snapshot.opt_total_ffd_upper_bound, "opt.ffd_upper_s", None),
        )
        self._patch_function(
            ratio.compare_algorithms,
            self._span(ratio.compare_algorithms, "analysis.self_s", None),
        )
        self._patch_method(result.PackingResult, "total_cost", "core.result.self_s")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --------------------------------------------------------------- readout

    def layer_metrics(self, wall_ns: int) -> dict[str, float]:
        """Self times (s) and counts of one traced run, plus unattributed time."""
        c = self.counts
        out: dict[str, float] = {name: 0.0 for name in PER_LAYER}
        for name, (unit, _) in PER_LAYER.items():
            if unit == "s":
                out[name] = self.self_ns.get(name, 0) * _NS
            elif unit == "count":
                out[name] = c.get(name, 0)
        out["core.bin_index.query_hit_ratio"] = _ratio(
            c.get("core.bin_index.hits", 0), c.get("core.bin_index.queries", 0)
        )
        out["algorithms.open_new_ratio"] = _ratio(
            c.get("algorithms.open_new", 0), c.get("algorithms.choices", 0)
        )
        out["core.checkpoint.bytes_per_checkpoint"] = _ratio(
            c.get("core.checkpoint.encoded_bytes", 0), c.get("core.checkpoint.encodes", 0)
        )
        out["trace.unattributed_s"] = (wall_ns - self._child[0]) * _NS
        return out


class _TimedIterator:
    """An event-merge generator whose every ``next()`` is a core.events span."""

    __slots__ = ("_it", "_tracer")

    def __init__(self, it: Iterator[Any], tracer: Tracer) -> None:
        self._it = it
        self._tracer = tracer

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        child = tracer._child
        child.append(0)
        start = time.perf_counter_ns()
        try:
            event = next(self._it)
        finally:
            elapsed = time.perf_counter_ns() - start
            tracer.self_ns["core.events.self_s"] += elapsed - child.pop()
            child[-1] += elapsed
        tracer.counts["core.events.events"] += 1
        return event


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
