"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Design constraints, in order:

1. **Determinism.**  A snapshot is a pure function of the event sequence
   that produced it: metric names are sorted, bucket schemes are fixed at
   construction, and nothing reads a clock.  Two identically-seeded runs
   produce byte-identical :meth:`MetricsRegistry.to_json` output — CI
   diffs the bytes.
2. **O(1) per event.**  Instruments are updated on the simulator's hot
   path; an observation is a couple of adds and one bisect.
3. **Self-describing exports.**  Snapshots carry the bucket bounds next
   to the counts, and :meth:`MetricsRegistry.to_prometheus` renders the
   standard text exposition format (cumulative ``_bucket{le=...}``
   series, ``_sum``/``_count``), so the artifacts feed dashboards
   without a schema side-channel.

Values are numbers.  Exact-arithmetic runs feed ``Fraction`` values: they
stay exact in snapshots and checkpoints, and the JSON and Prometheus
exports render them as floats.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SIZE_FRACTION_BUCKETS",
    "TIME_BUCKETS",
    "LATENCY_SECONDS_BUCKETS",
    "PROBE_BUCKETS",
]

#: Utilization / size-as-fraction-of-capacity buckets: ten even slices.
SIZE_FRACTION_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Simulation-time durations (bin lifetimes, session lengths) — a 1-2.5-5
#: decade ladder covering the bundled minute-scale workloads.
TIME_BUCKETS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Wall-clock latencies in seconds (profiling) — 1µs to 10s, log-spaced.
LATENCY_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 1.0, 10.0,
)

#: Fit probes per placement (candidate bins examined).
PROBE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
)

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*$")


class MetricError(ValueError):
    """Raised for invalid metric names, schemes, or type clashes."""


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value: float = 0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount

    def snapshot_value(self) -> Any:
        return self._value

    def restore_value(self, value: Any) -> None:
        self._value = value


class Gauge:
    """An instantaneous level, with its running peak kept alongside."""

    __slots__ = ("name", "help", "_value", "_peak")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value: float = 0
        self._peak: float = 0

    @property
    def value(self) -> float:
        return self._value

    @property
    def peak(self) -> float:
        return self._peak

    def set(self, value: float) -> None:
        self._value = value
        if value > self._peak:
            self._peak = value

    def inc(self, amount: float = 1) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1) -> None:
        self._value -= amount

    def snapshot_value(self) -> Any:
        return {"peak": self._peak, "value": self._value}

    def restore_value(self, value: Any) -> None:
        self._value = value["value"]
        self._peak = value["peak"]


class Histogram:
    """Fixed-bucket distribution: counts per bucket plus sum and count.

    ``buckets`` is the strictly increasing tuple of upper bounds; an
    implicit ``+Inf`` bucket catches the overflow.  The scheme is fixed at
    construction — deterministic layout is the whole point — and an
    observation costs one binary search.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(self, name: str, help: str = "", *, buckets: tuple[float, ...]) -> None:
        if not buckets:
            raise MetricError(f"histogram {name!r} needs at least one bucket bound")
        if any(nxt <= prev for prev, nxt in zip(buckets, buckets[1:])):
            raise MetricError(
                f"histogram {name!r} bucket bounds must be strictly increasing: {buckets}"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(buckets) + 1)  # trailing slot = +Inf
        self._sum: float = 0
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        return tuple(self._counts)

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    def snapshot_value(self) -> Any:
        return {
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "count": self._count,
            "sum": self._sum,
        }

    def restore_value(self, value: Any) -> None:
        if tuple(value["buckets"]) != self.buckets:
            raise MetricError(
                f"histogram {self.name!r} bucket scheme changed: snapshot has "
                f"{tuple(value['buckets'])}, registry has {self.buckets}"
            )
        self._counts = list(value["counts"])
        self._count = value["count"]
        self._sum = value["sum"]


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A named collection of instruments with deterministic exports.

    Instruments are created through :meth:`counter` / :meth:`gauge` /
    :meth:`histogram`, which are idempotent: asking again for an existing
    name returns the same instrument (and raises if the kind or bucket
    scheme disagrees), so independent components can share one registry
    without coordination.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------ creation

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, buckets: tuple[float, ...]
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise MetricError(
                    f"metric {name!r} is a {existing.kind}, not a histogram"
                )
            if existing.buckets != tuple(float(b) for b in buckets):
                raise MetricError(
                    f"histogram {name!r} re-registered with a different bucket scheme"
                )
            return existing
        self._check_name(name)
        metric = Histogram(name, help, buckets=buckets)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls: type, name: str, help: str) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} is a {existing.kind}, not a {cls.kind}"  # type: ignore[attr-defined]
                )
            return existing
        self._check_name(name)
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(
                f"invalid metric name {name!r}; use lowercase snake_case"
            )

    # ----------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: object) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def _sorted(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    # ------------------------------------------------------------- exports

    def snapshot(self) -> dict[str, Any]:
        """Deterministic nested-dict view: ``{kind: {name: value}}``.

        Counter values are numbers; gauges carry ``value`` and ``peak``;
        histograms carry bounds, per-bucket counts, ``count`` and ``sum``.
        Identical event sequences yield identical snapshots.
        """
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._sorted():
            out[metric.kind + "s"][metric.name] = metric.snapshot_value()
        return out

    def to_json(self) -> str:
        """Byte-stable JSON rendering of :meth:`snapshot`."""
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":"), default=float
        )

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        Gauges emit a companion ``<name>_peak`` series; histograms emit the
        standard cumulative ``_bucket{le="..."}`` ladder plus ``_sum`` and
        ``_count``.
        """
        lines: list[str] = []
        for metric in self._sorted():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Counter):
                lines.append(f"{metric.name} {_fmt(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"{metric.name} {_fmt(metric.value)}")
                lines.append(f"{metric.name}_peak {_fmt(metric.peak)}")
            else:
                cumulative = 0
                for bound, count in zip(metric.buckets, metric.counts):
                    cumulative += count
                    lines.append(
                        f'{metric.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                    )
                lines.append(f'{metric.name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{metric.name}_sum {_fmt(metric.sum)}")
                lines.append(f"{metric.name}_count {metric.count}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------- checkpointing

    def checkpoint_state(self) -> dict[str, Any]:
        """JSON-able state of every instrument (for streamed-run resume)."""
        return {
            name: {"kind": metric.kind, "value": metric.snapshot_value()}
            for name, metric in sorted(self._metrics.items())
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore instrument values captured by :meth:`checkpoint_state`.

        Every snapshotted metric must already exist in this registry with
        the same kind (create instruments first, then restore) — resuming
        into a differently-shaped registry is a hard error, not a merge.
        """
        for name, payload in state.items():
            metric = self._metrics.get(name)
            if metric is None or metric.kind != payload["kind"]:
                raise MetricError(
                    f"cannot restore metric {name!r} ({payload['kind']}): not "
                    "registered in this registry with that kind"
                )
            metric.restore_value(payload["value"])


def _fmt(value: float) -> str:
    """Prometheus number rendering: integers without the trailing ``.0``."""
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
