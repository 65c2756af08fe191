"""Span-structured lifecycle tracing with exact replay verification.

The MinTotal objective is the integral of open-bin count over time, so the
*story* of a run is its bin and session lifecycle: when each bin opened,
what was packed into it, when and why it closed.  :class:`LifecycleTracer`
records that story as streaming JSONL — one record per lifecycle
transition, span-structured:

* a **bin span** ``bin:<index>`` runs from its ``open`` record to its
  ``close`` record (``reason`` is ``"drain"`` for a last-departure close,
  ``"failure"`` for a revocation, ``"migrate"`` for a source bin a
  migration emptied);
* a **session span** ``session:<item_id>`` runs from its ``place`` record
  to its ``depart`` (natural end) or ``evict`` (failure) record, and
  carries a ``parent`` link to the bin span that hosted it; a ``migrate``
  record moves it to a new parent.

A migration writes its ``migrate`` record, then the emptied source's
``close``, then the destination's ``open`` — close before open, the order
in which the engine retires and adds bins, so replayed peaks agree.  Close
records take ``opened_at`` from the :class:`~repro.core.bin.Bin` itself,
so the tracer keeps no open-time ledger of its own.

Records appear in exact engine event order and are rendered with sorted
keys and no whitespace, so identically-seeded runs produce byte-identical
trace files.

Because the trace captures every transition, it is *sufficient*: the
entire :class:`~repro.core.streaming.StreamSummary` can be reconstructed
from the file alone, reproducing the engine's float accumulation order
operation for operation.  :func:`replay_summary` performs that
reconstruction and :func:`verify_trace` asserts exact agreement with the
``summary`` trailer the run recorded — the self-check CI runs on every
trace artifact.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..core.checkpoint import _decode_json, _encode_json
from ..core.numeric import Num
from ..core.streaming import StreamSummary
from ..core.telemetry import SimulationObserver

if TYPE_CHECKING:  # pragma: no cover
    from ..algorithms.base import Arrival
    from ..core.bin import Bin

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "JsonlTraceWriter",
    "LifecycleTracer",
    "TraceReplayError",
    "iter_trace_records",
    "replay_summary",
    "verify_trace",
]

#: Bumped whenever the record layout changes incompatibly (adding a record
#: kind, as ``migrate`` was, is compatible: older traces replay unchanged).
TRACE_SCHEMA_VERSION = 1

#: One shared canonical encoder: ``json.dumps`` with keyword arguments
#: constructs a fresh ``JSONEncoder`` per call, which is the dominant cost
#: of emitting a record on the simulator's hot path.  Vector sizes and exact
#: rationals are tagged as in checkpoints, so they trace and replay bit for bit.
_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False, default=_encode_json
).encode

#: Canonical string escaping (quoted, ``\\uXXXX`` for non-ASCII) — the
#: same C routine the shared encoder uses.
_esc = json.encoder.encode_basestring_ascii


def _jnum(value: Num) -> str:
    """Render a number exactly as the canonical encoder would.

    The tracer hooks build their fixed-key records as literal strings —
    an order of magnitude cheaper than dict-plus-``encode`` per record —
    so numeric operands must round-trip identically to ``_encode``'s
    rendering (floats via ``repr``, ints via ``str``).
    """
    cls = value.__class__
    if cls is float:
        return float.__repr__(value)
    if cls is int:
        return str(value)
    return _encode(value)


class TraceReplayError(RuntimeError):
    """Raised when a trace file fails structural or replay verification."""


class JsonlTraceWriter:
    """Writes one canonical JSON object per line (sorted keys, no spaces).

    Accepts a filesystem path (opened with ``\\n`` line endings for
    platform-independent bytes) or any ``write()``-able text sink; only
    paths are closed by :meth:`close`.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns = False
        else:
            self._file = open(target, "w", encoding="utf-8", newline="\n")
            self._owns = True
        self.records_written = 0

    def write(self, record: dict[str, Any]) -> None:
        self._file.write(_encode(record) + "\n")
        self.records_written += 1

    def write_line(self, line: str) -> None:
        """Write one already-canonically-encoded record."""
        self._file.write(line + "\n")
        self.records_written += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()


class LifecycleTracer(SimulationObserver):
    """Emits the lifecycle record stream for one simulated run.

    Parameters
    ----------
    target:
        Path or text sink for the JSONL stream.
    algorithm, capacity, cost_rate:
        Run parameters recorded in the header (the engine hooks do not
        carry them); they must match the simulation being observed —
        :func:`verify_trace` checks them against the summary trailer.
    log_checkpoints:
        When true, a ``checkpoint`` record is written each time the
        streaming driver captures a checkpoint (inside
        :meth:`checkpoint_state`, so an interrupted-then-resumed trace
        still concatenates byte-for-byte with the uninterrupted one).

    Every record, header included, reaches the sink through
    :meth:`_emit_line`; :class:`~repro.obs.flight.FlightObserver` overrides
    it to feed a flight-recorder ring instead of a file.
    """

    def __init__(
        self,
        target: str | Path | IO[str],
        *,
        algorithm: str,
        capacity: Num = 1,
        cost_rate: Num = 1,
        log_checkpoints: bool = False,
    ) -> None:
        self._writer = JsonlTraceWriter(target)
        self.algorithm = algorithm
        self.capacity = capacity
        self.cost_rate = cost_rate
        self.log_checkpoints = log_checkpoints
        self._checkpoints = 0
        self._finished = False
        self._header_written = False

    # ------------------------------------------------------------- plumbing

    @property
    def records_written(self) -> int:
        return self._writer.records_written

    def _emit(self, record: dict[str, Any]) -> None:
        self._emit_line(record["kind"], _encode(record))

    def _emit_line(self, kind: str, line: str) -> None:
        """Write one canonical record line, after the header on first use.

        Hot path: the hooks pre-render their fixed-key records as literal
        canonical JSON (keys in sorted order) to skip the
        dict-build-plus-encode cost per record.
        """
        if not self._header_written:
            self._header_written = True
            self._writer.write(
                {
                    "kind": "header",
                    "schema": TRACE_SCHEMA_VERSION,
                    "algorithm": self.algorithm,
                    "capacity": self.capacity,
                    "cost_rate": self.cost_rate,
                }
            )
        self._writer.write_line(line)

    # ---------------------------------------------------------------- hooks

    def on_arrival(self, time: Num, item: "Arrival", bin: "Bin", opened: bool) -> None:
        t = _jnum(time)
        b = bin.index
        if opened:
            self._open(t, bin)
        item_id = item.item_id
        if item.tag is None:
            self._emit_line(
                "place",
                f'{{"bin":{b},"item":{_esc(item_id)},"kind":"place",'
                f'"parent":"bin:{b}","size":{_jnum(item.size)},'
                f'"span":{_esc("session:" + item_id)},"t":{t}}}',
            )
        else:
            # Tags are arbitrary JSON values: take the general encoder.
            self._emit(
                {
                    "kind": "place",
                    "t": time,
                    "item": item_id,
                    "size": item.size,
                    "bin": b,
                    "span": f"session:{item_id}",
                    "parent": f"bin:{b}",
                    "tag": item.tag,
                }
            )

    def on_departure(self, time: Num, item: "Arrival", bin: "Bin", closed: bool) -> None:
        t = _jnum(time)
        item_id = item.item_id
        self._emit_line(
            "depart",
            f'{{"bin":{bin.index},"item":{_esc(item_id)},"kind":"depart",'
            f'"span":{_esc("session:" + item_id)},"t":{t}}}',
        )
        if closed:
            self._close(t, bin, "drain")

    def on_server_failure(
        self, time: Num, bin: "Bin", evicted: Sequence["Arrival"]
    ) -> None:
        t = _jnum(time)
        b = bin.index
        ids = ",".join(_esc(view.item_id) for view in evicted)
        self._emit_line("failure", f'{{"bin":{b},"evicted":[{ids}],"kind":"failure","t":{t}}}')
        for view in evicted:
            self._emit_line(
                "evict",
                f'{{"bin":{b},"item":{_esc(view.item_id)},"kind":"evict",'
                f'"span":{_esc("session:" + view.item_id)},"t":{t}}}',
            )
        self._close(t, bin, "failure")

    def on_migration(
        self,
        time: Num,
        item: "Arrival",
        from_bin: "Bin",
        to_bin: "Bin",
        from_closed: bool,
        to_opened: bool,
    ) -> None:
        t = _jnum(time)
        b = to_bin.index
        item_id = item.item_id
        self._emit_line(
            "migrate",
            f'{{"bin":{b},"from":{from_bin.index},"item":{_esc(item_id)},'
            f'"kind":"migrate","parent":"bin:{b}",'
            f'"span":{_esc("session:" + item_id)},"t":{t}}}',
        )
        if from_closed:
            self._close(t, from_bin, "migrate")
        if to_opened:
            self._open(t, to_bin)

    def _open(self, t: str, bin: "Bin") -> None:
        b = bin.index
        self._emit_line(
            "open",
            f'{{"bin":{b},"capacity":{_jnum(bin.capacity)},"kind":"open",'
            f'"span":"bin:{b}","t":{t}}}',
        )

    def _close(self, t: str, bin: "Bin", reason: str) -> None:
        opened_at = bin.opened_at
        assert opened_at is not None  # a closing bin has opened
        b = bin.index
        self._emit_line(
            "close",
            f'{{"bin":{b},"kind":"close","opened_at":{_jnum(opened_at)},'
            f'"reason":"{reason}","span":"bin:{b}","t":{t}}}',
        )

    # ---------------------------------------------------------------- finish

    def finish(self, summary: StreamSummary) -> None:
        """Write the summary trailer and flush (close, if we opened a path).

        The trailer makes the file self-verifying: :func:`verify_trace`
        replays the records and asserts exact agreement with it.
        """
        if self._finished:
            return
        self._finished = True
        record: dict[str, Any] = {"kind": "summary"}
        for f in fields(StreamSummary):
            record[f.name] = getattr(summary, f.name)
        self._emit(record)
        self._writer.close()

    # ----------------------------------------------------------- checkpointing

    def checkpoint_state(self) -> dict[str, Any]:
        """Tracer state at an event boundary (plus the optional record).

        ``records`` is the number of records written so far: an
        interrupted run's file truncated to that many lines, concatenated
        with the resumed run's file, is byte-identical to the
        uninterrupted trace.
        """
        self._checkpoints += 1
        if self.log_checkpoints:
            self._emit({"kind": "checkpoint", "n": self._checkpoints})
        return {
            "records": self._writer.records_written,
            "checkpoints": self._checkpoints,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._checkpoints = state["checkpoints"]
        # The resumed sink continues an existing record stream: no header.
        self._header_written = True


# ---------------------------------------------------------------------------
# Replay


def iter_trace_records(source: str | Path | IO[str] | Iterable[str]) -> Iterator[dict[str, Any]]:
    """Yield parsed records from a path, open file, or iterable of lines."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield json.loads(line, object_hook=_decode_json)
        return
    for line in source:
        if line.strip():
            yield json.loads(line, object_hook=_decode_json)


def replay_summary(
    source: str | Path | IO[str] | Iterable[str],
) -> tuple[StreamSummary, StreamSummary | None]:
    """Reconstruct the run's :class:`StreamSummary` from its trace records.

    Returns ``(replayed, recorded)`` where ``recorded`` is the summary
    trailer if the trace carries one (``None`` for a truncated stream).
    The reconstruction repeats the engine's accumulation in the engine's
    order — each closed bin contributes ``close.t - close.opened_at`` in
    close-record order — so agreement is exact, not approximate.
    """
    header: dict[str, Any] | None = None
    recorded: StreamSummary | None = None
    num_items = 0
    bins_opened = 0
    open_bins = 0
    peak_open = 0
    total_bin_time: Num = 0
    end_time: Num | None = None
    for record in iter_trace_records(source):
        kind = record.get("kind")
        if kind == "header":
            if record.get("schema") != TRACE_SCHEMA_VERSION:
                raise TraceReplayError(
                    f"unsupported trace schema {record.get('schema')!r} "
                    f"(expected {TRACE_SCHEMA_VERSION})"
                )
            header = record
            continue
        if kind == "summary":
            recorded = StreamSummary(
                **{f.name: record[f.name] for f in fields(StreamSummary)}
            )
            continue
        if kind == "checkpoint":
            continue
        if header is None:
            raise TraceReplayError("trace has no header record")
        if "t" in record:
            end_time = record["t"]
        if kind == "open":
            bins_opened += 1
            open_bins += 1
            if open_bins > peak_open:
                peak_open = open_bins
        elif kind == "place":
            num_items += 1
        elif kind == "close":
            open_bins -= 1
            total_bin_time = total_bin_time + (record["t"] - record["opened_at"])
        elif kind not in ("depart", "evict", "failure", "migrate"):
            raise TraceReplayError(f"unknown trace record kind {kind!r}")
    if header is None:
        raise TraceReplayError("trace has no header record")
    if open_bins:
        raise TraceReplayError(
            f"trace ends with {open_bins} bin span(s) still open; file truncated?"
        )
    cost_rate = header["cost_rate"]
    replayed = StreamSummary(
        algorithm_name=header["algorithm"],
        capacity=header["capacity"],
        cost_rate=cost_rate,
        num_items=num_items,
        num_bins_used=bins_opened,
        peak_open_bins=peak_open,
        total_bin_time=total_bin_time,
        total_cost=cost_rate * total_bin_time,
        end_time=end_time,
    )
    return replayed, recorded


def verify_trace(source: str | Path | IO[str] | Iterable[str]) -> StreamSummary:
    """Replay a trace and assert exact agreement with its summary trailer.

    Returns the verified summary; raises :class:`TraceReplayError` naming
    every disagreeing field (or the missing trailer).  Agreement is exact
    — including the float cost fields, which replay in the engine's own
    accumulation order — so this doubles as a tamper/truncation check.
    """
    replayed, recorded = replay_summary(source)
    if recorded is None:
        raise TraceReplayError("trace has no summary trailer; run not finished?")
    if replayed == recorded:
        return recorded
    mismatches = []
    for f in fields(StreamSummary):
        got = getattr(replayed, f.name)
        want = getattr(recorded, f.name)
        if got != want:
            mismatches.append(f"{f.name}: replayed {got!r} != recorded {want!r}")
    raise TraceReplayError(
        "trace replay disagrees with the recorded summary: " + "; ".join(mismatches)
    )
