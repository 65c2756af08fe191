"""Checkpoint/resume for streamed simulations.

A million-item streamed run (:func:`repro.core.streaming.simulate_stream`)
used to be all-or-nothing: any interruption — a preempted worker, a crash,
a deploy — threw the whole pass away.  This module makes the streaming
engine restartable: at any event boundary the complete engine state fits
in O(active sessions) space — open bins (index, capacity, label, opening
time, exact level), active items with their pending departure times and
source positions, the aggregate counters, observer state, and any mutable
algorithm state — and a :class:`StreamCheckpoint` captures it as a
JSON-serializable snapshot.

Resuming replays nothing: the caller re-creates the *same* source stream
(same generator, same seed), :func:`repro.core.streaming.simulate_stream`
skips the already-consumed prefix, reconstructs the engine from the
snapshot, and continues.  The resumed run is **exact**: every float is
restored bit for bit (bin levels are stored rather than re-summed, since
float addition is order-sensitive), so the final
:class:`~repro.core.streaming.StreamSummary` equals the uninterrupted
run's — asserted by the differential tests.

Scope: checkpoints cover the ``record=False`` streaming mode only (the
full-history mode would need the entire trace anyway).  Times may be
``int``, ``float`` or ``Fraction``; sizes and capacities may also be
vector :class:`~repro.core.resources.Resources`.  ``Fraction`` and
``Resources`` values are written as tagged objects and restored exactly.
Bin labels, item tags and observer, algorithm and repacker state must be
JSON-representable.  Algorithms
restore via :meth:`~repro.algorithms.base.PackingAlgorithm.restore_state`;
the stock family (FF/BF/MFF/MBF, Next Fit) is exact.

Payload layout (schema 4): one JSON object whose ``bins`` and ``active``
fields are tables of columns, ``{"key": [value, ...], ...}`` with one list
per row key, all of the same length; in memory they stay tuples of row
dicts, and :meth:`StreamCheckpoint.from_json` is the one decoder.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .numeric import Num
from .bin import Bin
from .events import Entry, EventKind
from .resources import Resources, Size
from .simulator import Simulator, _ActiveItem
from .telemetry import SimulationObserver
from .validation import CheckpointFormatError, CheckpointSchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..algorithms.base import PackingAlgorithm

__all__ = [
    "CheckpointError",
    "StreamCheckpoint",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_SCHEMA_VERSION",
]

#: Bumped whenever the snapshot layout changes incompatibly.
CHECKPOINT_VERSION = 1

#: Version stamp of the *JSON payload* layout (field encoding, type tags).
#: Distinct from :data:`CHECKPOINT_VERSION`, which versions the captured
#: engine state: a payload written under a different schema fails loudly in
#: :meth:`StreamCheckpoint.from_json` with a typed
#: :class:`~repro.core.validation.CheckpointSchemaError` instead of
#: mis-restoring.  Bumped to 2 when ``schema_version`` stamping and exact
#: ``Fraction`` tagging were added, to 3 when the bundled observers stopped
#: saving open times and sessions (they read both from the engine's bins and
#: arrival views), so a v2 payload would restore wrong observer state, and
#: to 4 when ``bins`` and ``active`` became tables of columns.
CHECKPOINT_SCHEMA_VERSION = 4

#: Row keys of the ``bins`` and ``active`` tables: the keys of each
#: in-memory row dict, and the columns of the schema-4 payload.
_BIN_COLUMNS = ("index", "capacity", "label", "opened_at", "level")
_ACTIVE_COLUMNS = ("item_id", "size", "arrival", "tag", "departure", "seq", "bin")


class CheckpointError(RuntimeError):
    """Raised for unusable checkpoints (mismatched run, truncated source)."""


@dataclass(frozen=True, slots=True)
class StreamCheckpoint:
    """Complete engine state of a streamed run at one event boundary.

    Build one with :meth:`capture` (normally done for you by
    ``simulate_stream(..., checkpoint_every=N, on_checkpoint=sink)``),
    persist it with :meth:`to_json`, and hand it back to
    ``simulate_stream(..., resume_from=...)`` together with a fresh
    instance of the same source stream.
    """

    algorithm_name: str
    capacity: Size
    cost_rate: Num
    #: Items pulled from the source stream so far; the resume skips these.
    items_consumed: int
    #: Arrival + departure events processed so far.
    events_processed: int
    #: Last arrival time seen (stream-order validation resumes from here).
    last_arrival: Num | None
    now: Num | None
    auto_id: int
    bins_opened: int
    peak_open: int
    items_arrived: int
    closed_bin_time: Num
    #: Open bins in opening order, one dict per bin keyed by
    #: ``index, capacity, label, opened_at, level``; written as columns.
    bins: tuple[dict[str, Any], ...]
    #: Active items, one dict per session keyed by
    #: ``item_id, size, arrival, tag, departure, seq, bin`` (``bin`` is the
    #: ``index`` of a row of ``bins``); written as columns.
    active: tuple[dict[str, Any], ...]
    #: Per-observer ``checkpoint_state()`` payloads, positionally aligned.
    observers: tuple[Any, ...]
    algorithm_state: Any = None
    #: ``checkpoint_state()`` of the bounded-migration repacker, if one was
    #: driving the run (``None`` otherwise).  Migrated item→bin membership
    #: itself needs no extra state: ``active`` already records the *current*
    #: bin of every item.
    repacker_state: Any = None
    version: int = CHECKPOINT_VERSION

    # ---------------------------------------------------------------- capture

    @classmethod
    def capture(
        cls,
        sim: Simulator,
        pending: Sequence[Entry],
        items_consumed: int,
        events_processed: int,
        last_arrival: Num | None,
        repacker_state: Any = None,
    ) -> "StreamCheckpoint":
        """Snapshot a live streaming simulator at an event boundary.

        ``pending`` is the event kernel's heap of ``(departure, DEPARTURE,
        seq, item_id)`` entries, one for every active item.
        """
        if sim._record:
            raise CheckpointError(
                "checkpoints cover streaming (record=False) simulations only"
            )
        departure_of = {item_id: (dep, seq) for dep, _, seq, item_id in pending}
        active: list[dict[str, Any]] = []
        for item_id, record in sim._active.items():
            dep, seq = departure_of[item_id]
            view = record.view
            active.append(
                {
                    "item_id": item_id,
                    "size": view.size,
                    "arrival": view.arrival,
                    "tag": view.tag,
                    "departure": dep,
                    "seq": seq,
                    "bin": record.bin.index,
                }
            )
        bins = tuple(
            {
                "index": b.index,
                "capacity": b.capacity,
                "label": b.label,
                "opened_at": b.opened_at,
                "level": b.level,
            }
            for b in sim._bins  # iteration is opening order
        )
        return cls(
            algorithm_name=sim.algorithm.name,
            capacity=sim.capacity,
            cost_rate=sim.cost_rate,
            items_consumed=items_consumed,
            events_processed=events_processed,
            last_arrival=last_arrival,
            now=sim._now,
            auto_id=sim._auto_id,
            bins_opened=sim._bins_opened,
            peak_open=sim._peak_open,
            items_arrived=sim._items_arrived,
            closed_bin_time=sim._closed_bin_time,
            bins=bins,
            active=tuple(active),
            observers=tuple(o.checkpoint_state() for o in sim.observers),
            algorithm_state=sim.algorithm.checkpoint_state(),
            repacker_state=repacker_state,
        )

    # ---------------------------------------------------------------- restore

    def restore(
        self,
        algorithm: "PackingAlgorithm",
        *,
        strict: bool = True,
        indexed: bool = True,
        observers: Sequence[SimulationObserver] = (),
    ) -> tuple[Simulator, list[Entry]]:
        """Reconstruct the simulator and the event kernel's departure heap.

        ``algorithm`` must be a fresh instance of the checkpointed
        algorithm (matched by registry name); ``observers`` must be fresh
        instances positionally matching the checkpointed ones — their
        state is restored via ``restore_state``.  A mismatched run raises
        :class:`CheckpointError`; a state its owner cannot restore (a
        ``KeyError``/``TypeError``/``ValueError`` from ``restore_state``)
        raises :class:`~repro.core.validation.CheckpointFormatError`.
        """
        from ..algorithms.base import Arrival

        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if algorithm.name != self.algorithm_name:
            raise CheckpointError(
                f"checkpoint was taken with algorithm "
                f"{self.algorithm_name!r}, cannot resume with {algorithm.name!r}"
            )
        if len(observers) != len(self.observers):
            raise CheckpointError(
                f"checkpoint has state for {len(self.observers)} observers, "
                f"got {len(observers)}"
            )
        sim = Simulator(
            algorithm,
            capacity=self.capacity,
            cost_rate=self.cost_rate,
            strict=strict,
            indexed=indexed,
            record=False,
            observers=observers,
        )
        bins_by_index: dict[int, Bin] = {
            state["index"]: Bin(
                index=state["index"],
                capacity=state["capacity"],
                label=state["label"],
                record_log=False,
            )
            for state in self.bins
        }
        pending: list[Entry] = []
        for entry in self.active:
            target = bins_by_index[entry["bin"]]
            view = Arrival(
                item_id=entry["item_id"],
                size=entry["size"],
                arrival=entry["arrival"],
                tag=entry["tag"],
            )
            target.add(view, entry["arrival"])
            sim._active[entry["item_id"]] = _ActiveItem(view=view, bin=target)
            pending.append(
                (entry["departure"], EventKind.DEPARTURE.value, entry["seq"], entry["item_id"])
            )
        heapq.heapify(pending)
        for state in self.bins:  # opening order: index insertion order matters
            target = bins_by_index[state["index"]]
            target.opened_at = state["opened_at"]
            # Exact level, not the re-added sum: float addition is
            # order-sensitive and fit decisions compare residuals exactly.
            target._level = state["level"]
            sim._bins.add(target)
        sim._now = self.now
        sim._auto_id = self.auto_id
        sim._bins_opened = self.bins_opened
        sim._peak_open = self.peak_open
        sim._items_arrived = self.items_arrived
        sim._closed_bin_time = self.closed_bin_time
        # A state that decoded but does not fit its owner is a malformed
        # checkpoint, the same typed error the decoder raises.
        try:
            for observer, state in zip(observers, self.observers):
                if state is not None:
                    observer.restore_state(state)
            algorithm.restore_state(self.algorithm_state, bins_by_index)
        except CheckpointFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"checkpoint state does not restore: {type(exc).__name__}: {exc}"
            ) from exc
        return sim, pending

    # ---------------------------------------------------------- serialization

    def to_json(self) -> str:
        """Serialize to JSON (floats round-trip exactly).

        The payload is stamped with :data:`CHECKPOINT_SCHEMA_VERSION` so a
        future layout change fails loudly on restore.  ``bins`` and
        ``active`` are written as tables of columns, one list per row key,
        so a key is written once per table rather than once per session.
        Vector sizes/capacities/levels are tagged as
        ``{"__resources__": [...]}`` and exact rationals as
        ``{"__fraction__": [num, den]}`` so :meth:`from_json` restores
        :class:`~repro.core.resources.Resources` and
        :class:`~fractions.Fraction` values bit for bit.
        """
        # Shallow on purpose: ``dataclasses.asdict`` would deep-copy every
        # session row only for ``json.dumps`` to walk the copy again.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["bins"] = _columns(self.bins, _BIN_COLUMNS)
        payload["active"] = _columns(self.active, _ACTIVE_COLUMNS)
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION
        return json.dumps(payload, sort_keys=True, default=_encode_json)

    @classmethod
    def from_json(cls, text: str) -> "StreamCheckpoint":
        """Parse a :meth:`to_json` payload.

        Malformed or truncated input raises a typed
        :class:`~repro.core.validation.CheckpointFormatError` — including a
        ``bins``/``active`` table with a missing or extra column, columns
        of different lengths, or a session whose ``bin`` is not in the
        ``bins`` table; a payload written under a different schema version
        raises :class:`~repro.core.validation.CheckpointSchemaError`.
        Neither leaks bare ``json.JSONDecodeError``/``KeyError``/
        ``TypeError``.  The table checks also keep :meth:`restore` from
        meeting a missing column or an unknown bin, so a store's verified
        fallback skips such a generation instead of resuming from it.
        """
        try:
            payload = json.loads(text, object_hook=_decode_json)
        except json.JSONDecodeError as exc:
            raise CheckpointFormatError(f"not valid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise CheckpointFormatError(
                f"expected a JSON object, got {type(payload).__name__}"
            )
        schema = payload.pop("schema_version", None)
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointSchemaError(
                expected=CHECKPOINT_SCHEMA_VERSION, got=schema
            )
        try:
            bins = _rows(payload["bins"], _BIN_COLUMNS, "bins")
            active = _rows(payload["active"], _ACTIVE_COLUMNS, "active")
            indices = set(payload["bins"]["index"])
            if len(indices) != len(bins):
                raise CheckpointFormatError("the bins table repeats a bin index")
            if not indices.issuperset(payload["active"]["bin"]):
                stray = next(row for row in active if row["bin"] not in indices)
                raise CheckpointFormatError(
                    f"session {stray['item_id']!r} names bin {stray['bin']!r}, "
                    "which is not in the bins table"
                )
            payload["bins"] = bins
            payload["active"] = active
            payload["observers"] = tuple(payload["observers"])
            return cls(**payload)
        except (KeyError, TypeError) as exc:
            raise CheckpointFormatError(
                f"missing or malformed checkpoint fields ({exc})"
            ) from exc


def _columns(
    rows: tuple[dict[str, Any], ...], keys: tuple[str, ...]
) -> dict[str, list[Any]]:
    """Transpose row dicts into one list per key."""
    return {key: [row[key] for row in rows] for key in keys}


def _rows(table: Any, keys: tuple[str, ...], name: str) -> tuple[dict[str, Any], ...]:
    """Transpose a payload table back into row dicts, validating its shape."""
    if not isinstance(table, dict) or table.keys() != set(keys):
        found = sorted(table) if isinstance(table, dict) else type(table).__name__
        raise CheckpointFormatError(
            f"{name} must hold exactly the columns {list(keys)}, got {found}"
        )
    columns = [table[key] for key in keys]
    if not all(isinstance(column, list) for column in columns):
        raise CheckpointFormatError(f"every {name} column must be a list")
    lengths = {key: len(column) for key, column in zip(keys, columns)}
    if len(set(lengths.values())) > 1:
        raise CheckpointFormatError(f"{name} columns differ in length: {lengths}")
    return tuple(dict(zip(keys, values)) for values in zip(*columns))


def _encode_json(obj: Any) -> Any:
    if isinstance(obj, Resources):
        return {"__resources__": list(obj.values)}
    if isinstance(obj, Fraction):
        return {"__fraction__": [obj.numerator, obj.denominator]}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _decode_json(obj: dict[str, Any]) -> Any:
    if len(obj) == 1 and "__resources__" in obj:
        return Resources(*obj["__resources__"])
    if len(obj) == 1 and "__fraction__" in obj:
        num, den = obj["__fraction__"]
        return Fraction(num, den)
    return obj
