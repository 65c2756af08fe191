"""Trace container with statistics and (de)serialisation.

A :class:`Trace` is an ordered list of items plus convenience views: the
stats of Table 1 (μ, span, u(R)), JSON/CSV round-trips for sharing
workloads between runs, and time-window slicing.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..core.item import Item, _check_scalar_sizes, validate_items
from ..core.metrics import TraceStats, trace_stats

__all__ = ["Trace"]


@dataclass(frozen=True)
class Trace:
    """An immutable item list with metadata."""

    items: tuple[Item, ...]
    name: str = "trace"
    _stats_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_items(cls, items: Iterable[Item], *, name: str = "trace") -> "Trace":
        return cls(items=tuple(validate_items(items)), name=name)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, idx: int) -> Item:
        return self.items[idx]

    @property
    def stats(self) -> TraceStats:
        if "stats" not in self._stats_cache:
            self._stats_cache["stats"] = trace_stats(self.items)
        return self._stats_cache["stats"]

    @property
    def mu(self) -> numbers.Real:
        return self.stats.mu

    def sorted_by_arrival(self) -> "Trace":
        """A copy with items in (arrival, id) order."""
        return Trace(
            items=tuple(sorted(self.items, key=lambda it: (it.arrival, it.item_id))),
            name=self.name,
        )

    def window(self, start: numbers.Real, end: numbers.Real) -> "Trace":
        """Items whose whole interval lies within ``[start, end]``."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end}]")
        return Trace(
            items=tuple(
                it for it in self.items if it.arrival >= start and it.departure <= end
            ),
            name=f"{self.name}[{start},{end}]",
        )

    def merged_with(self, other: "Trace", *, name: str | None = None) -> "Trace":
        """Union of two traces (item ids must not collide)."""
        return Trace.from_items(
            [*self.items, *other.items], name=name or f"{self.name}+{other.name}"
        )

    # ----------------------------------------------------------------- (de)ser

    def to_json(self) -> str:
        """Serialise (times/sizes as floats) to a JSON document; a vector
        size raises :class:`~repro.core.validation.InvalidItemTypeError`."""
        _check_scalar_sizes(self.items, "to be written to a trace file")
        return json.dumps(
            {
                "name": self.name,
                "items": [
                    {
                        "id": it.item_id,
                        "arrival": float(it.arrival),
                        "departure": float(it.departure),
                        "size": float(it.size),
                        "tag": it.tag if isinstance(it.tag, (str, int, float, type(None))) else str(it.tag),
                    }
                    for it in self.items
                ],
            },
            indent=None,
        )

    @classmethod
    def from_json(cls, document: str) -> "Trace":
        data = json.loads(document)
        items = [
            Item(
                arrival=entry["arrival"],
                departure=entry["departure"],
                size=entry["size"],
                item_id=entry["id"],
                tag=entry.get("tag"),
            )
            for entry in data["items"]
        ]
        return cls.from_items(items, name=data.get("name", "trace"))

    def to_csv(self) -> str:
        """``id,arrival,departure,size,tag`` rows with a header; a vector
        size raises :class:`~repro.core.validation.InvalidItemTypeError`."""
        _check_scalar_sizes(self.items, "to be written to a trace file")
        lines = ["id,arrival,departure,size,tag"]
        for it in self.items:
            tag = "" if it.tag is None else str(it.tag)
            lines.append(f"{it.item_id},{float(it.arrival)},{float(it.departure)},{float(it.size)},{tag}")
        return "\n".join(lines)

    @classmethod
    def from_csv(cls, document: str, *, name: str = "trace") -> "Trace":
        lines = [ln for ln in document.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("id,"):
            raise ValueError("CSV must start with the 'id,arrival,departure,size,tag' header")
        items = []
        for ln in lines[1:]:
            item_id, a, d, s, tag = ln.split(",", 4)
            items.append(
                Item(
                    arrival=float(a),
                    departure=float(d),
                    size=float(s),
                    item_id=item_id,
                    tag=tag or None,
                )
            )
        return cls.from_items(items, name=name)
