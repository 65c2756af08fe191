"""Renting-servers packing strategies (Kamali–López-Ortiz, Masoori et al.).

Each strategy degenerates to a stock Any Fit algorithm at a boundary
parameter value — :class:`Hybrid` at threshold 1 is First Fit and at
threshold 0 is Next Fit, :class:`MoveToFront` without the move rule is
First Fit, :class:`EqualDurationFit` with an unbounded freshness window
is First Fit — and the differential tests assert those identities byte
for byte.  None of the strategies labels its bins, so the degenerate
runs produce bit-identical checkpoints too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from ..core.numeric import Num
from ..core.bin import Bin
from ..core.resources import Size, scalarize_max
from ..algorithms.base import (
    OPEN_NEW,
    Arrival,
    PackingAlgorithm,
    _OpenNew,
    register_algorithm,
)

__all__ = ["EqualDurationFit", "Hybrid", "MoveToFront"]


@register_algorithm("renting-hybrid")
class Hybrid(PackingAlgorithm):
    """Kamali & López-Ortiz's threshold family for renting servers.

    Items are classed by the size threshold ``t``: *large* items
    (``size > t·W``) are packed Next-Fit style into a dedicated current
    bin, *small* items (``size ≤ t·W``) First-Fit style into the pool of
    bins opened by small items.  The pools are segregated — a small item
    never rides in a large-item bin and vice versa — matching the
    class-partitioned packing of the renting-servers analyses.

    Boundary identities (asserted byte-for-byte by the differential
    tests): ``Hybrid(threshold=1)`` classes everything small and *is*
    First Fit; ``Hybrid(threshold=0)`` classes everything large and *is*
    Next Fit.

    Home regime and claimed ratio: see ``docs/RENTING.md``.
    """

    def __init__(self, threshold: Num = Fraction(1, 2)) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self._cutoff: Num = threshold
        self._current_large: Bin | None = None
        self._large_bins: set[int] = set()

    def reset(self, capacity: Size) -> None:
        self._cutoff = self.threshold * scalarize_max(capacity)
        self._current_large = None
        self._large_bins = set()

    def _is_large(self, item: Arrival) -> bool:
        return scalarize_max(item.size) > self._cutoff

    def choose_bin(
        self, item: Arrival, open_bins: Sequence[Bin]
    ) -> Bin | _OpenNew | None:
        if self._is_large(item):
            current = self._current_large
            if current is not None and current.is_open and current.fits(item):
                return current
            return OPEN_NEW
        for b in open_bins:
            if b.index not in self._large_bins and b.fits(item):
                return b
        return OPEN_NEW

    def on_bin_opened(self, bin: Bin, item: Arrival) -> None:
        if self._is_large(item):
            self._large_bins.add(bin.index)
            self._current_large = bin

    def on_item_departed(self, item_id: str, bin: Bin) -> None:
        if bin.is_closed:
            self._large_bins.discard(bin.index)

    def checkpoint_state(self) -> dict[str, Any]:
        current = self._current_large
        return {
            "current_large": (
                current.index if current is not None and current.is_open else None
            ),
            "large_bins": sorted(self._large_bins),
        }

    def restore_state(self, state: Any, open_bins: dict[int, Bin]) -> None:
        current = state["current_large"]
        self._current_large = open_bins.get(current) if current is not None else None
        self._large_bins = set(state["large_bins"])

    def __repr__(self) -> str:
        return f"Hybrid(threshold={self.threshold!r})"


@register_algorithm("move-to-front")
class MoveToFront(PackingAlgorithm):
    """Kamali & López-Ortiz's recency strategy for renting servers.

    Open bins are kept in most-recently-used order: each item goes to the
    first fitting bin of that order, which (along with freshly opened
    bins) moves to the front.  Recency clusters concurrently active items
    into the same servers, which is why MTF wins on practical
    distributions in the renting-servers experiments.

    ``MoveToFront(move_to_front=False)`` disables both reorderings, so
    the scan order stays opening order — exactly First Fit, asserted
    byte-for-byte by the differential tests.
    """

    def __init__(self, move_to_front: bool = True) -> None:
        self.move_to_front = move_to_front
        self._order: list[Bin] = []

    def reset(self, capacity: Size) -> None:
        self._order = []

    def choose_bin(
        self, item: Arrival, open_bins: Sequence[Bin]
    ) -> Bin | _OpenNew | None:
        if len(self._order) != len(open_bins):
            # Bins closed since our last look; prune lazily.
            self._order = [b for b in self._order if b.is_open]
        for pos, b in enumerate(self._order):
            if b.fits(item):
                if self.move_to_front and pos > 0:
                    del self._order[pos]
                    self._order.insert(0, b)
                return b
        return OPEN_NEW

    def on_bin_opened(self, bin: Bin, item: Arrival) -> None:
        if self.move_to_front:
            self._order.insert(0, bin)
        else:
            self._order.append(bin)

    def on_item_departed(self, item_id: str, bin: Bin) -> None:
        if bin.is_closed:
            self._order = [b for b in self._order if b is not bin]

    def checkpoint_state(self) -> dict[str, Any]:
        return {"order": [b.index for b in self._order if b.is_open]}

    def restore_state(self, state: Any, open_bins: dict[int, Bin]) -> None:
        self._order = [open_bins[index] for index in state["order"]]

    def __repr__(self) -> str:
        return f"MoveToFront(move_to_front={self.move_to_front!r})"


@register_algorithm("equal-duration-fit")
class EqualDurationFit(PackingAlgorithm):
    """Duration-phase-aware First Fit for the equal-duration regime.

    Masoori et al. analyse MinUsageTime DBP when every job has the same
    duration ``d``.  In that regime a bin opened at time ``s`` drains by
    ``s + d`` *unless* late joiners keep extending it — the whole source
    of waste is pairing a fresh job with an almost-expired bin.  This
    strategy packs First-Fit style but only into *fresh* bins, those
    opened within the last ``window`` time units (``window ≈ d/2`` keeps
    co-located jobs at most half a phase apart); stale bins are left to
    drain.  With ``window=None`` every bin counts as fresh and the
    strategy *is* First Fit, asserted byte-for-byte by the differential
    tests.

    Stateless beyond its parameters, so checkpoint/resume is exact with
    the default ``checkpoint_state``.
    """

    def __init__(self, window: Num | None = None) -> None:
        if window is not None and window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.window = window

    def choose_bin(
        self, item: Arrival, open_bins: Sequence[Bin]
    ) -> Bin | _OpenNew | None:
        window = self.window
        for b in open_bins:
            if not b.fits(item):
                continue
            if window is not None:
                opened_at = b.opened_at
                assert opened_at is not None  # open bins always have one
                if item.arrival - opened_at > window:
                    continue
            return b
        return OPEN_NEW

    def __repr__(self) -> str:
        return f"EqualDurationFit(window={self.window!r})"
