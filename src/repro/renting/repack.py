"""Bounded-migration repacking (Berndt–Jansen–Klein style).

Fully dynamic bin packing allows the packer to *move* items, but charges
every move against a migration budget: BJK's model grants ``β × size(r)``
of moved-size budget per inserted item ``r`` (``β`` the *migration
factor*).  :class:`BoundedRepacker` brings that dispatch mode to the
MinUsageTime engine: it rides on the ``repacker`` hook of
:func:`~repro.core.streaming.simulate_stream` (and
:func:`~repro.cloud.dispatcher.dispatch_stream`), accrues budget at each
arrival, and spends it on *bin evacuations* — moving every item out of a
nearly-empty open bin so the bin closes and its rental stops accruing.

Everything is deterministic and exact: candidate source bins are tried in
(level, youngest-first) order, items move largest-first into the earliest
fitting destination, budget arithmetic stays in the trace's number types
(``Fraction`` traces never touch floats), and the accumulated budget and
move counters ride in stream checkpoints (``repacker_state``) so resumed
runs repack identically.

The repacker keeps each open bin's *plan* — its residual, its largest
item, its contents in move order, their total size and its place in the
source order — from one search to the next, and drops it when the bin
changes: an arrival into it, a departure from it, or a migration into or
out of it.  The engine's hooks name the bin each event touched, so a
search over ``n`` open bins recomputes only the plans of changed bins,
then drops, in O(n), every source whose largest item is larger than
every other bin's residual and so cannot move (on typical traces, most
sources).  Only the rest are ordered and planned.  Planning probes each
destination's residual with one comparison and recomputes a residual
only for the destination that takes an item.  Plans are derived from bin
contents, which checkpoints carry, so they never ride in a checkpoint.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, NamedTuple

from ..core.numeric import Num
from ..core.bin import Bin, PackedItem
from ..core.checkpoint import CheckpointError
from ..core.resources import Size, scalarize_max
from ..core.validation import CheckpointFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.item import Item
    from ..core.simulator import Simulator

__all__ = ["BoundedRepacker"]


def _move_order(view: PackedItem) -> tuple[Num, str]:
    """An evacuation moves a bin's items largest first, ties by id."""
    return (-scalarize_max(view.size), view.item_id)


class _Plan(NamedTuple):
    """What the evacuation search needs of one open bin; valid until the
    bin changes."""

    residual: Size
    #: ``residual`` as one number (its largest component for vectors).
    room: Num
    #: The largest item's scalar size: the first move's.
    largest: Num
    #: Source order: lightest first, then youngest.
    key: tuple[Num, int]
    #: The bin's items in move order.
    contents: list[PackedItem]
    #: Their total scalar size, the budget an evacuation spends.
    moved: Num

    @classmethod
    def of(cls, source: Bin) -> "_Plan":
        contents = sorted(source.items(), key=_move_order)
        moved: Num = 0
        for view in contents:
            moved = moved + scalarize_max(view.size)
        residual = source.residual
        return cls(
            residual,
            scalarize_max(residual),
            scalarize_max(contents[0].size),
            (scalarize_max(source.level), -source.index),
            contents,
            moved,
        )


class BoundedRepacker:
    """Consolidate open bins by migration, within a per-insertion budget.

    Parameters
    ----------
    factor:
        The migration factor ``β``: every arrival of size ``s`` grants
        ``β·s`` of moved-size budget.  ``factor=0`` grants nothing, so no
        migration ever happens and a run is byte-identical to the same
        run without a repacker (asserted by the differential tests).

    Evacuations are sought after arrivals and after departures:
    departures grant no budget, but they *free* capacity, which is when
    consolidation opportunities typically appear.

    Implements the :class:`~repro.core.streaming.StreamRepacker`
    protocol.  A single evacuation moves all items of one source bin into
    other open bins (never a fresh one), costs the total moved size, and
    closes the source at the migration instant with its rental settled
    exactly (:meth:`~repro.core.simulator.Simulator.migrate`).
    """

    def __init__(self, factor: Num = 1) -> None:
        if not factor >= 0:  # also rejects NaN
            raise ValueError(f"migration factor must be >= 0, got {factor}")
        self.factor = factor
        self._budget: Num = 0
        self.migrations_done = 0
        self.size_moved: Num = 0
        self.bins_emptied = 0
        #: The plan of every open bin a search has seen since it changed.
        self._plans: dict[Bin, _Plan] = {}

    # ------------------------------------------------------ repacker protocol

    def reset(self) -> None:
        self._plans.clear()
        self._budget = 0
        self.migrations_done = 0
        self.size_moved = 0
        self.bins_emptied = 0

    @property
    def budget(self) -> Num:
        """Moved-size budget currently available."""
        return self._budget

    def after_arrival(self, sim: "Simulator", item: "Item", bin: Bin | None) -> None:
        if bin is not None:  # None: the item was refused, no bin changed
            self._plans.pop(bin, None)
        if self.factor == 0:
            return
        self._budget = self._budget + self.factor * scalarize_max(item.size)
        self._consolidate(sim)

    def after_departure(self, sim: "Simulator", item_id: str, bin: Bin) -> None:
        self._plans.pop(bin, None)
        if self.factor == 0:
            return
        self._consolidate(sim)

    def unscale(self, scale: int) -> None:
        """Divide the budget and ``size_moved`` by ``scale``.

        Record-mode :func:`~repro.core.simulator.simulate` runs an exact
        trace with every size multiplied by ``scale`` (the integer lattice
        of :mod:`repro.core.numeric`) and maps this state back to the
        caller's units through here.  A counter the run changed reads as a
        ``Fraction`` equal to the unscaled run's value.  A finished run
        keeps no plan (every bin closed), so none is left in scaled units.
        """
        if self.factor == 0:
            return  # nothing accrued, nothing moved
        self._budget = Fraction(self._budget, scale)
        if self.bins_emptied:
            self.size_moved = Fraction(self.size_moved, scale)

    def checkpoint_state(self) -> dict[str, Any]:
        return {
            "budget": self._budget,
            "migrations_done": self.migrations_done,
            "size_moved": self.size_moved,
            "bins_emptied": self.bins_emptied,
        }

    def restore_state(self, state: Any) -> None:
        self._plans.clear()  # the resumed run's bins are new objects
        if state is None:
            raise CheckpointError(
                "checkpoint carries no repacker state; it was taken without a "
                "repacker and cannot resume in migration-bounded mode"
            )
        try:
            budget = state["budget"]
            migrations_done = state["migrations_done"]
            size_moved = state["size_moved"]
            bins_emptied = state["bins_emptied"]
        except (KeyError, TypeError) as exc:
            raise CheckpointFormatError(
                f"malformed repacker_state ({exc!r})"
            ) from exc
        self._budget = budget
        self.migrations_done = migrations_done
        self.size_moved = size_moved
        self.bins_emptied = bins_emptied

    # ----------------------------------------------------------- consolidation

    def _consolidate(self, sim: "Simulator") -> None:
        """Perform every affordable evacuation, cheapest source first."""
        plans = self._plans
        while True:
            found = self._find_evacuation(sim)
            if found is None:
                return
            source, moves, moved = found
            plans.pop(source, None)
            for item_id, dest in moves:
                sim.migrate(item_id, dest)
                plans.pop(dest, None)
            self._budget = self._budget - moved
            self.size_moved = self.size_moved + moved
            self.migrations_done += len(moves)
            self.bins_emptied += 1

    def _find_evacuation(
        self, sim: "Simulator"
    ) -> tuple[Bin, list[tuple[str, Bin]], Num] | None:
        """An affordable full evacuation of one open bin, or ``None``.

        Source candidates are tried lightest (then youngest) first; each
        candidate's items are matched largest-first to the earliest-opened
        other bin with enough *planned* residual.  The first candidate
        whose items all fit elsewhere within the budget wins.

        Before ordering, every candidate whose largest item exceeds the
        roomiest other bin's residual is dropped, which cannot change the
        winner.  For scalar sizes that item is the plan's first, and its
        first probe fails exactly when it exceeds every other residual,
        i.e. their maximum.  For vector sizes, fitting a bin (dominance)
        implies ``max(size) <= max(residual)``, so no feasible candidate
        is dropped.  The two largest residuals give every bin its roomiest
        alternative, so the filter costs O(n) for ``n`` open bins once
        their plans are known; only the plans of bins that changed since
        the last search are computed.
        """
        bins = list(sim.open_bins)
        if len(bins) < 2:
            return None
        plans = self._plans
        rows = [plans.get(b) or plans.setdefault(b, _Plan.of(b)) for b in bins]
        room = [row.room for row in rows]
        top = max(range(len(bins)), key=room.__getitem__)
        room_beside_top = max(room[:top] + room[top + 1 :])
        roomiest = room[top]
        # Keys are distinct (bin indices are), so positions never compare.
        candidates = sorted(
            [
                (row.key, pos)
                for pos, row in enumerate(rows)
                if row.largest <= (room_beside_top if pos == top else roomiest)
            ]
        )
        for _, pos in candidates:
            row = rows[pos]
            moved = row.moved
            if moved > self._budget:
                continue
            moves = self._plan(
                row.contents,
                bins[:pos] + bins[pos + 1 :],
                [other.residual for other in rows[:pos] + rows[pos + 1 :]],
            )
            if moves is not None:
                return bins[pos], moves, moved
        return None

    @staticmethod
    def _plan(
        contents: list[PackedItem], dests: list[Bin], free: list[Size]
    ) -> list[tuple[str, Bin]] | None:
        """First-fit ``contents`` into ``dests``, or ``None`` if an item
        fits nowhere.  ``free`` holds the destinations' residuals and is
        updated as items are placed."""
        # A destination's residual is recomputed from its planned *level*
        # with the exact arithmetic Bin.add and Bin.fits use (level = level
        # + size; size <= capacity - level): decrementing the residual
        # associates float sums differently and can disagree with the bin
        # by one ulp, making Simulator.migrate reject a "feasible" plan.
        levels: dict[int, Size] = {}
        moves: list[tuple[str, Bin]] = []
        for view in contents:
            for d, residual in enumerate(free):
                if view.size <= residual:
                    break
            else:
                return None
            dest = dests[d]
            level = levels[d] = levels.get(d, dest.level) + view.size
            free[d] = dest.capacity - level
            moves.append((view.item_id, dest))
        return moves

    def __repr__(self) -> str:
        return f"BoundedRepacker(factor={self.factor!r})"
