"""Indexed open-bin state: O(1) membership, O(log n) fit queries.

The seed engine kept open bins in a plain list, so every First Fit arrival
scanned all open bins and every departure paid an O(n) ``list.remove`` —
quadratic end-to-end.  :class:`OpenBinIndex` replaces the list with a
slot-map keyed by ``bin.index`` plus, per bin label, a pool of
opening-order slots with two ordered fit views:

* a **max-residual segment tree** over the slots, answering "lowest-index
  open bin with residual >= s" (the First Fit query) by a single
  root-to-leaf descent, and
* a **sorted residual list** answering "smallest residual >= s, earliest
  opened on ties" (the Best Fit query) by binary search.

A pool pays only for the queries asked: each view is built from the live
bins the first time its query runs on that pool, and only views that
exist are kept current on add/remove/update.  A First Fit or Modified
First Fit run never allocates a Best Fit list; a Best Fit run never builds
a tree.  Dead slots are reclaimed by order-preserving compaction, so slot
arrays stay O(peak open bins) however many bins a long trace opens.

Pools holding :class:`Resources` residuals (vector runs) swap the segment
tree for per-dimension NumPy residual columns intersected in one
vectorised sweep — see :class:`_VectorPool`.

Bins are pooled by the ``bin.label`` they carry when registered (Modified
First/Best Fit segregate large- and small-item bins this way); queries
either target one pool or combine all pools.  Labels must not change after
a bin is indexed.

:class:`OpenBinView` is the immutable sequence facade the simulator hands
to list-scanning algorithms and exposes as ``Simulator.open_bins`` —
iteration is in opening order and costs nothing extra; positional indexing
is supported for compatibility but is O(n).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence
from itertools import islice
from typing import Any, Iterator, overload

import numpy as np

from .numeric import Num
from .bin import Bin
from .resources import Resources, Size, dims_of, scalarize_max

__all__ = ["ANY_LABEL", "OpenBinIndex", "OpenBinView"]

#: Residual stored for dead (closed) slots — compares below every item size.
_CLOSED = float("-inf")


class _AnyLabel:
    """Sentinel for fit queries spanning every label pool."""

    _instance: "_AnyLabel | None" = None

    def __new__(cls) -> "_AnyLabel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "ANY_LABEL"


ANY_LABEL = _AnyLabel()


class _Pool:
    """Opening-order slots and lazy fit views for one label's open bins.

    Bins take consecutive slots in the order they are added, so the lowest
    live slot holding a fit is the earliest-opened fit.  Two views hang off
    the slots, each ``None`` until the first query of its kind builds it
    from the live bins (:meth:`_build_ff`, :meth:`_build_bf`); from then on
    ``add``/``update``/``discard`` keep it current:

    * ``ff``, the First Fit view — here a 1-based max-residual segment
      tree with leaves at ``cap + slot``;
    * ``by_residual``, the Best Fit view — ``(scalarize_max(residual),
      bin.index)`` keys in sorted order, ``entry`` holding each bin's key.

    When an add finds the slot array full, :meth:`_make_room` moves the
    live bins to its front in opening order and doubles it only if more
    than half of it is live, so ``cap`` stays at most four times the
    pool's peak of open bins.  A free list would not do: a new bin in a
    reused low slot would sit ahead of older bins.

    :class:`_VectorPool` swaps in a different First Fit view; everything
    else, the Best Fit view included, is shared.
    """

    __slots__ = ("dims", "cap", "n_slots", "slots", "slot_of", "ff", "by_residual", "entry")

    def __init__(self, dims: int | None = None) -> None:
        self.dims = dims  # None for scalar residuals
        self.cap = 1  # slot capacity (power of two)
        self.n_slots = 0  # first unused slot; dead ones below it await compaction
        self.slots: list[Bin | None] = [None]
        self.slot_of: dict[int, int] = {}  # bin.index -> slot
        self.ff: list[Any] | None = None
        self.by_residual: list[tuple[Num, int]] | None = None
        self.entry: dict[int, tuple[Num, int]] = {}  # bin.index -> its by_residual key

    # ------------------------------------------------------------- mutation

    def add(self, bin: Bin) -> None:
        residual = bin.residual
        dims = dims_of(residual)
        if dims != self.dims:
            if dims is None or self.dims is None:
                raise TypeError(
                    f"bin {bin.index} has a {'scalar' if dims is None else 'vector'} "
                    "residual; scalar and vector bins cannot share a label pool"
                )
            raise ValueError(f"bin {bin.index} is {dims}-D in a {self.dims}-D pool")
        if self.n_slots == self.cap:
            self._make_room()
        slot = self.n_slots
        self.n_slots = slot + 1
        self.slots[slot] = bin
        self.slot_of[bin.index] = slot
        if self.ff is not None:
            self._ff_set(slot, residual)
        if self.by_residual is not None:
            key = (scalarize_max(residual), bin.index)
            insort(self.by_residual, key)
            self.entry[bin.index] = key

    def discard(self, bin: Bin) -> None:
        slot = self.slot_of.pop(bin.index)
        self.slots[slot] = None
        if self.ff is not None:
            self._ff_set(slot, None)
        if self.by_residual is not None:
            key = self.entry.pop(bin.index)
            del self.by_residual[bisect_left(self.by_residual, key)]

    def update(self, bin: Bin) -> None:
        residual = bin.residual
        if self.ff is not None:
            self._ff_set(self.slot_of[bin.index], residual)
        by_residual = self.by_residual
        if by_residual is not None:
            del by_residual[bisect_left(by_residual, self.entry[bin.index])]
            key = (scalarize_max(residual), bin.index)
            insort(by_residual, key)
            self.entry[bin.index] = key

    # -------------------------------------------------------------- queries

    def first_fit(self, size: Size) -> Bin | None:
        """Earliest-opened bin with residual >= ``size`` (O(log n))."""
        tree = self.ff
        if tree is None:
            tree = self._build_ff()
        if tree[1] < size:
            return None
        node = 1
        cap = self.cap
        while node < cap:
            node <<= 1
            if tree[node] < size:
                node += 1
        return self.slots[node - cap]

    def best_fit(self, size: Size) -> tuple[Num, int] | None:
        """``(scalarize_max(residual), bin.index)`` of the tightest fit.

        Ties on the key resolve to the lowest ``bin.index`` — the
        earliest-opened bin, matching the list scan's strict-< rule.  For
        scalars the key is the residual, so the first entry at or after
        the bisection point fits (O(log n)).  For vectors dominance
        implies ``scalarize_max(size) <= scalarize_max(residual)``, so
        every dominating bin lies at or after that point and the forward
        scan stops at the first one that dominates.
        """
        by_residual = self.by_residual
        if by_residual is None:
            by_residual = self._build_bf()
        slots = self.slots
        slot_of = self.slot_of
        # (key, -1) sorts before every real (key, bin.index) entry: indexes
        # are >= 0, so the search lands on the first key >= scalarize_max(size).
        for i in range(bisect_left(by_residual, (scalarize_max(size), -1)), len(by_residual)):
            entry = by_residual[i]
            candidate = slots[slot_of[entry[1]]]
            assert candidate is not None
            if size <= candidate.residual:
                return entry
        return None

    # ------------------------------------------------------------ internals

    def _live(self) -> list[Bin]:
        """The live bins in opening order."""
        return [bin for bin in self.slots[: self.n_slots] if bin is not None]

    def _make_room(self) -> None:
        """Compact a full slot array, doubling it if over half is live."""
        live = self._live()
        if 2 * len(live) > self.cap:
            self.cap *= 2
        self.slots = live + [None] * (self.cap - len(live))
        self.slot_of = {bin.index: slot for slot, bin in enumerate(live)}
        self.n_slots = len(live)
        if self.ff is not None:
            self._build_ff()

    def _build_ff(self) -> list[Any]:
        """(Re)build the First Fit view over the current slots."""
        self.ff = self._empty_ff()
        for slot, bin in enumerate(self.slots[: self.n_slots]):
            if bin is not None:
                self._ff_set(slot, bin.residual)
        return self.ff

    def _build_bf(self) -> list[tuple[Num, int]]:
        """Build the Best Fit view from the live bins."""
        self.entry = {bin.index: (scalarize_max(bin.residual), bin.index) for bin in self._live()}
        self.by_residual = sorted(self.entry.values())
        return self.by_residual

    def _empty_ff(self) -> list[Any]:
        return [_CLOSED] * (2 * self.cap)

    def _ff_set(self, slot: int, residual: Size | None) -> None:
        """Set a slot's leaf (``None``: dead) and repair its ancestors."""
        tree = self.ff
        assert tree is not None
        node = self.cap + slot
        value = _CLOSED if residual is None else residual
        tree[node] = value
        while node > 1:
            sibling = tree[node ^ 1]
            if sibling > value:
                value = sibling
            node >>= 1
            if tree[node] == value:
                return  # the ancestors' maxima are unchanged
            tree[node] = value


def _float_upper(value: Num) -> float:
    """Smallest float known to be >= ``value`` (exact for float inputs)."""
    f = float(value)
    return f if f >= value else math.nextafter(f, math.inf)


def _float_lower(value: Num) -> float:
    """Largest float known to be <= ``value`` (exact for float inputs)."""
    f = float(value)
    return f if f <= value else math.nextafter(f, -math.inf)


class _VectorPool(_Pool):
    """A :class:`_Pool` of bins with :class:`Resources` residuals.

    Only the First Fit view differs: the scalar pool's max-residual tree
    becomes one **residual column per dimension** over the same
    opening-order slots, held as NumPy float arrays.  A First Fit query
    intersects the per-dimension candidate sets in one vectorised sweep —
    ``(col_d >= need_d)`` for every dimension, combined with ``&`` — and
    walks the surviving slots in opening order, confirming exact dominance
    on the candidate's true residual.  Columns store rounded-up floats and
    demands round down (`_float_upper`/`_float_lower`), so exact residuals
    that dominate are never masked out — the float mask over-approximates
    and the exact check rejects the rare false positive.  The sweep is
    O(slots) per query but at C speed over contiguous memory, which in
    practice beats a pruned multi-tree descent: per-dimension maxima
    inside a subtree can come from *different* bins, so tree pruning
    degenerates to a Python-speed scan exactly when bins are tight (the
    common case).  Compaction keeps the swept window within four times the
    pool's peak of open bins.

    The Best Fit view is the shared sorted list, keyed on the canonical
    max-dimension scalarisation.  In one dimension both views reduce
    exactly to the scalar pool's orderings, which the differential suite
    checks byte for byte.
    """

    __slots__ = ()

    def first_fit(self, size: Size) -> Bin | None:
        """Earliest-opened bin whose residual dominates ``size``.

        One vectorised candidate-intersection sweep over the per-dimension
        residual columns, then exact dominance checks on the surviving
        slots in opening order (almost always just the first).
        """
        assert isinstance(size, Resources)
        cols = self.ff
        if cols is None:
            cols = self._build_ff()
        n = self.n_slots
        need = size.values
        mask = cols[0][:n] >= _float_lower(need[0])
        for d in range(1, len(cols)):
            mask &= cols[d][:n] >= _float_lower(need[d])
        slots = self.slots
        for slot in np.flatnonzero(mask):
            bin = slots[slot]
            if bin is not None and size <= bin.residual:
                return bin
        return None

    def _empty_ff(self) -> list[Any]:
        assert self.dims is not None
        return [np.full(self.cap, _CLOSED, dtype=np.float64) for _ in range(self.dims)]

    def _ff_set(self, slot: int, residual: Size | None) -> None:
        cols = self.ff
        assert cols is not None
        if residual is None:
            for col in cols:
                col[slot] = _CLOSED
        else:
            assert isinstance(residual, Resources)
            for col, value in zip(cols, residual.values):
                col[slot] = _float_upper(value)


class OpenBinIndex:
    """Slot-map of open bins with per-label, lazily built fit views.

    The simulator owns one instance and keeps it current: ``add`` on bin
    open (after the algorithm's ``on_bin_opened`` hook has set the label),
    ``update`` after any placement or partial departure changes a bin's
    residual, ``discard`` when the bin closes.  Membership tests, length
    and removal are O(1); fit queries are O(log n), except the first query
    of each kind on a pool, which builds that pool's view in O(n); updates
    cost O(log n) per view a query has built; iteration yields bins in
    opening order.
    """

    __slots__ = ("_by_index", "_pools", "_pool_of")

    def __init__(self) -> None:
        self._by_index: dict[int, Bin] = {}  # insertion order == opening order
        self._pools: dict[Any, _Pool] = {}
        self._pool_of: dict[int, _Pool] = {}  # pool of the label at registration

    # ------------------------------------------------------- set protocol

    def __len__(self) -> int:
        return len(self._by_index)

    def __iter__(self) -> Iterator[Bin]:
        return iter(self._by_index.values())

    def __contains__(self, bin: object) -> bool:
        return isinstance(bin, Bin) and self._by_index.get(bin.index) is bin

    def __repr__(self) -> str:  # pragma: no cover
        return f"OpenBinIndex({len(self)} open)"

    # ----------------------------------------------------------- mutation

    def add(self, bin: Bin) -> None:
        """Register a newly opened bin under its current label."""
        if bin.index in self._by_index:
            raise ValueError(f"bin {bin.index} is already indexed")
        pool = self._pools.get(bin.label)
        if pool is None:
            dims = dims_of(bin.residual)
            pool = self._pools[bin.label] = _Pool() if dims is None else _VectorPool(dims)
        pool.add(bin)
        self._by_index[bin.index] = bin
        self._pool_of[bin.index] = pool

    def discard(self, bin: Bin) -> None:
        """Drop a (closed) bin from the index."""
        del self._by_index[bin.index]
        self._pool_of.pop(bin.index).discard(bin)

    def update(self, bin: Bin) -> None:
        """Refresh the pool's built views after the bin's residual changed."""
        self._pool_of[bin.index].update(bin)

    # ------------------------------------------------------------ queries

    def first_fit(self, size: Size, label: Any = ANY_LABEL) -> Bin | None:
        """Earliest-opened bin with residual >= ``size``, or ``None``.

        With the default ``ANY_LABEL`` the search spans every pool (plain
        First Fit); passing a label restricts it to that pool (Modified
        First Fit's per-class rule).
        """
        if label is ANY_LABEL:
            best: Bin | None = None
            for pool in self._pools.values():
                hit = pool.first_fit(size)
                if hit is not None and (best is None or hit.index < best.index):
                    best = hit
            return best
        pool = self._pools.get(label)
        return pool.first_fit(size) if pool is not None else None

    def best_fit(self, size: Size, label: Any = ANY_LABEL) -> Bin | None:
        """Tightest-fitting bin (smallest residual >= ``size``), or ``None``.

        Ties on residual resolve to the earliest-opened bin, matching the
        list scan's behaviour.  ``label`` restricts the search as in
        :meth:`first_fit`.
        """
        if label is ANY_LABEL:
            best: tuple[Num, int] | None = None
            for pool in self._pools.values():
                hit = pool.best_fit(size)
                if hit is not None and (best is None or hit < best):
                    best = hit
        else:
            pool = self._pools.get(label)
            best = pool.best_fit(size) if pool is not None else None
        if best is None:
            return None
        return self._by_index[best[1]]


class OpenBinView(Sequence[Bin]):
    """Read-only sequence view over an :class:`OpenBinIndex`.

    Iteration (opening order), ``len`` and ``in`` are as cheap as on the
    index itself; positional access materializes lazily and is O(n), which
    the adversarial constructions' small simulations can afford.  Handing
    this view out instead of copying the open-bin list keeps
    ``Simulator.open_bins`` O(1).
    """

    __slots__ = ("_index",)

    def __init__(self, index: OpenBinIndex) -> None:
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Bin]:
        return iter(self._index)

    def __contains__(self, bin: object) -> bool:
        return bin in self._index

    @overload
    def __getitem__(self, pos: int) -> Bin: ...

    @overload
    def __getitem__(self, pos: slice) -> list[Bin]: ...

    def __getitem__(self, pos: int | slice) -> Bin | list[Bin]:
        if isinstance(pos, slice):
            return list(self._index)[pos]
        n = len(self._index)
        if pos < 0:
            pos += n
        if not 0 <= pos < n:
            raise IndexError("open-bin index out of range")
        return next(islice(iter(self._index), pos, None))

    def __repr__(self) -> str:  # pragma: no cover
        return f"OpenBinView({len(self)} open)"
