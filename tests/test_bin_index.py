"""Unit tests for the indexed open-bin state (OpenBinIndex / OpenBinView)."""

import numpy as np
import pytest

from repro import BestFit, FirstFit, ModifiedFirstFit
from repro.algorithms import ModifiedBestFit
from repro.core.bin import Bin
from repro.core.bin_index import ANY_LABEL, OpenBinIndex, OpenBinView
from repro.core.item import Item
from repro.core.resources import Resources, scalarize_max
from repro.core.simulator import Simulator

_seq = iter(range(10**6))


def _item(size):
    n = next(_seq)
    return Item(arrival=0, departure=1e9, size=size, item_id=f"f{n}")


def _bin(index, residual, label=None, capacity=1.0):
    """An open bin carrying ``residual`` free capacity (filled with one item)."""
    b = Bin(index=index, capacity=capacity, label=label)
    if residual < capacity:
        b.add(_item(capacity - residual), 0.0)
    return b


def _bins(*residuals, label=None):
    return [_bin(i, r, label=label) for i, r in enumerate(residuals)]


class TestFirstFit:
    def test_picks_lowest_index_with_room(self):
        index = OpenBinIndex()
        for b in _bins(0.2, 0.6, 0.9, 0.6):
            index.add(b)
        assert index.first_fit(0.5).index == 1
        assert index.first_fit(0.7).index == 2
        assert index.first_fit(0.95) is None

    def test_reflects_discard_and_update(self):
        index = OpenBinIndex()
        bins = _bins(0.2, 0.6, 0.9)
        for b in bins:
            index.add(b)
        index.discard(bins[1])
        assert index.first_fit(0.5).index == 2
        bins[2].add(_item(0.85), 1.0)  # residual 0.9 -> 0.05
        index.update(bins[2])
        assert index.first_fit(0.5) is None

    def test_update_after_partial_departure(self):
        index = OpenBinIndex()
        b = Bin(index=0, capacity=1.0)
        first, second = _item(0.6), _item(0.3)
        b.add(first, 0.0)
        b.add(second, 0.0)
        index.add(b)
        assert index.first_fit(0.5) is None
        b.remove(first.item_id, 1.0)  # residual 0.1 -> 0.7
        index.update(b)
        assert index.first_fit(0.5) is b
        assert index.best_fit(0.5) is b

    def test_grows_past_initial_capacity(self):
        index = OpenBinIndex()
        bins = _bins(*([0.5] * 40))
        for b in bins:
            index.add(b)
        for b in bins[:39]:
            b.add(_item(0.5), 1.0)  # fill all but the last
            index.update(b)
        assert index.first_fit(0.5).index == 39

    def test_empty_index(self):
        assert OpenBinIndex().first_fit(0.1) is None
        assert OpenBinIndex().best_fit(0.1) is None


class TestBestFit:
    def test_picks_tightest_fit(self):
        index = OpenBinIndex()
        for b in _bins(0.9, 0.4, 0.6):
            index.add(b)
        assert index.best_fit(0.3).index == 1
        assert index.best_fit(0.5).index == 2
        assert index.best_fit(0.99) is None

    def test_residual_tie_resolves_to_earliest_opened(self):
        index = OpenBinIndex()
        for b in _bins(0.5, 0.5, 0.5):
            index.add(b)
        assert index.best_fit(0.5).index == 0


class TestLabelPools:
    def test_label_restricts_query(self):
        index = OpenBinIndex()
        large = _bin(0, 0.9, label="large")
        small = _bin(1, 0.9, label="small")
        index.add(large)
        index.add(small)
        assert index.first_fit(0.5, label="large") is large
        assert index.first_fit(0.5, label="small") is small
        assert index.first_fit(0.5, label="other") is None
        assert index.best_fit(0.5, label="small") is small

    @pytest.mark.parametrize(
        "first, second",
        [(1.0, Resources(1.0, 1.0)), (Resources(1.0, 1.0), 1.0)],
        ids=["scalar-then-2d", "2d-then-scalar"],
    )
    def test_scalar_and_vector_bins_cannot_share_a_pool(self, first, second):
        index = OpenBinIndex()
        index.add(Bin(index=0, capacity=first))
        with pytest.raises(TypeError, match="cannot share a label pool"):
            index.add(Bin(index=1, capacity=second))

    def test_vector_bins_of_other_dimension_rejected(self):
        index = OpenBinIndex()
        index.add(Bin(index=0, capacity=Resources.uniform(1.0, 2)))
        with pytest.raises(ValueError, match="3-D in a 2-D pool"):
            index.add(Bin(index=1, capacity=Resources.uniform(1.0, 3)))

    def test_any_label_spans_pools(self):
        index = OpenBinIndex()
        index.add(_bin(3, 0.4, label="large"))
        index.add(_bin(1, 0.9, label="small"))
        index.add(_bin(2, 0.6, label="small"))
        # First Fit: lowest opening index across pools.
        assert index.first_fit(0.3, label=ANY_LABEL).index == 1
        # Best Fit: tightest residual across pools.
        assert index.best_fit(0.3).index == 3


class TestSetProtocol:
    def test_membership_is_identity_keyed(self):
        index = OpenBinIndex()
        b = _bin(0, 0.5)
        index.add(b)
        assert b in index
        assert _bin(0, 0.5) not in index  # same index, different object
        assert "not a bin" not in index

    def test_iteration_in_opening_order(self):
        index = OpenBinIndex()
        bins = _bins(0.1, 0.2, 0.3)
        for b in bins:
            index.add(b)
        assert list(index) == bins
        index.discard(bins[1])
        assert list(index) == [bins[0], bins[2]]
        assert len(index) == 2

    def test_double_add_rejected(self):
        index = OpenBinIndex()
        b = _bin(0, 0.5)
        index.add(b)
        with pytest.raises(ValueError):
            index.add(b)


class TestOpenBinView:
    def _view(self):
        index = OpenBinIndex()
        bins = _bins(0.1, 0.2, 0.3)
        for b in bins:
            index.add(b)
        return index, OpenBinView(index), bins

    def test_sequence_protocol(self):
        _, view, bins = self._view()
        assert len(view) == 3
        assert list(view) == bins
        assert view[0] is bins[0]
        assert view[-1] is bins[2]
        assert view[1:] == bins[1:]
        assert bins[1] in view

    def test_index_out_of_range(self):
        _, view, _ = self._view()
        with pytest.raises(IndexError):
            view[3]
        with pytest.raises(IndexError):
            view[-4]

    def test_is_live_and_immutable(self):
        index, view, bins = self._view()
        index.discard(bins[0])
        assert list(view) == bins[1:]  # tracks the index, no copy
        with pytest.raises(TypeError):
            view[0] = bins[1]  # type: ignore[index]
        assert not hasattr(view, "append")


# ------------------------------------------------------------ brute force


def _scan_first_fit(bins, size, label):
    """First Fit by the seed list scan: earliest-opened bin that fits."""
    for b in bins:
        if (label is ANY_LABEL or b.label == label) and size <= b.residual:
            return b
    return None


def _scan_best_fit(bins, size, label):
    """Best Fit by list scan: smallest key, strict < keeps the earliest."""
    best = None
    for b in bins:
        if (label is ANY_LABEL or b.label == label) and size <= b.residual:
            if best is None or scalarize_max(b.residual) < scalarize_max(best.residual):
                best = b
    return best


class _Churn:
    """Seeded add/update/discard steps on an index, mirrored in a list.

    Sizes are eighths, so every residual comparison is float-exact.  At
    most ``max_open`` bins are live at once while many more are opened,
    so each label pool compacts its slots many times.
    """

    LABELS = ("a", "b")

    def __init__(self, seed, dims, max_open=12):
        self.rng = np.random.default_rng(seed)
        self.dims = dims
        self.max_open = max_open
        self.capacity = 1.0 if dims is None else Resources.uniform(1.0, dims)
        self.index = OpenBinIndex()
        self.live = []  # opening order
        self.opened = 0

    def size(self, low=1, high=9):
        eighths = self.rng.integers(low, high, size=self.dims or 1) / 8.0
        if self.dims is None:
            return float(eighths[0])
        return Resources(*(float(v) for v in eighths))

    def query_sizes(self):
        if self.dims is None:
            return [k / 8.0 for k in range(1, 9)]
        return [Resources(a / 8.0, b / 8.0) for a in (1, 3, 6) for b in (1, 4, 7)]

    def step(self):
        op = self.rng.random()
        if not self.live or (op < 0.4 and len(self.live) < self.max_open):
            label = self.LABELS[self.rng.integers(len(self.LABELS))]
            b = Bin(index=self.opened, capacity=self.capacity, label=label)
            b.add(_item(self.size(1, 5)), 0.0)
            self.opened += 1
            self.index.add(b)
            self.live.append(b)
        elif op < 0.75:
            b = self.live[self.rng.integers(len(self.live))]
            item = _item(self.size(1, 3))
            if item.size <= b.residual:
                b.add(item, 1.0)
            else:
                b.remove(b.items()[0].item_id, 1.0)
                if b.is_closed:
                    self.index.discard(b)
                    self.live.remove(b)
                    return
            self.index.update(b)
        else:
            b = self.live.pop(self.rng.integers(len(self.live)))
            self.index.discard(b)

    def check(self):
        for label in (ANY_LABEL, *self.LABELS, "missing"):
            for size in self.query_sizes():
                assert self.index.first_fit(size, label) is _scan_first_fit(
                    self.live, size, label
                )
                assert self.index.best_fit(size, label) is _scan_best_fit(
                    self.live, size, label
                )
        assert list(self.index) == self.live


class TestAgainstListScan:
    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_step_matches_scan(self, seed, dims):
        churn = _Churn(seed, dims)
        for _ in range(1500):
            churn.step()
            churn.check()
        assert churn.opened >= 20 * churn.max_open  # compaction fired often

    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    def test_views_built_mid_run_match_scan(self, dims):
        # No query for the first 400 steps: the views are first built from
        # bins that have already been through compactions.
        churn = _Churn(5, dims)
        for step in range(1200):
            churn.step()
            if step >= 400:
                churn.check()

    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    @pytest.mark.parametrize("query", ["best_fit", "first_fit"])
    def test_first_query_after_100_bins(self, dims, query):
        churn = _Churn(9, dims, max_open=100)
        while churn.opened < 100:
            churn.step()
        scan = _scan_best_fit if query == "best_fit" else _scan_first_fit
        for size in churn.query_sizes():
            assert getattr(churn.index, query)(size) is scan(churn.live, size, ANY_LABEL)


def _pool_views(sim):
    """``(first-fit view built, best-fit view built)`` per label pool."""
    return {
        label: (pool.ff is not None, pool.by_residual is not None)
        for label, pool in sim._bins._pools.items()
    }


class TestLazyViews:
    @staticmethod
    def _run(algo, dims=None):
        capacity = 1.0 if dims is None else Resources.uniform(1.0, dims)
        sim = Simulator(algo, capacity=capacity)
        rng = np.random.default_rng(3)
        for t in range(300):
            size = rng.integers(1, 8, size=dims or 1) / 8.0
            sim.arrive(t, float(size[0]) if dims is None else Resources(*size), f"i{t}")
            if t >= 20:
                sim.depart(f"i{t - 20}", t + 0.5)
        return sim

    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    @pytest.mark.parametrize("algo_cls", [FirstFit, ModifiedFirstFit])
    def test_first_fit_runs_never_build_a_best_fit_list(self, algo_cls, dims):
        views = _pool_views(self._run(algo_cls(), dims))
        assert views and all(ff and not bf for ff, bf in views.values())

    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    @pytest.mark.parametrize("algo_cls", [BestFit, ModifiedBestFit])
    def test_best_fit_runs_never_build_a_first_fit_view(self, algo_cls, dims):
        views = _pool_views(self._run(algo_cls(), dims))
        assert views and all(bf and not ff for ff, bf in views.values())

    def test_unqueried_index_builds_nothing(self):
        index = OpenBinIndex()
        bins = _bins(0.2, 0.6, 0.9)
        for b in bins:
            index.add(b)
        bins[0].add(_item(0.1), 1.0)
        index.update(bins[0])
        index.discard(bins[1])
        (pool,) = index._pools.values()
        assert pool.ff is None and pool.by_residual is None


class TestCompaction:
    @pytest.mark.parametrize("dims", [None, 2], ids=["scalar", "2d"])
    def test_slot_capacity_follows_peak_open(self, dims):
        capacity = 1.0 if dims is None else Resources.uniform(1.0, dims)
        size = 0.5 if dims is None else Resources.uniform(0.5, dims)
        index = OpenBinIndex()
        live = []
        for i in range(10_000):
            b = Bin(index=i, capacity=capacity)
            b.add(_item(size), 0.0)
            index.add(b)
            live.append(b)
            if len(live) == 8:
                index.discard(live.pop(0))
            assert index.first_fit(size) is live[0]
        (pool,) = index._pools.values()
        assert pool.cap <= 64

    def test_compaction_keeps_opening_order(self):
        # A full slot array that is mostly dead compacts in place instead of
        # growing, and freed low slots are never handed to newer bins: the
        # earliest-opened fit still wins.
        index = OpenBinIndex()
        bins = _bins(*([0.1] * 16))
        bins[3] = _bin(3, 0.5)
        for b in bins:
            index.add(b)
        (pool,) = index._pools.values()
        assert pool.cap == 16
        for b in bins:
            if b.index not in (3, 15):
                index.discard(b)
        newer = [_bin(16 + i, 0.5) for i in range(6)]
        for b in newer:
            index.add(b)
        assert pool.cap == 16
        assert index.first_fit(0.5) is bins[3]
        assert index.best_fit(0.5) is bins[3]
        assert list(index) == [bins[3], bins[15], *newer]
