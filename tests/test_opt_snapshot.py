"""Unit and property tests for FFD / exact snapshot packing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DuplicateItemIdError, Item, make_items
from repro.analysis.classic_dbp import max_bins_lower_bound
from repro.opt.lower_bounds import opt_bracket, robust_ceil
from repro.opt.snapshot import (
    SearchLimitReached,
    exact_bin_count,
    ffd_bin_count,
    opt_total_exact,
    opt_total_ffd_upper_bound,
    snapshot_profile,
)
from repro.workloads import Clipped, Exponential, Uniform, generate_trace


class TestFFD:
    def test_empty(self):
        assert ffd_bin_count([]) == 0

    def test_simple(self):
        assert ffd_bin_count([0.5, 0.5, 0.5]) == 2

    def test_perfect_fill(self):
        assert ffd_bin_count([Fraction(1, 3)] * 6) == 2

    def test_classic_ffd_ordering_matters(self):
        # Decreasing order packs [0.6,0.4], [0.5,0.3] — 2 bins.
        assert ffd_bin_count([0.3, 0.6, 0.5, 0.4]) == 2

    def test_oversize_rejected(self):
        with pytest.raises(ValueError, match="exceeds capacity"):
            ffd_bin_count([1.5])

    def test_capacity_parameter(self):
        assert ffd_bin_count([3, 3, 3], capacity=10) == 1


class TestExact:
    def test_empty(self):
        assert exact_bin_count([]) == 0

    def test_beats_ffd_on_known_hard_instance(self):
        # FFD needs 3 bins; optimum is 2: {0.45,0.35,0.2} {0.45,0.35,0.2}.
        sizes = [0.45, 0.45, 0.35, 0.35, 0.2, 0.2]
        assert ffd_bin_count(sizes) >= exact_bin_count(sizes)
        assert exact_bin_count(sizes) == 2
        # Three copies force real branching.
        assert exact_bin_count(sizes * 3) == 6

    def test_exact_fraction_instance(self):
        sizes = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)] * 2
        assert exact_bin_count(sizes) == 2

    def test_node_limit(self):
        # FFD is suboptimal here (3 vs 2), so the search actually runs and
        # trips a tiny node budget.
        sizes = [0.45, 0.45, 0.35, 0.35, 0.2, 0.2]
        with pytest.raises(SearchLimitReached):
            exact_bin_count(sizes, node_limit=1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            exact_bin_count([0])
        with pytest.raises(ValueError):
            exact_bin_count([2.0])


class TestSnapshotProfile:
    def test_profile_counts(self):
        items = make_items(
            [(0, 4, Fraction(3, 4)), (0, 4, Fraction(3, 4)), (4, 6, Fraction(1, 2))]
        )
        times, counts = snapshot_profile(items, method="exact")
        assert times == [0, 4, 6]
        assert counts == [2, 1, 0]

    def test_bad_method(self):
        with pytest.raises(ValueError):
            snapshot_profile([], method="magic")

    def test_integrals(self):
        items = make_items([(0, 2, 0.6), (0, 2, 0.6), (1, 3, 0.3)])
        # exact: [0,1): 2 bins; [1,2): 2 bins; [2,3): 1 bin -> 5.
        assert opt_total_exact(items) == 5
        assert opt_total_ffd_upper_bound(items) >= opt_total_exact(items)

    @pytest.mark.parametrize("size", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
    def test_overlapping_duplicate_ids_raise_a_typed_error(self, size):
        # A second 'x' arrives at 1 while the first is active until 2.
        items = [Item(0, 2, size, item_id="x"), Item(1, 4, size / 2, item_id="x")]
        for sweep in (
            snapshot_profile,
            opt_bracket,
            opt_total_exact,
            lambda items: max_bins_lower_bound(items, method="l2"),
        ):
            with pytest.raises(DuplicateItemIdError, match=r"^duplicate item id: 'x'$"):
                sweep(items)
        # An id may rejoin once its item has left.
        rejoined = [Item(0, 2, size, item_id="x"), Item(2, 4, size / 2, item_id="x")]
        assert snapshot_profile(rejoined) == ([0, 2, 4], [1, 1, 0])


# ---------------------------------------------------------------------------
# Properties


sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=12).map(lambda n: Fraction(n, 12)),
    min_size=0,
    max_size=12,
)


@given(sizes_strategy)
@settings(max_examples=80, deadline=None)
def test_exact_between_lower_bound_and_ffd(sizes):
    exact = exact_bin_count(sizes)
    total = sum(sizes, Fraction(0))
    assert exact >= robust_ceil(total)
    assert exact <= ffd_bin_count(sizes)
    if sizes:
        assert exact >= 1
        # Items larger than 1/2 cannot share a bin.
        assert exact >= sum(1 for s in sizes if s > Fraction(1, 2))


@given(sizes_strategy, sizes_strategy)
@settings(max_examples=50, deadline=None)
def test_exact_is_subadditive_and_monotone(a, b):
    assert exact_bin_count(a + b) <= exact_bin_count(a) + exact_bin_count(b)
    assert exact_bin_count(a + b) >= exact_bin_count(a)


def test_exact_integral_within_the_bracket_on_a_random_trace():
    trace = generate_trace(
        arrival_rate=1.5,
        horizon=80.0,
        duration=Clipped(Exponential(3.0), 1.0, 9.0),
        size=Uniform(0.1, 0.9),
        seed=0,
    )
    exact = opt_total_exact(trace.items)
    bracket = opt_bracket(trace.items)
    assert bracket.pointwise_lb <= exact <= bracket.ffd_ub
