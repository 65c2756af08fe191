"""Unit and property tests for repro.core.interval (and the span of
repro.core.metrics, the measure of an item list's interval union)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.interval import (
    Interval,
    interval_difference,
    merge_intervals,
    union_length,
)
from repro.core.item import make_items
from repro.core.metrics import trace_span


class TestInterval:
    def test_length(self):
        assert Interval(2, 5).length == 3

    def test_zero_length_allowed(self):
        assert Interval(2, 2).length == 0

    def test_reversed_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(3, 2)

    def test_contains_endpoints(self):
        iv = Interval(1, 4)
        assert iv.contains(1) and iv.contains(4) and iv.contains(2)
        assert not iv.contains(0.99) and not iv.contains(4.01)

    def test_overlaps_requires_positive_measure(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert not Interval(0, 2).overlaps(Interval(2, 4))  # touching only
        assert not Interval(0, 1).overlaps(Interval(2, 3))

    def test_intersection(self):
        assert Interval(0, 3).intersection(Interval(1, 5)) == Interval(1, 3)
        assert Interval(0, 1).intersection(Interval(1, 2)) == Interval(1, 1)
        assert Interval(0, 1).intersection(Interval(2, 3)) is None


class TestMerge:
    def test_merges_overlapping(self):
        merged = merge_intervals([Interval(0, 2), Interval(1, 4), Interval(6, 7)])
        assert merged == [Interval(0, 4), Interval(6, 7)]

    def test_merges_touching(self):
        assert merge_intervals([Interval(0, 1), Interval(1, 2)]) == [Interval(0, 2)]

    def test_empty(self):
        assert merge_intervals([]) == []

    def test_nested(self):
        assert merge_intervals([Interval(0, 10), Interval(2, 3)]) == [Interval(0, 10)]


class TestSpan:
    def test_figure1_example(self):
        # Three items: two overlapping, one detached — span counts the union.
        items = make_items([(0, 4, 0.5), (2, 6, 0.5), (9, 11, 0.5)])
        assert trace_span(items) == 6 + 2

    def test_accepts_interval_objects(self):
        assert union_length([Interval(0, 1), Interval(5, 6)]) == 2

    def test_exact_fractions(self):
        items = make_items(
            [(Fraction(0), Fraction(1, 3), 0.5), (Fraction(1, 4), Fraction(1, 2), 0.5)]
        )
        assert trace_span(items) == Fraction(1, 2)
        assert type(trace_span(items)) is Fraction


class TestDifference:
    def test_hole_in_middle(self):
        parts = interval_difference(Interval(0, 10), [Interval(3, 5)])
        assert parts == [Interval(0, 3), Interval(5, 10)]

    def test_cover_everything(self):
        assert interval_difference(Interval(2, 4), [Interval(0, 10)]) == []

    def test_no_overlap(self):
        assert interval_difference(Interval(0, 2), [Interval(5, 6)]) == [Interval(0, 2)]

    def test_clip_edges(self):
        parts = interval_difference(Interval(0, 10), [Interval(-5, 2), Interval(8, 12)])
        assert parts == [Interval(2, 8)]


# ---------------------------------------------------------------------------
# Properties


intervals_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50)
    ).map(lambda t: Interval(min(t), max(t))),
    min_size=0,
    max_size=15,
)


@given(intervals_strategy)
def test_union_length_matches_brute_force(ivs):
    """Exact union measure equals a unit-grid brute force (integer grid)."""
    covered = set()
    for iv in ivs:
        for x in range(int(iv.left), int(iv.right)):
            covered.add(x)
    assert union_length(ivs) == len(covered)


@given(intervals_strategy)
def test_merge_produces_disjoint_sorted(ivs):
    merged = merge_intervals(ivs)
    for a, b in zip(merged, merged[1:]):
        assert a.right < b.left  # strictly separated after merging


@given(intervals_strategy, intervals_strategy)
def test_union_length_monotone(a, b):
    assert union_length(a + b) >= union_length(a)
    assert union_length(a + b) <= union_length(a) + union_length(b)


@given(intervals_strategy)
def test_difference_partitions(ivs):
    """len(difference) + len(intersection with union) == len(whole)."""
    whole = Interval(0, 50)
    diff = interval_difference(whole, ivs)
    clipped = [iv.intersection(whole) for iv in ivs]
    clipped = [iv for iv in clipped if iv is not None]
    assert union_length(diff) + union_length(clipped) == whole.length
    # Difference never overlaps the subtracted set.
    for d in diff:
        for iv in ivs:
            assert not d.overlaps(iv)
