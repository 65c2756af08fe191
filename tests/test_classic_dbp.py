"""Tests for the classic MaxBins objective module."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BestFit, FirstFit, Item, make_items, simulate
from repro.analysis.classic_dbp import (
    max_bins_exact,
    max_bins_lower_bound,
    max_bins_ratio,
)
from repro.core.events import EventKind, _by_arrival, _merge_events
from repro.opt.snapshot import l2_lower_bound
from tests.conftest import exact_items, float_items


class TestLowerBound:
    def test_simple_peak(self):
        items = make_items([(0, 4, 0.6), (1, 3, 0.6), (2, 5, 0.6)])
        # Peak load 1.8 at t in [2,3): needs 2 bins.
        assert max_bins_lower_bound(items) == 2

    def test_empty(self):
        assert max_bins_lower_bound([]) == 0

    def test_capacity(self):
        items = make_items([(0, 1, 3.0), (0, 1, 3.0)])
        assert max_bins_lower_bound(items, capacity=4) == 2
        assert max_bins_lower_bound(items, capacity=6) == 1


class TestExact:
    def test_exact_can_beat_load_bound(self):
        # Three 0.6 items overlap: load bound ceil(1.8)=2 but sizes > 1/2
        # cannot share, so the exact optimum is 3.
        items = make_items([(0, 4, 0.6), (0, 4, 0.6), (0, 4, 0.6)])
        assert max_bins_lower_bound(items) == 2
        assert max_bins_exact(items) == 3

    def test_matches_on_simple(self):
        items = make_items([(0, 2, Fraction(1, 2)), (1, 3, Fraction(1, 2))])
        assert max_bins_exact(items) == 1


class TestRatio:
    def test_ratio_one_when_optimal(self):
        items = make_items([(0, 2, 0.5), (0, 2, 0.5)])
        result = simulate(items, FirstFit())
        assert max_bins_ratio(result) == 1.0
        assert max_bins_ratio(result, exact=True) == 1.0

    def test_empty_rejected(self):
        result = simulate([], FirstFit())
        with pytest.raises(ValueError):
            max_bins_ratio(result)


@given(exact_items())
@settings(max_examples=50, deadline=None)
def test_maxbins_sandwich(items):
    """load LB ≤ exact max bins ≤ any algorithm's max_bins_used."""
    lb = max_bins_lower_bound(items)
    exact = max_bins_exact(items)
    assert lb <= exact
    for algo in (FirstFit(), BestFit()):
        result = simulate(items, algo)
        assert result.max_bins_used >= exact
        assert max_bins_ratio(result, exact=True) >= 1.0


class TestL2Method:
    def test_l2_beats_load_on_big_items(self):
        items = make_items([(0, 4, 0.6), (0, 4, 0.6), (0, 4, 0.6)])
        assert max_bins_lower_bound(items) == 2
        assert max_bins_lower_bound(items, method="l2") == 3
        assert max_bins_lower_bound(items, method="l2") == max_bins_exact(items)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            max_bins_lower_bound([], method="psychic")


@given(exact_items(max_items=12))
@settings(max_examples=40, deadline=None)
def test_l2_maxbins_sandwich(items):
    load_lb = max_bins_lower_bound(items)
    l2_lb = max_bins_lower_bound(items, method="l2")
    assert load_lb <= l2_lb <= max_bins_exact(items)


def _reference_l2_peak(items, capacity=1):
    """The L2 bound's own event-grouping loop, in the caller's units."""
    active = {}
    best = 0
    events = list(_merge_events(*_by_arrival(items)))
    i = 0
    while i < len(events):
        t = events[i][0]
        while i < len(events) and events[i][0] == t:
            _, kind, _, it = events[i]
            if kind == EventKind.ARRIVAL:
                active[it.item_id] = it.size
            else:
                del active[it.item_id]
            i += 1
        best = max(best, l2_lower_bound(list(active.values()), capacity))
    return best


@st.composite
def _tie_heavy_items(draw):
    """Fraction items on a coarse grid: many events share an instant."""
    n = draw(st.integers(min_value=1, max_value=20))
    items = []
    for i in range(n):
        a = draw(st.integers(min_value=0, max_value=4))
        length = draw(st.integers(min_value=1, max_value=3))
        size = Fraction(draw(st.integers(min_value=1, max_value=6)), 6)
        items.append(Item(arrival=a, departure=a + length, size=size, item_id=f"t{i}"))
    return items


@given(st.one_of(float_items(), exact_items(max_items=20), _tie_heavy_items()))
@settings(max_examples=150, deadline=None)
def test_l2_peak_is_the_snapshot_sweep(items):
    """The L2 peak is the snapshot sweep's maximum (exact traces on the
    integer lattice), and equals the bound's own loop in caller units."""
    assert max_bins_lower_bound(items, method="l2") == _reference_l2_peak(items)
    if all(isinstance(it.size, Fraction) for it in items):
        assert max_bins_lower_bound(
            items, capacity=Fraction(3, 2), method="l2"
        ) == _reference_l2_peak(items, Fraction(3, 2))


def test_first_fit_max_bins_on_a_gaming_day(gaming_trace_day):
    result = simulate(gaming_trace_day.items, FirstFit())
    lb = max_bins_lower_bound(gaming_trace_day.items)
    assert 1 <= lb <= result.max_bins_used
    # Coffman et al.: FF's MaxBins ratio is at most 2.897.
    assert result.max_bins_used / lb <= 2.897
