"""Unit and property tests for Table 1's trace metrics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro import (
    FirstFit,
    NewBinPerItem,
    interval_ratio,
    make_items,
    simulate,
    total_demand,
    trace_span,
    trace_stats,
    utilization,
)
from repro.core.metrics import max_interval_length, min_interval_length
from tests.conftest import exact_items, mixed_float_trace


class TestBasics:
    def test_interval_lengths(self):
        items = make_items([(0, 2, 0.5), (1, 9, 0.5)])
        assert min_interval_length(items) == 2
        assert max_interval_length(items) == 8
        assert interval_ratio(items) == 4

    def test_span_figure1(self):
        items = make_items([(0, 4, 0.1), (2, 6, 0.1), (9, 11, 0.1)])
        assert trace_span(items) == 8

    def test_total_demand(self):
        items = make_items([(0, 4, Fraction(1, 4)), (0, 2, Fraction(1, 2))])
        assert total_demand(items) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trace_stats([])

    def test_trace_stats_fields(self):
        items = make_items([(0, 2, 0.5), (1, 9, 0.25)])
        s = trace_stats(items)
        assert s.num_items == 2
        assert s.mu == 4
        assert s.min_size == 0.25 and s.max_size == 0.5
        assert s.first_arrival == 0 and s.last_departure == 9
        assert s.packing_period == 9


class TestUtilization:
    def test_perfect_packing(self):
        # Two half items over the same interval fill the bin exactly.
        items = make_items([(0, 4, Fraction(1, 2)), (0, 4, Fraction(1, 2))])
        result = simulate(items, FirstFit())
        assert utilization(result) == 1.0

    def test_new_bin_per_item_wastes(self):
        items = make_items([(0, 4, Fraction(1, 2)), (0, 4, Fraction(1, 2))])
        result = simulate(items, NewBinPerItem())
        assert utilization(result) == 0.5


@given(exact_items())
@settings(max_examples=50, deadline=None)
def test_mu_at_least_one_and_span_bounds(items):
    s = trace_stats(items)
    assert s.mu >= 1
    assert s.span <= s.packing_period
    assert s.span >= s.max_interval  # the longest item alone covers this much
    # u(R) ≤ max_size · Σ len ≤ Σ len (sizes ≤ 1 in the strategy).
    assert s.total_demand <= sum(it.length for it in items)


@given(exact_items())
@settings(max_examples=50, deadline=None)
def test_utilization_in_unit_interval(items):
    result = simulate(items, FirstFit())
    u = utilization(result)
    assert 0 < u <= 1 + 1e-12


def test_span_of_a_generated_trace():
    trace = mixed_float_trace()
    span = trace_span(trace.items)
    assert trace.stats.max_interval <= span <= trace.stats.packing_period
