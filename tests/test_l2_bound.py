"""Tests for the Martello-Toth L2 lower bound and its sweep integral."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_items
from repro.opt import (
    exact_bin_count,
    l2_lower_bound,
    opt_bracket,
    opt_total_exact,
    opt_total_l2_lower_bound,
    pointwise_lower_bound,
    robust_ceil,
)
from repro.workloads import Clipped, Exponential, Uniform, generate_trace


class TestL2:
    def test_empty(self):
        assert l2_lower_bound([]) == 0

    def test_big_items_counted_individually(self):
        # Three 0.6 items: volume bound says 2, L2 says 3 (and is exact).
        assert l2_lower_bound([0.6, 0.6, 0.6]) == 3

    def test_mixed_j2_j3(self):
        # Two 0.7 items absorb 0.3 each of small volume; 1.0 of smalls
        # overflows by 0.4 -> one extra bin.
        sizes = [0.7, 0.7] + [0.25] * 4
        assert l2_lower_bound(sizes) == 3
        assert exact_bin_count(sizes) == 3

    def test_reduces_to_volume_bound_for_small_items(self):
        sizes = [Fraction(1, 4)] * 10  # all ≤ W/2
        assert l2_lower_bound(sizes) == robust_ceil(Fraction(10, 4))

    def test_capacity_scaling(self):
        assert l2_lower_bound([6, 6, 6], capacity=10) == 3

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            l2_lower_bound([1.5])


class TestL2Sweep:
    def test_dominates_pointwise_on_big_items(self):
        items = make_items([(0, 4, 0.6), (0, 4, 0.6), (0, 4, 0.6)])
        assert opt_total_l2_lower_bound(items) == 12
        assert pointwise_lower_bound(items) == 8
        assert opt_total_exact(items) == 12

    def test_bracket_integration(self):
        items = make_items([(0, 4, 0.6), (0, 4, 0.6), (0, 4, 0.6)])
        plain = opt_bracket(items)
        with_l2 = opt_bracket(items, include_l2=True)
        assert plain.l2_lb is None
        assert with_l2.lower == 12 > plain.lower
        assert with_l2.is_tight

    def test_empty_trace(self):
        assert opt_total_l2_lower_bound([]) == 0

    def test_dominates_pointwise_on_a_random_trace(self):
        trace = generate_trace(
            arrival_rate=2.0,
            horizon=120.0,
            duration=Clipped(Exponential(3.0), 1.0, 9.0),
            size=Uniform(0.1, 0.9),
            seed=0,
        )
        assert opt_total_l2_lower_bound(trace.items) >= pointwise_lower_bound(trace.items)


sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=12).map(lambda n: Fraction(n, 12)),
    min_size=0,
    max_size=12,
)


@given(sizes_strategy)
@settings(max_examples=80, deadline=None)
def test_l2_sandwich(sizes):
    """⌈Σs⌉ ≤ L2 ≤ exact, on arbitrary exact size lists."""
    volume = robust_ceil(sum(sizes, Fraction(0)))
    l2 = l2_lower_bound(sizes)
    assert volume <= l2
    assert l2 <= exact_bin_count(sizes)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=0, max_size=12))
@settings(max_examples=50, deadline=None)
def test_l2_sandwich_float(sizes):
    l2 = l2_lower_bound(sizes)
    assert l2 <= exact_bin_count(sizes)


from tests.conftest import exact_items  # noqa: E402


@given(exact_items(max_items=12, max_time=12))
@settings(max_examples=40, deadline=None)
def test_l2_integral_below_exact_opt_total(items):
    assert opt_total_l2_lower_bound(items) <= opt_total_exact(items)
    assert opt_total_l2_lower_bound(items) >= pointwise_lower_bound(items)
