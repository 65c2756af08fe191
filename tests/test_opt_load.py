"""Unit and property tests for load profiles."""

from fractions import Fraction

from hypothesis import given, settings

from repro import make_items
from repro.opt.load import active_profile, load_profile, max_load
from tests.conftest import exact_items, mixed_float_trace


class TestLoadProfile:
    def test_simple_step(self):
        items = make_items([(0, 4, Fraction(1, 2)), (2, 6, Fraction(1, 4))])
        times, loads = load_profile(items)
        assert times == [0, 2, 4, 6]
        assert loads == [Fraction(1, 2), Fraction(3, 4), Fraction(1, 4), 0]

    def test_simultaneous_events_collapse(self):
        items = make_items([(0, 2, 0.5), (2, 4, 0.5)])
        times, loads = load_profile(items)
        assert times == [0, 2, 4]
        assert loads == [0.5, 0.5, 0]

    def test_final_load_zero(self):
        items = make_items([(0, 1, 0.3), (0.5, 2, 0.4)])
        _, loads = load_profile(items)
        assert loads[-1] == 0

    def test_empty(self):
        assert load_profile([]) == ([], [])

    def test_float_trace_of_4000_items(self):
        trace = mixed_float_trace()
        times, loads = load_profile(trace.items)
        assert loads[-1] == 0
        assert len(times) <= 2 * len(trace)

    def test_max_load(self):
        items = make_items([(0, 4, 0.5), (1, 3, 0.5), (2, 5, 0.25)])
        assert max_load(items) == 1.25


class TestActiveProfile:
    def test_counts(self):
        items = make_items([(0, 4, 0.5), (1, 3, 0.5)])
        times, counts = active_profile(items)
        assert times == [0, 1, 3, 4]
        assert counts == [1, 2, 1, 0]


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_load_matches_pointwise_sum(items):
    """Load on each segment equals the brute-force active-size sum."""
    times, loads = load_profile(items)
    for i in range(len(times) - 1):
        mid = (times[i] + times[i + 1]) / 2
        expected = sum(it.size for it in items if it.arrival <= mid < it.departure)
        assert loads[i] == expected


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_demand_is_load_integral(items):
    """∫ load dt == u(R): the load profile conserves total demand."""
    from repro import total_demand

    times, loads = load_profile(items)
    integral = sum(loads[i] * (times[i + 1] - times[i]) for i in range(len(times) - 1))
    assert integral == total_demand(items)
