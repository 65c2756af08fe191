"""Unit and property tests for the discrete-event simulator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro import (
    BestFit,
    FirstFit,
    Item,
    NewBinPerItem,
    SimulationError,
    Simulator,
    make_items,
    simulate,
)
from tests.conftest import exact_items, float_items, mixed_float_trace, scaling_trace


class TestReplayBasics:
    def test_two_bins_for_conflicting_items(self, tiny_trace):
        result = simulate(tiny_trace, FirstFit())
        assert result.num_bins_used == 2
        # item h2 arrives at t=1 while h0+h1 fill bin 0 -> bin 1.
        assert result.assignment["h2"] == 1

    def test_cost_is_sum_of_usage(self, tiny_trace):
        result = simulate(tiny_trace, FirstFit())
        # bin0: [0,10]; bin1: [1,3]
        assert result.total_cost() == 12

    def test_cost_rate_scales(self, tiny_trace):
        result = simulate(tiny_trace, FirstFit(), cost_rate=3)
        assert result.total_cost() == 36

    def test_departure_frees_capacity_same_instant(self):
        # b departs at t=2; c arrives at t=2 and must fit into the same bin.
        items = make_items([(0, 5, 0.5), (0, 2, 0.5), (2, 4, 0.5)])
        result = simulate(items, FirstFit())
        assert result.num_bins_used == 1

    def test_oversize_item_rejected(self):
        items = [Item(arrival=0, departure=1, size=2.0, item_id="big")]
        with pytest.raises(ValueError, match="capacity"):
            simulate(items, FirstFit(), capacity=1.0)

    def test_empty_trace(self):
        result = simulate([], FirstFit())
        assert result.num_bins_used == 0
        assert result.total_cost() == 0

    def test_check_invariants_flag(self, tiny_trace):
        simulate(tiny_trace, FirstFit(), check=True)  # must not raise

    def test_result_records_algorithm(self, tiny_trace):
        assert simulate(tiny_trace, FirstFit()).algorithm_name == "first-fit"


class TestIncrementalProtocol:
    def test_time_travel_rejected(self):
        sim = Simulator(FirstFit())
        sim.arrive(5, 0.5, item_id="a")
        with pytest.raises(SimulationError, match="precedes"):
            sim.arrive(4, 0.5, item_id="b")

    def test_duplicate_id_rejected(self):
        sim = Simulator(FirstFit())
        sim.arrive(0, 0.5, item_id="a")
        with pytest.raises(SimulationError, match="duplicate"):
            sim.arrive(1, 0.5, item_id="a")

    def test_depart_unknown_rejected(self):
        sim = Simulator(FirstFit())
        with pytest.raises(SimulationError, match="unknown"):
            sim.depart("ghost", 1)

    def test_depart_not_after_arrival_rejected(self):
        sim = Simulator(FirstFit())
        sim.arrive(3, 0.5, item_id="a")
        with pytest.raises(SimulationError, match="not after"):
            sim.depart("a", 3)

    def test_finish_with_active_items_rejected(self):
        sim = Simulator(FirstFit())
        sim.arrive(0, 0.5, item_id="a")
        with pytest.raises(SimulationError, match="never departed"):
            sim.finish()

    def test_bin_of_and_inspection(self):
        sim = Simulator(FirstFit())
        b = sim.arrive(0, 0.6, item_id="a")
        assert sim.bin_of("a") is b
        assert sim.num_open_bins == 1
        assert sim.active_item_ids == ["a"]
        sim.depart("a", 1)
        assert sim.num_open_bins == 0

    def test_auto_ids(self):
        sim = Simulator(FirstFit())
        sim.arrive(0, 0.5)
        sim.arrive(0, 0.5)
        assert len(sim.active_item_ids) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Simulator(FirstFit(), capacity=0)
        with pytest.raises(ValueError):
            Simulator(FirstFit(), cost_rate=0)
        sim = Simulator(FirstFit())
        with pytest.raises(ValueError):
            sim.arrive(0, 0)


class TestOnlineEnforcement:
    def test_algorithm_never_sees_departures(self):
        """The Arrival view handed to algorithms has no departure field."""
        seen = []

        class Spy(FirstFit):
            def choose_bin(self, item, open_bins):
                seen.append(item)
                return super().choose_bin(item, open_bins)

        spy = Spy()
        simulate(make_items([(0, 9, 0.5), (1, 2, 0.3)]), spy)
        assert len(seen) == 2
        assert not hasattr(seen[0], "departure")

    def test_bad_algorithm_choice_caught(self):
        from repro.core.bin import Bin

        class Rogue(FirstFit):
            def choose_bin(self, item, open_bins):
                if open_bins:
                    return open_bins[0]  # even when it does not fit
                return None

        items = make_items([(0, 5, 0.8), (1, 5, 0.8)])
        with pytest.raises(SimulationError, match="chose bin"):
            simulate(items, Rogue())

    def test_foreign_bin_rejected(self):
        from repro.core.bin import Bin

        class Forger(FirstFit):
            def choose_bin(self, item, open_bins):
                return Bin(index=99, capacity=1)

        with pytest.raises(SimulationError, match="invalid bin"):
            simulate(make_items([(0, 1, 0.5)]), Forger())


# ---------------------------------------------------------------------------
# Properties


def brute_force_cost(result, times):
    """Integrate n(t) by sampling each inter-event segment."""
    total = 0
    for a, b in zip(times, times[1:]):
        mid = (a + b) / 2
        total += result.num_open_bins(mid) * (b - a)
    return total


@given(exact_items())
@settings(max_examples=60, deadline=None)
def test_cost_equals_bin_count_integral_exact(items):
    """total_cost == ∫ A(R,t) dt, exactly, on Fraction traces."""
    result = simulate(items, FirstFit())
    times = sorted({it.arrival for it in items} | {it.departure for it in items})
    assert result.total_cost() == brute_force_cost(result, times)


@given(exact_items())
@settings(max_examples=60, deadline=None)
def test_invariants_on_exact_traces(items):
    result = simulate(items, FirstFit(), check=True)
    assert set(result.assignment) == {it.item_id for it in items}


@given(float_items())
@settings(max_examples=40, deadline=None)
def test_float_traces_run_clean(items):
    result = simulate(items, FirstFit(), check=True)
    assert result.num_bins_used >= 1
    assert result.max_bins_used <= result.num_bins_used


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_new_bin_per_item_cost_is_b3(items):
    """NewBinPerItem realises bound (b.3) exactly."""
    result = simulate(items, NewBinPerItem())
    assert result.total_cost() == sum(it.length for it in items)
    assert result.num_bins_used == len(items)


class TestGeneratedTraces:
    def test_first_fit_consolidates(self):
        trace = mixed_float_trace()
        result = simulate(trace.items, FirstFit())
        # A consolidating packing pays far less than one bin per item.
        assert result.num_bins_used < len(trace) / 3
        assert result.total_cost() < sum(it.length for it in trace.items)

    @pytest.mark.parametrize("n_items", [1000, 4000, 16000])
    def test_first_fit_index_matches_the_list_scan(self, n_items):
        items = scaling_trace(n_items).items
        indexed = simulate(items, FirstFit())
        assert indexed.num_bins_used >= 1
        assert simulate(items, FirstFit(), indexed=False) == indexed

    @pytest.mark.parametrize("n_items", [1000, 8000])
    def test_best_fit_packs(self, n_items):
        assert simulate(scaling_trace(n_items).items, BestFit()).num_bins_used >= 1
