"""Edge-case and failure-injection tests across the stack."""

from fractions import Fraction

import pytest

from repro import (
    BestFit,
    FirstFit,
    Item,
    SimulationError,
    Simulator,
    make_items,
    simulate,
)
from repro.algorithms.base import PackingAlgorithm


class TestExtremeValues:
    def test_huge_time_values(self):
        items = make_items([(1e12, 1e12 + 5, 0.5), (1e12 + 1, 1e12 + 3, 0.5)])
        result = simulate(items, FirstFit(), check=True)
        assert result.total_cost() == 5

    def test_tiny_sizes(self):
        items = make_items([(0, 1, 1e-12)] * 100)
        result = simulate(items, FirstFit())
        assert result.num_bins_used == 1

    def test_exact_capacity_fill(self):
        items = make_items([(0, 1, Fraction(1, 7))] * 7)
        result = simulate(items, FirstFit())
        assert result.num_bins_used == 1
        assert result.bins[0].item_ids == tuple(f"item-{i}" for i in range(7))

    def test_one_over_capacity_spills(self):
        items = make_items([(0, 1, Fraction(1, 7))] * 8)
        result = simulate(items, FirstFit())
        assert result.num_bins_used == 2

    def test_fraction_and_float_mixed_times(self):
        # Mixed numeric types must still order correctly.
        items = [
            Item(arrival=Fraction(1, 2), departure=2, size=0.5, item_id="a"),
            Item(arrival=0.25, departure=Fraction(3, 2), size=0.5, item_id="b"),
        ]
        result = simulate(items, FirstFit(), check=True)
        assert result.num_bins_used == 1

    def test_many_simultaneous_departures(self):
        items = make_items([(0, 5, 0.1)] * 50)
        result = simulate(items, FirstFit())
        assert result.num_bins_used == 5
        assert all(b.closed_at == 5 for b in result.bins)


class TestMisbehavingAlgorithms:
    def test_algorithm_raising_propagates(self):
        class Explodes(PackingAlgorithm):
            def choose_bin(self, item, open_bins):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            simulate(make_items([(0, 1, 0.5)]), Explodes())

    def test_algorithm_returning_closed_bin(self):
        kept = []

        class Hoarder(FirstFit):
            def choose_bin(self, item, open_bins):
                if kept and kept[0].is_closed:
                    return kept[0]  # a bin that already closed
                choice = super().choose_bin(item, open_bins)
                return choice

            def on_bin_opened(self, bin, item):
                kept.append(bin)

        items = make_items([(0, 1, 0.5), (2, 3, 0.5)])
        with pytest.raises(SimulationError, match="invalid bin"):
            simulate(items, Hoarder())


class TestIncrementalEdges:
    def test_same_instant_arrive_depart_sequencing(self):
        sim = Simulator(FirstFit())
        sim.arrive(0, 0.6, item_id="a")
        sim.depart("a", 5)
        # New arrival at exactly t=5 (the close instant) opens a new bin.
        b = sim.arrive(5, 0.6, item_id="b")
        assert b.index == 1
        sim.depart("b", 6)
        result = sim.finish()
        assert result.total_cost() == 5 + 1
        assert result.num_open_bins(5) == 1

    def test_reuse_item_id_after_departure_rejected(self):
        sim = Simulator(FirstFit())
        sim.arrive(0, 0.5, item_id="x")
        sim.depart("x", 1)
        with pytest.raises(SimulationError, match="duplicate"):
            sim.arrive(2, 0.5, item_id="x")

    def test_empty_finish(self):
        result = Simulator(BestFit()).finish()
        assert result.num_bins_used == 0
        assert result.items == ()


class TestResultEdges:
    def test_profile_of_abutting_bins(self):
        # Bin closes at 5; next opens at 5: profile never dips between.
        items = make_items([(0, 5, 0.9), (5, 8, 0.9)])
        result = simulate(items, FirstFit())
        times, counts = result.bin_count_profile()
        assert times == [0, 5, 8]
        assert counts == [1, 1, 0]

    def test_quantized_costs_on_zero_length_usage(self):
        from repro import QuantizedCost

        # No zero-length bins can occur (departure > arrival), but the
        # model itself must price duration 0 as one quantum.
        assert QuantizedCost(rate=2, quantum=30).bin_cost(0) == 60
