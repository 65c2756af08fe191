"""Tests for heterogeneous fleets (per-bin capacities, flavour pricing)."""

import pytest

from repro import (
    FirstFit,
    Item,
    ResourceDimensionError,
    make_items,
    simulate,
    utilization,
)
from repro.cloud.flavors import Flavor, FlavorAwareFirstFit, fleet_bill
from repro.core.resources import Resources
from repro.core.simulator import SimulationError


SMALL = Flavor("s", capacity=1.0, rate=1.0)
LARGE = Flavor("l", capacity=2.0, rate=1.7)


class TestFlavor:
    def test_validation(self):
        with pytest.raises(ValueError):
            Flavor("", 1, 1)
        with pytest.raises(ValueError):
            Flavor("x", 0, 1)
        with pytest.raises(ValueError):
            Flavor("x", 1, 0)

    def test_density(self):
        assert LARGE.rate_per_capacity == pytest.approx(0.85)


class TestAlgorithm:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            FlavorAwareFirstFit([])
        with pytest.raises(ValueError):
            FlavorAwareFirstFit([SMALL, SMALL])
        with pytest.raises(ValueError):
            FlavorAwareFirstFit([SMALL], open_policy="psychic")

    def test_oversize_item_needs_large_flavour(self):
        """An item above the small capacity forces true mixing."""
        items = make_items([(0, 4, 1.4), (0, 4, 0.3)], prefix="h")
        algo = FlavorAwareFirstFit([SMALL, LARGE])
        result = simulate(
            items, algo, capacity=SMALL.capacity, max_bin_capacity=algo.max_capacity
        )
        big_bin = result.bin_of("h-0")
        assert big_bin.label == "l"
        assert big_bin.capacity == 2.0
        # The 0.3 item arrived second and fits the already-open large bin.
        assert result.bin_of("h-1").index == big_bin.index

    def test_cheapest_policy_prefers_small(self):
        items = make_items([(0, 4, 0.5)])
        algo = FlavorAwareFirstFit([SMALL, LARGE], open_policy="cheapest")
        result = simulate(items, algo, max_bin_capacity=2.0)
        assert result.bins[0].label == "s"

    def test_best_density_policy_prefers_large(self):
        items = make_items([(0, 4, 0.5)])
        algo = FlavorAwareFirstFit([SMALL, LARGE], open_policy="best-density")
        result = simulate(items, algo, max_bin_capacity=2.0)
        assert result.bins[0].label == "l"

    def test_smallest_policy(self):
        items = make_items([(0, 4, 1.2)])
        algo = FlavorAwareFirstFit([SMALL, LARGE], open_policy="smallest")
        result = simulate(items, algo, max_bin_capacity=2.0)
        assert result.bins[0].label == "l"  # only fitting flavour

    def test_item_fitting_no_flavour_rejected(self):
        items = make_items([(0, 4, 3.0)])
        algo = FlavorAwareFirstFit([SMALL, LARGE])
        with pytest.raises(ValueError, match="fits no flavour"):
            simulate(items, algo, max_bin_capacity=3.5)

    def test_plain_algorithms_unaffected(self):
        """Default new_bin_capacity keeps uniform-capacity semantics."""
        items = make_items([(0, 4, 0.8), (1, 4, 0.8)])
        result = simulate(items, FirstFit())
        assert all(b.capacity == 1 for b in result.bins)
        result.check_invariants()

    def test_rogue_capacity_caught(self):
        class Liar(FirstFit):
            def new_bin_capacity(self, item):
                return item.size / 2  # too small for its own item

        with pytest.raises(SimulationError, match="cannot fit the new bin"):
            simulate(make_items([(0, 1, 0.5)]), Liar())

    @staticmethod
    def _opening(capacity):
        class Fixed(FirstFit):
            def new_bin_capacity(self, item):
                return capacity

        return Fixed()

    def test_vector_capacity_for_scalar_item_is_a_dimension_error(self):
        algo = self._opening(Resources(1.0, 1.0))
        with pytest.raises(ResourceDimensionError, match="'item-0'"):
            simulate(make_items([(0, 1, 0.5)]), algo)

    def test_capacity_of_other_dimension_is_a_dimension_error(self):
        items = [Item(arrival=0, departure=1, size=Resources(0.5, 0.5), item_id="v")]
        algo = self._opening(Resources(1.0, 1.0, 1.0))
        with pytest.raises(ResourceDimensionError, match="2-D vector size in a 3-D"):
            simulate(items, algo)


class TestBilling:
    def test_fleet_bill_by_flavour(self):
        items = make_items([(0, 10, 1.4), (0, 4, 0.5)], prefix="h")
        algo = FlavorAwareFirstFit([SMALL, LARGE])
        result = simulate(items, algo, max_bin_capacity=2.0)
        bill = fleet_bill(result, [SMALL, LARGE])
        # h-0 -> large bin [0,10] at 1.7; h-1 fits it too (level 1.9 ≤ 2).
        assert bill.per_zone_cost["l"] == pytest.approx(17.0)
        assert bill.total == pytest.approx(17.0)

    def test_utilization_uses_per_bin_capacity(self):
        items = make_items([(0, 10, 2.0)])
        algo = FlavorAwareFirstFit([LARGE])
        result = simulate(items, algo, capacity=1.0, max_bin_capacity=2.0)
        # Full large bin: utilisation 1.0 under per-bin capacity accounting.
        assert utilization(result) == pytest.approx(1.0)

    def test_invariants_with_mixed_capacities(self):
        items = make_items([(0, 10, 1.8), (0, 10, 0.9), (1, 5, 0.9)])
        algo = FlavorAwareFirstFit([SMALL, LARGE])
        result = simulate(items, algo, max_bin_capacity=2.0, check=True)
        caps = sorted(b.capacity for b in result.bins)
        assert caps == [1.0, 1.0, 2.0]
