"""Tests for the constrained-DBP extension (the paper's future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FirstFit, simulate
from repro.constrained import (
    ConstrainedBestFit,
    ConstrainedFirstFit,
    ConstrainedWorstFit,
    FIRST_ALLOWED,
    LEAST_OPEN_BINS,
    MOST_OPEN_BINS,
    RegionTopology,
    ZoneConstraint,
    allowed_zones,
    constrained_item,
    generate_constrained_trace,
    validate_zoned_items,
)


class TestModel:
    def test_zone_constraint(self):
        zc = ZoneConstraint.of("eu", "us")
        assert zc.allows("eu") and not zc.allows("ap")
        assert str(zc) == "{eu,us}"

    def test_empty_constraint_rejected(self):
        with pytest.raises(ValueError, match="at least one zone"):
            ZoneConstraint(zones=frozenset())

    def test_bad_zone_names(self):
        with pytest.raises(ValueError):
            ZoneConstraint(zones=frozenset({""}))

    def test_constrained_item_and_extraction(self):
        it = constrained_item(0, 5, 0.5, ["eu"], item_id="x")
        assert allowed_zones(it) == frozenset({"eu"})

    def test_unconstrained_item_is_loud(self):
        from repro import Item

        with pytest.raises(TypeError, match="ZoneConstraint"):
            allowed_zones(Item(arrival=0, departure=1, size=0.5))

    def test_validate_zoned_items(self):
        items = [constrained_item(0, 1, 0.5, ["eu"], item_id="a")]
        validate_zoned_items(items, ["eu", "us"])
        with pytest.raises(ValueError, match="unknown zones"):
            validate_zoned_items(items, ["us"])
        with pytest.raises(ValueError, match="at least one zone"):
            validate_zoned_items(items, [])


class TestTopology:
    def test_ring_reach(self):
        topo = RegionTopology.ring(4, 2)
        assert topo.allowed_from(0) == ["zone-0", "zone-1"]
        assert topo.allowed_from(3) == ["zone-3", "zone-0"]  # wraps

    def test_full_reach_is_unconstrained(self):
        topo = RegionTopology.ring(3, 3)
        assert topo.is_unconstrained
        assert set(topo.allowed_from(1)) == set(topo.zones)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionTopology.ring(3, 0)
        with pytest.raises(ValueError):
            RegionTopology.ring(3, 4)
        with pytest.raises(ValueError):
            RegionTopology(zones=("a", "a"), reach=1)


def _two_zone_items():
    return [
        constrained_item(0, 10, 0.4, ["east"], item_id="e1"),
        constrained_item(0, 10, 0.4, ["west"], item_id="w1"),
        constrained_item(1, 10, 0.4, ["east", "west"], item_id="any1"),
    ]


class TestConstrainedAlgorithms:
    def test_zone_separation_enforced(self):
        result = simulate(_two_zone_items(), ConstrainedFirstFit())
        assert result.bin_of("e1").index != result.bin_of("w1").index
        zone_of = {b.index: b.label for b in result.bins}
        assert zone_of[result.bin_of("e1").index] == "east"
        assert zone_of[result.bin_of("w1").index] == "west"

    def test_flexible_item_reuses_existing_bin(self):
        result = simulate(_two_zone_items(), ConstrainedFirstFit())
        # 'any1' fits in either bin; constrained FF picks the earliest.
        assert result.bin_of("any1").index == result.bin_of("e1").index

    def test_never_places_outside_allowed_zone(self):
        topo = RegionTopology.ring(4, 2)
        trace = generate_constrained_trace(topology=topo, seed=3, horizon=4 * 60.0)
        for algo in (ConstrainedFirstFit(), ConstrainedBestFit(), ConstrainedWorstFit()):
            result = simulate(trace.items, algo)
            for it in trace.items:
                assert result.bin_of(it.item_id).label in allowed_zones(it)

    def test_a_twelve_hour_ring_day_stays_in_allowed_zones(self):
        topo = RegionTopology.ring(4, 2)
        trace = generate_constrained_trace(topology=topo, seed=0, horizon=12 * 60.0)
        result = simulate(trace.items, ConstrainedFirstFit())
        assert all(b.label in topo.zones for b in result.bins)
        for it in trace.items:
            assert result.bin_of(it.item_id).label in allowed_zones(it)

    def test_zone_policy_validation(self):
        with pytest.raises(ValueError, match="zone policy"):
            ConstrainedFirstFit("teleport")

    def test_least_open_bins_spreads(self):
        items = [
            constrained_item(0, 10, 0.8, ["a", "b"], item_id="x"),
            constrained_item(1, 10, 0.8, ["a", "b"], item_id="y"),
        ]
        result = simulate(items, ConstrainedFirstFit(LEAST_OPEN_BINS))
        zones = {result.bin_of("x").label, result.bin_of("y").label}
        assert zones == {"a", "b"}

    def test_most_open_bins_concentrates(self):
        items = [
            constrained_item(0, 10, 0.8, ["a", "b"], item_id="x"),
            constrained_item(1, 10, 0.8, ["a", "b"], item_id="y"),
        ]
        result = simulate(items, ConstrainedFirstFit(MOST_OPEN_BINS))
        assert result.bin_of("x").label == result.bin_of("y").label

    def test_single_zone_equals_unconstrained_ff(self):
        topo = RegionTopology.ring(1, 1)
        trace = generate_constrained_trace(topology=topo, seed=5, horizon=3 * 60.0)
        constrained = simulate(trace.items, ConstrainedFirstFit())
        from repro.core.item import Item

        plain = [
            Item(arrival=it.arrival, departure=it.departure, size=it.size, item_id=it.item_id)
            for it in trace.items
        ]
        unconstrained = simulate(plain, FirstFit())
        assert constrained.assignment == unconstrained.assignment
        assert constrained.total_cost() == unconstrained.total_cost()

    def test_best_fit_rule_inside_zone(self):
        items = [
            constrained_item(0, 10, 0.3, ["a"], item_id="p"),
            constrained_item(0, 2, 0.6, ["a"], item_id="q"),
            constrained_item(1, 10, 0.6, ["a"], item_id="r"),
            constrained_item(2, 10, 0.35, ["a"], item_id="probe"),
        ]
        result = simulate(items, ConstrainedBestFit())
        # Same structure as the unconstrained conflict trace: BF -> fuller bin.
        assert result.bin_of("probe").index == result.bin_of("r").index


class TestConstrainedWorkload:
    def test_trace_respects_topology(self):
        topo = RegionTopology.ring(5, 2)
        trace = generate_constrained_trace(topology=topo, seed=1, horizon=2 * 60.0)
        assert len(trace) > 0
        for it in trace.items:
            zones = allowed_zones(it)
            assert len(zones) == 2
            assert zones <= set(topo.zones)

    def test_seed_determinism(self):
        topo = RegionTopology.ring(3, 1)
        a = generate_constrained_trace(topology=topo, seed=9, horizon=60.0)
        b = generate_constrained_trace(topology=topo, seed=9, horizon=60.0)
        assert [it.item_id for it in a] == [it.item_id for it in b]
        assert [allowed_zones(it) for it in a] == [allowed_zones(it) for it in b]

    def test_session_validation(self):
        topo = RegionTopology.ring(2, 1)
        with pytest.raises(ValueError):
            generate_constrained_trace(topology=topo, min_session=10, max_session=5)


@given(
    reach=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=15, deadline=None)
def test_property_zone_feasibility(reach, seed):
    """Every placement lands in an allowed zone, for any reach and seed."""
    topo = RegionTopology.ring(4, reach)
    trace = generate_constrained_trace(
        topology=topo, seed=seed, horizon=90.0, arrival_rate=0.3
    )
    if not len(trace):
        return
    result = simulate(trace.items, ConstrainedBestFit(FIRST_ALLOWED))
    for it in trace.items:
        assert result.bin_of(it.item_id).label in allowed_zones(it)
    result.check_invariants()
