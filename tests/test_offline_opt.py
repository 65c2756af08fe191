"""Tests for the exact no-migration offline optimum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro import BestFit, FirstFit, make_items, simulate
from repro.opt import (
    SearchLimitReached,
    no_migration_opt_total,
    opt_total_exact,
    pointwise_lower_bound,
)
from repro.workloads import Clipped, Exponential, Uniform, generate_trace
from tests.conftest import exact_items


class TestSmallInstances:
    def test_empty(self):
        assert no_migration_opt_total([]) == 0

    def test_single_item(self):
        items = make_items([(0, 5, 0.5)])
        assert no_migration_opt_total(items) == 5

    def test_two_compatible_items_share(self):
        items = make_items([(0, 5, 0.5), (1, 4, 0.5)])
        assert no_migration_opt_total(items) == 5

    def test_beats_first_fit_on_pinning_instance(self):
        """FF pins the short bin open; the offline plan routes around it."""
        from repro.scenarios import pinned_bin_example

        items = pinned_bin_example()
        ff = simulate(items, FirstFit()).total_cost()
        opt = no_migration_opt_total(items)
        assert ff == 24
        assert opt == 14

    def test_plan_is_feasible_partition(self):
        items = make_items([(0, 4, 0.6), (0, 4, 0.6), (1, 6, 0.3), (5, 9, 0.8)])
        cost, plan = no_migration_opt_total(items, return_plan=True)
        assigned = plan.assignment()
        assert set(assigned) == {it.item_id for it in items}
        # Feasibility: per group, load never exceeds 1 at any arrival.
        for group in plan.groups:
            for probe in group:
                load = sum(
                    x.size
                    for x in group
                    if x.arrival <= probe.arrival < x.departure
                )
                assert load <= 1

    def test_cost_rate_scaling(self):
        items = make_items([(0, 5, 0.5)])
        assert no_migration_opt_total(items, cost_rate=3) == 15

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            no_migration_opt_total(make_items([(0, 1, 2.0)]))

    def test_node_limit(self):
        items = make_items([(0, 10, 0.2)] * 14)
        with pytest.raises(SearchLimitReached):
            no_migration_opt_total(items, node_limit=3)


class TestOrderingBetweenBenchmarks:
    @given(exact_items(max_items=9, max_time=10))
    @settings(max_examples=40, deadline=None)
    def test_sandwich_property(self, items):
        """pointwise LB ≤ repacking OPT ≤ no-migration OPT ≤ FF, BF."""
        lb = pointwise_lower_bound(items)
        repack = opt_total_exact(items)
        nomig = no_migration_opt_total(items, node_limit=2_000_000)
        ff = simulate(items, FirstFit()).total_cost()
        bf = simulate(items, BestFit()).total_cost()
        assert lb <= repack <= nomig
        assert nomig <= ff
        assert nomig <= bf

    def test_migration_strictly_helps_sometimes(self):
        # Two long thin items + one fat item whose stay forces a second
        # bin under any fixed assignment, but repacking closes it early.
        items = make_items(
            [
                (0, 10, Fraction(6, 10)),
                (2, 4, Fraction(6, 10)),
                (3, 10, Fraction(6, 10)),
            ]
        )
        repack = opt_total_exact(items)
        nomig = no_migration_opt_total(items)
        assert repack <= nomig


def test_no_migration_opt_on_ten_float_items():
    trace = generate_trace(
        arrival_rate=0.5,
        horizon=20.0,
        duration=Clipped(Exponential(4.0), 1.0, 10.0),
        size=Uniform(0.25, 0.75),
        seed=2,
    )
    items = tuple(sorted(trace.items, key=lambda it: it.arrival))[:10]
    assert float(no_migration_opt_total(items)) >= float(opt_total_exact(items)) - 1e-9
