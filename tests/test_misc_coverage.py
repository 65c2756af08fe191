"""Cross-cutting coverage: registry abuse, driving-mode equivalence,
adversary cross-algorithm behaviour, Arrival semantics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro import (
    BestFit,
    FirstFit,
    LastFit,
    Simulator,
    WorstFit,
    RandomFit,
    simulate,
)
from repro.adversaries import run_theorem1_adversary, run_theorem2_adversary
from repro.algorithms.base import Arrival, register_algorithm
from repro.core.events import EventKind, _by_arrival, _merge_events
from tests.conftest import exact_items


class TestRegistryAbuse:
    def test_double_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_algorithm("first-fit")
            class Impostor(FirstFit):
                pass

    def test_arrival_is_frozen_and_departure_free(self):
        view = Arrival(item_id="x", size=0.5, arrival=1.0)
        assert not hasattr(view, "departure")
        with pytest.raises(AttributeError):
            view.size = 0.9


class TestDrivingModeEquivalence:
    @given(exact_items())
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_batch(self, items):
        """Driving the Simulator by hand (in event order) must reproduce
        simulate() exactly — guards refactors of either path."""
        batch = simulate(items, BestFit())
        sim = Simulator(BestFit())
        for _, kind, _, item in _merge_events(*_by_arrival(items)):
            if kind == EventKind.ARRIVAL:
                sim.arrive(item.arrival, item.size, item_id=item.item_id)
            else:
                sim.depart(item.item_id, item.departure)
        manual = sim.finish()
        assert manual.assignment == batch.assignment
        assert manual.total_cost() == batch.total_cost()
        assert [b.usage_length for b in manual.bins] == [
            b.usage_length for b in batch.bins
        ]


class TestAdversariesAcrossAlgorithms:
    def test_theorem1_random_fit_also_exact(self):
        """Randomised placement can't escape: the adversary adapts."""
        out = run_theorem1_adversary(RandomFit(seed=3), k=6, mu=5)
        assert out.matches_prediction

    def test_theorem2_items_replayable_by_all(self):
        """The trap's item list is a legal trace for every algorithm.

        Replay preserves the adversary's arrival order exactly (the
        simulator's round-trip guarantee), so Best Fit replayed on its own
        trap reproduces the adaptive cost; index-based policies (FF, LF)
        escape; Worst Fit spreads the refresh groups and fares comparably
        badly to BF.
        """
        trap = run_theorem2_adversary(k=3, mu=2, n_iterations=2, compute_opt=False)
        bf_cost = float(trap.algorithm_cost)
        replayed_bf = simulate(trap.result.items, BestFit(), capacity=1)
        assert float(replayed_bf.total_cost()) == pytest.approx(bf_cost)
        for algo in (FirstFit(), LastFit()):
            result = simulate(trap.result.items, algo, capacity=1)
            result.check_invariants()
            assert float(result.total_cost()) < bf_cost / 1.5
        wf = simulate(trap.result.items, WorstFit(), capacity=1)
        wf.check_invariants()
        assert float(wf.total_cost()) <= bf_cost * 1.05

    def test_theorem1_costs_scale_with_delta(self):
        a = run_theorem1_adversary(FirstFit(), k=4, mu=3, delta=1)
        b = run_theorem1_adversary(FirstFit(), k=4, mu=3, delta=Fraction(5, 2))
        assert b.algorithm_cost == a.algorithm_cost * Fraction(5, 2)
        assert b.measured_ratio == a.measured_ratio  # ratio is scale-free


class TestMffFractionalK:
    def test_fractional_k_threshold(self):
        from repro import ModifiedFirstFit, make_items

        algo = ModifiedFirstFit(k=2.5)
        items = make_items([(0, 4, 0.41), (0, 4, 0.39)], prefix="h")
        result = simulate(items, algo)
        # W/k = 0.4: 0.41 is LARGE, 0.39 is SMALL -> separate bins.
        assert result.bin_of("h-0").label == "large"
        assert result.bin_of("h-1").label == "small"
