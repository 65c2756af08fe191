"""Tests for noisy departure predictions."""

import pytest
from hypothesis import given, settings

from repro import make_items
from repro.clairvoyant import (
    DurationAlignedFit,
    MinExpandFit,
    predicted_departures,
    simulate_clairvoyant,
    simulate_with_predictions,
)
from repro.opt.lower_bounds import opt_total_lower_bound
from tests.conftest import exact_items


class TestPredictedDepartures:
    def test_zero_noise_is_truth(self):
        items = make_items([(0, 5, 0.5), (1, 9, 0.3)], prefix="h")
        preds = predicted_departures(items, noise_sigma=0.0)
        assert preds == {"h-0": 5, "h-1": 9}

    def test_noise_perturbs_but_stays_after_arrival(self):
        items = make_items([(0, 5, 0.5)] * 1, prefix="h")
        preds = predicted_departures(items, noise_sigma=1.0, seed=3)
        assert preds["h-0"] != 5
        assert preds["h-0"] > 0  # arrival + positive duration

    def test_deterministic_given_seed(self):
        items = make_items([(0, 5, 0.5), (1, 9, 0.3)])
        a = predicted_departures(items, noise_sigma=0.7, seed=5)
        b = predicted_departures(items, noise_sigma=0.7, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_departures([], noise_sigma=-0.1)


class TestSimulateWithPredictions:
    def test_zero_sigma_matches_clairvoyant(self):
        items = make_items([(0, 2, 0.6), (0, 12, 0.6), (1, 12, 0.3)])
        perfect = simulate_clairvoyant(items, MinExpandFit())
        predicted = simulate_with_predictions(items, MinExpandFit(), noise_sigma=0.0)
        assert predicted.assignment == perfect.assignment
        assert predicted.total_cost() == perfect.total_cost()

    def test_result_reflects_true_departures(self):
        """Only the oracle lies; the simulation stays truthful."""
        items = make_items([(0, 7, 0.5), (1, 4, 0.4)], prefix="h")
        result = simulate_with_predictions(
            items, DurationAlignedFit(), noise_sigma=2.0, seed=9
        )
        assert result.item_by_id("h-0").departure == 7
        assert result.item_by_id("h-1").departure == 4
        result.check_invariants()


@given(exact_items())
@settings(max_examples=30, deadline=None)
def test_noisy_policy_is_still_feasible_and_bounded(items):
    """Bad predictions can cost money but never break feasibility or the
    universal bounds."""
    result = simulate_with_predictions(items, MinExpandFit(), noise_sigma=2.0, seed=1)
    result.check_invariants()
    assert result.total_cost() >= opt_total_lower_bound(items)
    assert result.total_cost() <= sum(it.length for it in items)  # b.3 (Any Fit)
