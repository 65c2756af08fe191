"""Unit tests for the packing algorithms and their registry."""

from fractions import Fraction

import pytest

from repro import (
    AnyFit,
    BestFit,
    FirstFit,
    HarmonicFit,
    LastFit,
    ModifiedFirstFit,
    NextFit,
    RandomFit,
    WorstFit,
    available_algorithms,
    get_algorithm,
    make_items,
    simulate,
)
from repro.algorithms import LARGE, SMALL
from repro.analysis.bounds import mff_bound_known_mu, mff_bound_unknown_mu
from repro.core.metrics import trace_stats
from repro.opt.lower_bounds import opt_total_lower_bound
from repro.workloads import Choice, Clipped, Exponential, generate_trace


def _bimodal_trace(seed):
    """Many small sessions and a few large ones (the ``mff`` experiment's mix)."""
    return generate_trace(
        arrival_rate=6.0,
        horizon=150.0,
        duration=Clipped(Exponential(3.0), 1.0, 8.0),
        size=Choice.of([0.04, 0.06, 0.10, 0.30, 0.45, 0.60], [4, 4, 4, 1, 1, 1]),
        seed=seed,
    )


class TestRegistry:
    def test_all_registered(self):
        names = available_algorithms()
        for expected in (
            "first-fit",
            "best-fit",
            "worst-fit",
            "last-fit",
            "random-fit",
            "next-fit",
            "new-bin-per-item",
            "modified-first-fit",
            "harmonic-fit",
        ):
            assert expected in names

    def test_get_by_name_with_kwargs(self):
        algo = get_algorithm("modified-first-fit", k=5)
        assert isinstance(algo, ModifiedFirstFit)
        assert algo.k == 5

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_algorithm("teleport-fit")


def _conflict_trace():
    """At t=2 a 0.5-item arrives; bin0 has level 0.3 (after a departure),
    bin1 has level 0.6: both fit it."""
    return make_items(
        [
            (0, 10, 0.3),  # bin0 resident
            (0, 2, 0.6),  # bin0, departs before the probe
            (1, 10, 0.6),  # bin1 (0.6 doesn't fit bin0 at level 0.9 at t=1)
            (2, 10, 0.35),  # the probe: fits bin0 (level 0.3) and bin1 (level 0.6)
        ],
        prefix="h",
    )


class TestSelectionRules:
    def test_first_fit_picks_earliest(self):
        result = simulate(_conflict_trace(), FirstFit())
        assert result.assignment["h-3"] == 0

    def test_best_fit_picks_fullest(self):
        result = simulate(_conflict_trace(), BestFit())
        assert result.assignment["h-3"] == 1  # level 0.6 > 0.3

    def test_worst_fit_picks_emptiest(self):
        result = simulate(_conflict_trace(), WorstFit())
        assert result.assignment["h-3"] == 0

    def test_last_fit_picks_newest(self):
        result = simulate(_conflict_trace(), LastFit())
        assert result.assignment["h-3"] == 1

    def test_best_fit_tie_breaks_to_earliest(self):
        items = make_items([(0, 9, 0.4), (1, 9, 0.4), (2, 9, 0.4)], prefix="h")
        result = simulate(items, BestFit())
        # h1 fits bin0 (level 0.4 -> 0.8); h2 doesn't fit bin0, opens bin1.
        assert result.assignment["h-1"] == 0
        assert result.assignment["h-2"] == 1

    def test_random_fit_deterministic_given_seed(self):
        items = make_items([(0, 9, 0.2)] * 3 + [(1, 9, 0.2)] * 3)
        a = simulate(items, RandomFit(seed=7)).assignment
        b = simulate(items, RandomFit(seed=7)).assignment
        assert a == b

    def test_custom_any_fit_rule(self):
        emptiest = AnyFit(lambda item, bins: min(bins, key=lambda b: b.num_items))
        result = simulate(_conflict_trace(), emptiest)
        assert result.num_bins_used == 2


class TestNextFit:
    def test_only_considers_current_bin(self):
        # h0 opens bin0; h1 doesn't fit -> bin1 becomes current; h2 (0.2)
        # would fit bin0 but Next Fit only looks at bin1.
        items = make_items([(0, 9, 0.8), (1, 9, 0.9), (2, 9, 0.2)], prefix="h")
        result = simulate(items, NextFit())
        assert result.assignment["h-2"] == 2  # bin1 at 0.9 can't take 0.2? it can't (1.1) -> new bin
        assert result.num_bins_used == 3

    def test_reuses_current_bin(self):
        items = make_items([(0, 9, 0.3), (1, 9, 0.3)], prefix="h")
        result = simulate(items, NextFit())
        assert result.num_bins_used == 1

    def test_current_bin_closure_resets(self):
        items = make_items([(0, 2, 0.5), (3, 5, 0.5)], prefix="h")
        result = simulate(items, NextFit())
        assert result.num_bins_used == 2


class TestModifiedFirstFit:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            ModifiedFirstFit(k=1)
        with pytest.raises(ValueError):
            ModifiedFirstFit.with_known_mu(0.5)

    def test_with_known_mu_sets_k(self):
        assert ModifiedFirstFit.with_known_mu(3).k == 10

    def test_pools_are_disjoint(self):
        # One large item (>= 1/8) and small items that would fit beside it.
        items = make_items([(0, 10, 0.5), (0, 10, 0.05), (0, 10, 0.05)], prefix="h")
        result = simulate(items, ModifiedFirstFit())
        large_bin = result.assignment["h-0"]
        assert result.assignment["h-1"] != large_bin
        assert result.assignment["h-2"] == result.assignment["h-1"]
        assert result.bins[large_bin].label == LARGE
        assert result.bins[result.assignment["h-1"]].label == SMALL

    def test_threshold_boundary(self):
        # size exactly W/k is LARGE (paper: "equal to or larger than W/k").
        items = make_items([(0, 10, Fraction(1, 8)), (0, 10, Fraction(1, 8) - Fraction(1, 1000))], prefix="h")
        result = simulate(items, ModifiedFirstFit(k=8))
        assert result.bins[result.assignment["h-0"]].label == LARGE
        assert result.bins[result.assignment["h-1"]].label == SMALL

    def test_exact_boundary_with_an_int_capacity(self):
        # W/k with an int W and an int k is exact: 1/5 is LARGE at k = 5,
        # not SMALL by float rounding (1/5 < 0.2 as floats compare).
        from repro.algorithms import Arrival

        algo = ModifiedFirstFit(k=5)
        algo.reset(1)
        assert algo.classify(Arrival("a", Fraction(1, 5), 0)) == LARGE
        items = make_items([(0, 4, Fraction(1, 5)), (0, 4, Fraction(4, 5))], prefix="h")
        result = simulate(items, ModifiedFirstFit(k=5))
        assert result.bins[result.assignment["h-0"]].label == LARGE
        assert result.num_bins_used == 1

    def test_float_capacity_keeps_a_float_threshold(self):
        from repro.algorithms import Arrival

        algo = ModifiedFirstFit(k=5)
        algo.reset(1.0)
        assert algo.classify(Arrival("a", 0.2, 0)) == LARGE
        assert algo.classify(Arrival("b", Fraction(1, 5), 0)) == SMALL

    def test_first_fit_within_pool(self):
        items = make_items(
            [(0, 10, 0.04), (0, 10, 0.04), (1, 10, 0.04)]
        )
        result = simulate(items, ModifiedFirstFit())
        assert result.num_bins_used == 1

    def test_bimodal_trace_within_the_unknown_mu_bound(self):
        trace = _bimodal_trace(seed=0)
        opt_lb = opt_total_lower_bound(trace.items)
        mff = float(simulate(trace.items, ModifiedFirstFit()).total_cost() / opt_lb)
        ff = float(simulate(trace.items, FirstFit()).total_cost() / opt_lb)
        assert mff <= float(mff_bound_unknown_mu(float(trace_stats(trace.items).mu)))
        # MFF's worst-case bound beats FF's; average costs stay comparable.
        assert mff <= 2 * ff

    def test_bimodal_trace_within_the_known_mu_bound(self):
        trace = _bimodal_trace(seed=1)
        mu = float(trace_stats(trace.items).mu)
        result = simulate(trace.items, ModifiedFirstFit.with_known_mu(mu))
        ratio = float(result.total_cost() / opt_total_lower_bound(trace.items))
        assert ratio <= mff_bound_known_mu(mu)


class TestHarmonicFit:
    def test_classification(self):
        algo = HarmonicFit(num_classes=3)
        algo.reset(1.0)
        from repro.algorithms import Arrival

        assert algo.classify(Arrival("a", 0.9, 0)) == 1  # (1/2, 1]
        assert algo.classify(Arrival("b", 0.4, 0)) == 2  # (1/3, 1/2]
        assert algo.classify(Arrival("c", 0.05, 0)) == 3  # ≤ 1/3 bucket

    def test_exact_class_boundaries(self):
        # Class j holds (W/(j+1), W/j]: an item of size exactly W/j is in
        # class j, not one class higher by a rounded int / int boundary.
        from repro.algorithms import Arrival

        algo = HarmonicFit(num_classes=8)
        algo.reset(1)
        for j in (3, 6, 7):
            assert algo.classify(Arrival(f"s{j}", Fraction(1, j), 0)) == j

    def test_single_class_behaves_like_first_fit(self):
        items = make_items([(0, 9, 0.4), (0, 9, 0.5), (1, 9, 0.4), (2, 9, 0.2)], prefix="h")
        ff = simulate(items, FirstFit())
        h1 = simulate(items, HarmonicFit(num_classes=1))
        assert ff.assignment == h1.assignment

    def test_classes_do_not_mix(self):
        items = make_items([(0, 9, 0.9), (0, 9, 0.05)], prefix="h")
        result = simulate(items, HarmonicFit(num_classes=3))
        assert result.num_bins_used == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HarmonicFit(num_classes=0)
