"""Tests for the Theorem 1 and Theorem 2 adaptive adversaries."""

from fractions import Fraction

import pytest

from repro import BestFit, FirstFit, LastFit, NewBinPerItem, WorstFit, simulate
from repro.adversaries import (
    predicted_anyfit_ratio,
    run_theorem1_adversary,
    run_theorem2_adversary,
    theorem2_epsilon,
)


class TestTheorem1:
    @pytest.mark.parametrize("algo_cls", [FirstFit, BestFit, WorstFit, LastFit])
    @pytest.mark.parametrize("k,mu", [(2, 2), (5, 4), (10, 16), (20, 10)])
    def test_exact_match_for_anyfit(self, algo_cls, k, mu):
        out = run_theorem1_adversary(algo_cls(), k=k, mu=mu)
        assert out.matches_prediction
        assert out.measured_ratio == predicted_anyfit_ratio(k, mu)
        # The OPT bracket is tight: the ratio is exact, not an estimate.
        assert out.opt.is_tight

    def test_predicted_formula(self):
        # Equation (1): kμ/(k+μ−1).
        assert predicted_anyfit_ratio(5, 4) == Fraction(20, 8)

    def test_ratio_approaches_mu(self):
        mu = 10
        ratios = [
            run_theorem1_adversary(FirstFit(), k=k, mu=mu).measured_ratio
            for k in (2, 8, 32)
        ]
        assert ratios == sorted(ratios)
        assert all(r < mu for r in ratios)
        assert float(ratios[-1]) > 0.75 * mu

    def test_best_fit_ratio_climbs_towards_mu(self):
        ratios = [
            run_theorem1_adversary(BestFit(), k=k, mu=16).measured_ratio
            for k in (2, 4, 8, 16, 32)
        ]
        # Monotone towards μ = 16, never reaching it.
        assert ratios == sorted(ratios)
        assert all(r < 16 for r in ratios)
        assert ratios[-1] > 10

    def test_fractional_mu(self):
        out = run_theorem1_adversary(FirstFit(), k=4, mu=Fraction(7, 2))
        assert out.matches_prediction

    def test_mu_one_degenerates(self):
        out = run_theorem1_adversary(FirstFit(), k=3, mu=1)
        assert out.algorithm_cost == 3  # k bins for Δ
        assert out.measured_ratio == 1  # OPT also needs k bins: ratio kΔ/kΔ...

    def test_bin_structure(self):
        out = run_theorem1_adversary(FirstFit(), k=4, mu=3)
        # k bins, each opened at 0 and closed at μΔ.
        assert out.result.num_bins_used == 4
        for b in out.result.bins:
            assert b.opened_at == 0 and b.closed_at == 3

    def test_non_anyfit_algorithm_measured_only(self):
        out = run_theorem1_adversary(NewBinPerItem(), k=3, mu=2)
        # 9 bins of its own; costs don't match the AF formulas.
        assert out.result.num_bins_used == 9
        assert not out.matches_prediction

    def test_validation(self):
        with pytest.raises(ValueError):
            run_theorem1_adversary(FirstFit(), k=1, mu=2)
        with pytest.raises(ValueError):
            run_theorem1_adversary(FirstFit(), k=3, mu=Fraction(1, 2))


class TestTheorem2:
    def test_epsilon_choice(self):
        eps = theorem2_epsilon(4, 3)
        assert eps == Fraction(1, 2 * 16 * 4)
        assert (1 / (4 * eps)).denominator == 1  # 1/(kε) integral

    def test_ratio_floor_and_growth(self):
        ks = (3, 5, 6, 8)
        outs = [run_theorem2_adversary(k=k, mu=3, n_iterations=2 * k // 3 + 2) for k in ks]
        for k, out in zip(ks, outs):
            assert float(out.measured_ratio_lower) >= k / 2
            assert out.result.num_bins_used == k
        ratios = [out.measured_ratio_lower for out in outs]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_bf_keeps_k_bins_open(self):
        out = run_theorem2_adversary(k=4, mu=3, n_iterations=3)
        assert out.result.num_bins_used == 4
        assert out.result.max_bins_used == 4
        # Every bin opened at 0 and stayed open past the last iteration.
        for b in out.result.bins:
            assert b.opened_at == 0
            assert b.closed_at > out.n_iterations * out.mu

    def test_realized_mu_close_to_nominal(self):
        out = run_theorem2_adversary(k=4, mu=5, n_iterations=2)
        assert 1 <= float(out.realized_mu) / 5 < 1.01

    def test_first_fit_escapes_the_trap(self):
        """The trap is BF-specific: FF on the same items stays cheap."""
        for k, n_iterations in ((5, 4), (6, 5)):
            out = run_theorem2_adversary(k=k, mu=3, n_iterations=n_iterations)
            ff = simulate(out.result.items, FirstFit(), capacity=1)
            bf_cost = float(out.algorithm_cost)
            ff_cost = float(ff.total_cost())
            assert ff_cost < bf_cost / 2

    def test_exact_levels_asserted_internally(self):
        # The adversary raises if any bin deviates from the paper's
        # <(1/k − (jk+m)ε)|_ε> configuration; reaching here means it held.
        out = run_theorem2_adversary(k=3, mu=2, n_iterations=2)
        assert out.epsilon == theorem2_epsilon(3, 2)

    def test_compute_opt_false_skips_bracket(self):
        out = run_theorem2_adversary(k=3, mu=2, n_iterations=1, compute_opt=False)
        assert out.opt is None

    def test_validation(self):
        with pytest.raises(ValueError):
            run_theorem2_adversary(k=1, mu=2, n_iterations=1)
        with pytest.raises(ValueError):
            run_theorem2_adversary(k=3, mu=1, n_iterations=1)
        with pytest.raises(ValueError):
            run_theorem2_adversary(k=3, mu=2, n_iterations=0)
        with pytest.raises(ValueError):
            run_theorem2_adversary(k=3, mu=2, n_iterations=1, delta_window=2)
