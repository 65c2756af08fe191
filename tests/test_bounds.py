"""Tests for the theorem bound formulas."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.bounds import (
    check_bound,
    mff_bound_known_mu,
    mff_bound_unknown_mu,
    mff_generic_bound,
    mff_optimal_k,
    theorem3_bound,
    theorem4_bound,
    theorem5_bound,
)
from repro import FirstFit, simulate
from repro.adversaries import predicted_anyfit_ratio
from repro.opt.lower_bounds import opt_total_lower_bound
from repro.workloads import Uniform, generate_trace


class TestFormulas:
    def test_theorem1(self):
        assert predicted_anyfit_ratio(5, 4) == Fraction(20, 8)

    def test_theorem3(self):
        assert theorem3_bound(4) == 4
        with pytest.raises(ValueError):
            theorem3_bound(1)

    def test_theorem4_values(self):
        # k=2: 2μ + 12 + 1; k→∞: μ + 6 + 1.
        assert theorem4_bound(3, 2) == 2 * 3 + 12 + 1
        assert abs(theorem4_bound(3, 1e9) - 10) < 1e-6

    def test_theorem5(self):
        assert theorem5_bound(1) == 15
        assert theorem5_bound(10) == 33

    def test_mff_unknown(self):
        assert mff_bound_unknown_mu(Fraction(1)) == Fraction(8 + 55, 7)
        assert mff_bound_unknown_mu(7.0) == pytest.approx((8 * 7 + 55) / 7)

    def test_mff_known(self):
        assert mff_bound_known_mu(5) == 13

    def test_mff_known_beats_unknown_for_small_mu(self):
        # μ+8 ≤ (8/7)μ + 55/7 ⟺ μ ≥ ... always for μ ≥ 1? at μ=1: 9 vs 9.
        assert mff_bound_known_mu(1) == pytest.approx(float(mff_bound_unknown_mu(1)))
        for mu in (2, 5, 20):
            assert mff_bound_known_mu(mu) < float(mff_bound_unknown_mu(mu))

    def test_mff_generic_specialises(self):
        mu = 9.0
        assert mff_generic_bound(mu, 8) == pytest.approx(float(mff_bound_unknown_mu(mu)))
        assert mff_generic_bound(mu, mu + 7) == pytest.approx(mff_bound_known_mu(mu) , rel=1e-12)

    def test_validation(self):
        for fn in (theorem5_bound, mff_bound_unknown_mu, mff_bound_known_mu):
            with pytest.raises(ValueError):
                fn(0.5)
        with pytest.raises(ValueError):
            theorem4_bound(2, 1)
        with pytest.raises(ValueError):
            mff_generic_bound(2, 1)


class TestCheckBound:
    def test_holds(self):
        c = check_bound(10, 5, 3, theorem="t")
        assert c.holds and c.measured_ratio == 2 and c.slack == 1

    def test_fails(self):
        assert not check_bound(20, 5, 3, theorem="t").holds

    def test_invalid_opt(self):
        with pytest.raises(ValueError):
            check_bound(1, 0, 3, theorem="t")


@given(st.floats(min_value=1, max_value=1e3))
def test_mff_optimal_k_minimises(mu):
    """k = μ+7 minimises max{k, (μ+6)/(1−1/k)} over k (paper's derivation)."""
    best_k = mff_optimal_k(mu)
    best = max(best_k, (mu + 6) / (1 - 1 / best_k))
    for k in (best_k * 0.8, best_k * 0.95, best_k * 1.05, best_k * 1.3):
        if k > 1:
            assert max(k, (mu + 6) / (1 - 1 / k)) >= best - 1e-9


@given(st.floats(min_value=1, max_value=100), st.floats(min_value=1.5, max_value=50))
def test_theorem4_worse_than_theorem5_only_for_small_k(mu, k):
    """Theorem 4 with k = 2 equals 2μ+13 (Theorem 5's proof route)."""
    assert theorem4_bound(mu, 2) == pytest.approx(theorem5_bound(mu))
    if k > 2:
        assert theorem4_bound(mu, k) <= theorem5_bound(mu) + 1e-9


def test_first_fit_on_random_large_items_sits_far_below_theorem3():
    k = 4
    trace = generate_trace(
        arrival_rate=4.0,
        horizon=300.0,
        duration=Uniform(1.0, 10.0),
        size=Uniform(1.0 / k, 1.0),
        seed=0,
    )
    cost = simulate(trace.items, FirstFit()).total_cost()
    ratio = float(cost / opt_total_lower_bound(trace.items))
    assert ratio <= k
    # On random (non-adversarial) large items the ratio is far below k.
    assert ratio < 2.0
