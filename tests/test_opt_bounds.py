"""Unit and property tests for the OPT_total bounds and bracket."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro import (
    BestFit,
    FirstFit,
    InvalidItemTypeError,
    LastFit,
    Resources,
    WorstFit,
    make_items,
    simulate,
)
from repro.opt.lower_bounds import (
    demand_lower_bound,
    naive_upper_bound,
    opt_bracket,
    opt_total_lower_bound,
    pointwise_lower_bound,
    robust_ceil,
    span_lower_bound,
)
from repro.opt.snapshot import opt_total_ffd_upper_bound, opt_total_l2_lower_bound
from repro.workloads import Clipped, Exponential, Uniform, generate_trace
from tests.conftest import exact_items, float_items, scaling_trace


class TestRobustCeil:
    def test_exact_types(self):
        assert robust_ceil(Fraction(7, 2)) == 4
        assert robust_ceil(3) == 3
        assert robust_ceil(Fraction(3)) == 3

    def test_float_forgiveness(self):
        assert robust_ceil(3.0000000001) == 3
        assert robust_ceil(2.9999999999) == 3
        assert robust_ceil(3.01) == 4

    def test_plain_floats(self):
        assert robust_ceil(0.5) == 1
        assert robust_ceil(0.0) == 0


class TestBoundsOnKnownInstance:
    def setup_method(self):
        # Two items both [0,4] of size 3/4 -> need 2 bins while both active.
        self.items = make_items(
            [(0, 4, Fraction(3, 4)), (0, 4, Fraction(3, 4)), (4, 6, Fraction(1, 2))]
        )

    def test_b1(self):
        assert demand_lower_bound(self.items) == Fraction(3, 4) * 8 + Fraction(1, 2) * 2

    def test_b2(self):
        assert span_lower_bound(self.items) == 6

    def test_pointwise_beats_both(self):
        lb = pointwise_lower_bound(self.items)
        assert lb == 2 * 4 + 1 * 2  # two bins for [0,4], one for [4,6]
        assert lb >= demand_lower_bound(self.items)
        assert lb >= span_lower_bound(self.items)

    def test_b3(self):
        assert naive_upper_bound(self.items) == 4 + 4 + 2

    def test_bracket_tight_here(self):
        bracket = opt_bracket(self.items)
        assert bracket.lower == bracket.upper == 10
        assert bracket.is_tight


class TestValidation:
    def test_capacity_scaling(self):
        items = make_items([(0, 2, 4.0)])
        assert demand_lower_bound(items, capacity=8) == 1
        assert pointwise_lower_bound(items, capacity=8) == 2  # ceil(4/8)=1 bin × 2

    def test_cost_rate_scaling(self):
        items = make_items([(0, 2, 0.5)])
        assert span_lower_bound(items, cost_rate=5) == 10


@pytest.mark.parametrize("capacity", [Resources(1, 1), 1], ids=["vector-W", "scalar-W"])
@pytest.mark.parametrize(
    "bound",
    [opt_bracket, pointwise_lower_bound, opt_total_l2_lower_bound],
    ids=lambda bound: bound.__name__,
)
def test_scalar_bounds_name_the_first_vector_item(bound, capacity):
    items = make_items([(0, 2, Resources(0.5, 0.25)), (1, 3, Resources(0.25, 0.5))])
    with pytest.raises(InvalidItemTypeError) as exc:
        bound(items, capacity=capacity)
    assert exc.value.item_id == "item-0"
    assert str(exc.value) == (
        "Item.size must be a scalar for this bound, or use dominance_lower_bound "
        "(item 'item-0'), got Resources(0.5, 0.25)"
    )
    assert isinstance(exc.value, TypeError)


# ---------------------------------------------------------------------------
# Properties: the sandwich holds on arbitrary traces for every algorithm.


@given(exact_items())
@settings(max_examples=50, deadline=None)
def test_sandwich_exact(items):
    bracket = opt_bracket(items)
    assert bracket.demand_lb <= bracket.pointwise_lb
    assert bracket.span_lb <= bracket.pointwise_lb
    assert bracket.pointwise_lb <= bracket.ffd_ub
    b3 = naive_upper_bound(items)
    for algo in (FirstFit(), BestFit(), WorstFit(), LastFit()):
        cost = simulate(items, algo).total_cost()
        assert bracket.pointwise_lb <= cost <= b3


@given(float_items())
@settings(max_examples=30, deadline=None)
def test_sandwich_float(items):
    bracket = opt_bracket(items)
    tol = 1e-9 * max(1.0, float(bracket.ffd_ub))
    assert bracket.pointwise_lb <= bracket.ffd_ub + tol
    cost = simulate(items, FirstFit()).total_cost()
    assert bracket.pointwise_lb <= cost + tol
    assert opt_total_lower_bound(items) == bracket.pointwise_lb


class TestGeneratedTraces:
    def test_bracket_is_tight_on_a_random_trace(self):
        trace = generate_trace(
            arrival_rate=3.0,
            horizon=120.0,
            duration=Clipped(Exponential(3.0), 1.0, 9.0),
            size=Uniform(0.1, 0.9),
            seed=0,
        )
        bracket = opt_bracket(trace.items)
        assert bracket.lower <= bracket.upper
        # On random traces the bracket is tight to within a few percent.
        assert float(bracket.upper / bracket.lower) < 1.25

    @pytest.mark.parametrize("n_items", [1000, 8000])
    def test_pointwise_bound_is_positive(self, n_items):
        assert pointwise_lower_bound(scaling_trace(n_items).items) > 0

    @pytest.mark.parametrize("n_items", [1000, 4000])
    def test_ffd_sweep_is_at_least_the_pointwise_bound(self, n_items):
        items = scaling_trace(n_items).items
        assert opt_total_ffd_upper_bound(items) >= pointwise_lower_bound(items)

    def test_first_fit_is_near_the_ffd_repack_on_a_gaming_day(self, gaming_trace_day):
        ff_cost = float(simulate(gaming_trace_day.items, FirstFit()).total_cost())
        repack = float(opt_bracket(gaming_trace_day.items).ffd_ub)
        assert 1.0 <= ff_cost / repack < 1.6
