"""Exact traces on the integer lattice.

Record-mode :func:`~repro.core.simulator.simulate` and the snapshot sweeps
of :mod:`repro.opt.snapshot` run an exact trace with every size and the
capacity multiplied by ``D``, the lcm of their denominators
(:mod:`repro.core.numeric`), and map the results back.  The oracle is the
same event kernel without scaling: ``_merge_events`` driving a
:class:`~repro.core.simulator.Simulator` on the caller's items, which is
the path the adaptive adversaries take.  Every case compares results,
their number types, and the repacker's counters with it.  The snapshot
sweeps, which sort a trace themselves, are compared with the kernel's
event grouping (``_merge_events`` on the trace as ``simulate`` sorts it)
in the caller's units, also on float, tie-heavy and 2-D traces.  The OPT
bracket's demand and pointwise sums are compared with the same sums taken
in the caller's units.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BestFit,
    FirstFit,
    HarmonicFit,
    ModifiedBestFit,
    ModifiedFirstFit,
    NextFit,
    WorstFit,
)
from repro.algorithms.base import Arrival
from repro.core.events import EventKind, EventOrderError, _by_arrival, _merge_events
from repro.core.item import Item, make_items, validate_items
from repro.core.metrics import total_demand, trace_stats
from repro.core.numeric import lattice_scale, quotient, to_lattice
from repro.core.resources import Resources
from repro.core.simulator import SimulationError, Simulator, simulate
from repro.core.telemetry import SimulationObserver
from repro.core.validation import OversizedItemError, ResourceDimensionError
from repro.opt.lower_bounds import (
    demand_lower_bound,
    dominance_lower_bound,
    opt_bracket,
    pointwise_lower_bound,
    robust_ceil,
)
from repro.opt.snapshot import (
    SearchLimitReached,
    exact_bin_count,
    ffd_bin_count,
    l2_lower_bound,
    opt_total_ffd_upper_bound,
    opt_total_l2_lower_bound,
    snapshot_profile,
)
from repro.renting import BoundedRepacker, Hybrid
from repro.workloads.trace import Trace

ALGORITHMS: dict[str, Callable[[], Any]] = {
    "first-fit": FirstFit,
    "best-fit": BestFit,
    "worst-fit": WorstFit,
    "next-fit": NextFit,
    "mff-5": lambda: ModifiedFirstFit(k=5),
    "mff-8": lambda: ModifiedFirstFit(k=8),
    "mbf": ModifiedBestFit,
    "harmonic": lambda: HarmonicFit(num_classes=4),
    "hybrid": Hybrid,
}

CAPACITIES = (1, 2, Fraction(3, 2))

#: Denominators that put sizes on every W/k class boundary the algorithms
#: above use (MFF k = 5 and 8, Harmonic's W/2..W/4, Hybrid's W/2).
DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 10, 12)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def exact_traces(draw: st.DrawFn, max_items: int = 24) -> tuple[Any, list[Item]]:
    """A capacity and items with mixed ``int``/``Fraction`` sizes and times."""
    capacity = draw(st.sampled_from(CAPACITIES))
    items = []
    for i in range(draw(st.integers(1, max_items))):
        den = draw(st.sampled_from(DENOMINATORS))
        num = draw(st.integers(1, int(capacity * den)))
        size: Any = Fraction(num, den)
        if size.denominator == 1 and draw(st.booleans()):
            size = int(size)
        arrival = Fraction(draw(st.integers(0, 24)), draw(st.sampled_from((1, 2))))
        length = Fraction(draw(st.integers(1, 12)), draw(st.sampled_from((1, 2, 3))))
        if arrival.denominator == 1:
            arrival = int(arrival)
        items.append(Item(arrival=arrival, departure=arrival + length, size=size, item_id=f"r{i}"))
    return capacity, items


def oracle(
    items: list[Item], algorithm: Any, *, capacity: Any = 1, indexed: bool = True,
    repacker: BoundedRepacker | None = None,
):
    """The kernel on the caller's items, with no scaling."""
    sim = Simulator(algorithm, capacity=capacity, indexed=indexed)
    if repacker is not None:
        repacker.reset()
    trace = validate_items(items, capacity=capacity)
    deque(_merge_events(*_by_arrival(trace), sim=sim, hooks=repacker), maxlen=0)
    return sim.finish()


def by_arrival(items: list[Item]) -> list[Item]:
    return sorted(items, key=lambda it: it.arrival)


def as_input(kind: str, items: list[Item]) -> Any:
    """The trace as a list, a :class:`Trace`, or a one-shot iterator."""
    if kind == "list":
        return list(items)
    if kind == "trace":
        return Trace(items=tuple(items))
    return iter(by_arrival(items))


def assert_same_result(result: Any, expected: Any) -> None:
    assert result == expected
    assert type(result.capacity) is type(expected.capacity)
    assert [type(b.capacity) for b in result.bins] == [type(b.capacity) for b in expected.bins]
    assert [type(it.size) for it in result.items] == [type(it.size) for it in expected.items]
    assert result.total_cost() == expected.total_cost()
    assert type(result.total_cost()) is type(expected.total_cost())


class RecordingFirstFit(FirstFit):
    """First Fit that remembers the capacities and sizes the engine showed it."""

    def __init__(self) -> None:
        self.capacities_seen: list[Any] = []
        self.sizes_seen: list[Any] = []

    def reset(self, capacity: Any) -> None:
        self.capacities_seen.append(capacity)

    def on_bin_opened(self, bin: Any, item: Any) -> None:
        self.sizes_seen.append(item.size)


# --------------------------------------------------------------- helpers


class TestHelpers:
    def test_lattice_scale_is_the_lcm_of_denominators(self):
        assert lattice_scale(1, [Fraction(1, 2), Fraction(1, 3), 2]) == 6
        assert lattice_scale(Fraction(3, 2), [1, 1]) == 2
        assert lattice_scale(1, [1, 2]) == 1
        assert lattice_scale(Fraction(1, 4), []) == 4

    def test_lattice_scale_refuses_floats_and_vectors(self):
        assert lattice_scale(1, [Fraction(1, 2), 0.5]) is None
        assert lattice_scale(1.0, [Fraction(1, 2)]) is None
        assert lattice_scale(1, [Resources(Fraction(1, 2), Fraction(1, 3))]) is None

    def test_to_lattice_is_exact(self):
        assert to_lattice(Fraction(5, 6), 12) == 10
        assert to_lattice(3, 12) == 36
        assert type(to_lattice(Fraction(4, 2), 6)) is int

    def test_quotient_is_exact_for_exact_operands(self):
        assert quotient(1, 8) == Fraction(1, 8) and type(quotient(1, 8)) is Fraction
        assert quotient(Fraction(3, 2), 3) == Fraction(1, 2)
        assert quotient(1.0, 8) == 0.125 and type(quotient(1.0, 8)) is float
        assert quotient(1, 2.5) == 0.4


# ------------------------------------------------------------- simulate


class TestSimulate:
    @SETTINGS
    @given(
        trace=exact_traces(),
        name=st.sampled_from(sorted(ALGORITHMS)),
        kind=st.sampled_from(("list", "trace", "iter")),
        indexed=st.booleans(),
        check=st.booleans(),
    )
    def test_matches_the_unscaled_kernel(self, trace, name, kind, indexed, check):
        capacity, items = trace
        make = ALGORITHMS[name]
        result = simulate(
            as_input(kind, items), make(), capacity=capacity, indexed=indexed, check=check
        )
        fed = by_arrival(items) if kind == "iter" else items
        assert_same_result(result, oracle(fed, make(), capacity=capacity, indexed=indexed))

    @SETTINGS
    @given(
        trace=exact_traces(),
        name=st.sampled_from(("first-fit", "best-fit", "mff-8", "hybrid")),
        factor=st.sampled_from((0, 1, Fraction(1, 2))),
        kind=st.sampled_from(("list", "iter")),
    )
    def test_repacker_counters_read_in_caller_units(self, trace, name, factor, kind):
        capacity, items = trace
        make = ALGORITHMS[name]
        repacker = BoundedRepacker(factor)
        result = simulate(as_input(kind, items), make(), capacity=capacity, repacker=repacker)
        fed = by_arrival(items) if kind == "iter" else items
        expected_repacker = BoundedRepacker(factor)
        expected = oracle(fed, make(), capacity=capacity, repacker=expected_repacker)
        assert_same_result(result, expected)
        counters = ("budget", "size_moved", "migrations_done", "bins_emptied")
        assert [getattr(repacker, c) for c in counters] == [
            getattr(expected_repacker, c) for c in counters
        ]
        if factor == 0:
            assert (type(repacker.budget), type(repacker.size_moved)) == (int, int)

    def test_exact_runs_decide_on_ints(self):
        items = make_items([(0, 3, Fraction(1, 3)), (1, 4, Fraction(1, 4)), (2, 5, 1)])
        algorithm = RecordingFirstFit()
        simulate(items, algorithm)
        # The run sees the lattice; the closing reset is in caller units.
        assert algorithm.capacities_seen == [12, 1]
        assert algorithm.sizes_seen == [4, 12]
        assert all(type(size) is int for size in algorithm.sizes_seen)

    @pytest.mark.parametrize(
        "name, size, label",
        [
            ("mff-5", Fraction(1, 5), "large"),
            ("mbf", Fraction(1, 6), "large"),
            ("harmonic", Fraction(1, 3), 3),
        ],
    )
    def test_reset_derived_state_ends_in_caller_units(self, name, size, label):
        algorithm = ALGORITHMS[name]()
        simulate(make_items([(0, 2, Fraction(1, 5)), (1, 3, Fraction(2, 3))]), algorithm)
        assert algorithm.classify(Arrival("a", size, 0)) == label

    def test_integral_traces_need_no_lattice(self):
        algorithm = RecordingFirstFit()
        simulate(make_items([(0, 3, 1), (1, 4, 2)]), algorithm, capacity=Fraction(4))
        assert algorithm.capacities_seen == [Fraction(4)]
        assert type(algorithm.capacities_seen[0]) is Fraction

    def test_observers_see_caller_units(self):
        seen: list[Any] = []

        class Sizes(SimulationObserver):
            def on_arrival(self, time, item, bin, opened):
                seen.append((item.size, bin.capacity))

        items = make_items([(0, 3, Fraction(1, 3)), (1, 4, Fraction(1, 4))])
        algorithm = RecordingFirstFit()
        result = simulate(items, algorithm, observers=[Sizes()])
        assert algorithm.capacities_seen == [1]
        assert seen == [(Fraction(1, 3), 1), (Fraction(1, 4), 1)]
        assert_same_result(result, oracle(items, FirstFit()))

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize("name", ["mff-5", "mff-8", "mbf", "harmonic", "hybrid"])
    def test_class_boundaries_decide_as_fractions(self, capacity, name):
        # Items of size exactly W/k for every k the algorithms split at.
        sizes = [capacity * Fraction(1, k) for k in (2, 3, 4, 5, 8)]
        items = make_items(
            [(i % 3, 6 + i % 4, size) for i, size in enumerate(sizes * 3)]
        )
        make = ALGORITHMS[name]
        assert_same_result(simulate(items, make(), capacity=capacity), oracle(items, make(), capacity=capacity))

    def test_flavour_aware_algorithms_keep_caller_units(self):
        class OwnBins(FirstFit):
            def new_bin_capacity(self, item):
                return Fraction(3, 2)

        items = make_items([(0, 3, Fraction(2, 3)), (1, 4, Fraction(2, 3)), (2, 5, Fraction(1, 6))])
        result = simulate(items, OwnBins())
        assert_same_result(result, oracle(items, OwnBins()))
        assert result.num_bins_used == 1

    @pytest.mark.parametrize(
        "make, size",
        [
            # 1/2.5 rounds above 2/5, while 5/2.5 is exactly 2.
            (lambda: ModifiedFirstFit(k=2.5), Fraction(2, 5)),
            (lambda: ModifiedBestFit(k=2.5), Fraction(2, 5)),
            # 0.3 is just below 3/10, while 0.3 * 10 rounds to 3.0.
            (lambda: Hybrid(threshold=0.3), Fraction(3, 10)),
        ],
    )
    def test_float_parameters_keep_caller_units(self, make, size):
        items = make_items([(0, 4, size), (0, 4, Fraction(1, 10)), (1, 3, size)])
        result = simulate(items, make())
        assert_same_result(result, oracle(items, make()))

    def test_float_migration_factor_keeps_caller_units(self):
        items = make_items(
            [(i, i + 3 + i % 4, Fraction(1 + i % 5, 10)) for i in range(40)]
        )
        repacker, expected_repacker = BoundedRepacker(0.75), BoundedRepacker(0.75)
        result = simulate(items, FirstFit(), repacker=repacker)
        assert_same_result(
            result, oracle(items, FirstFit(), repacker=expected_repacker)
        )
        assert repacker.budget == expected_repacker.budget
        assert type(repacker.budget) is float

    def test_a_huge_lattice_decides_as_fractions(self):
        # 40 distinct prime denominators: D has about 70 digits.
        primes = [p for p in range(3, 400) if all(p % q for q in range(2, p))][:40]
        items = make_items(
            [(i % 7, i % 7 + 1 + i % 5, Fraction((p + 1) // 3, p)) for i, p in enumerate(primes)]
        )
        assert lattice_scale(1, [it.size for it in items]) > 10**60
        for make in (FirstFit, BestFit, lambda: ModifiedFirstFit(k=8)):
            assert_same_result(simulate(items, make()), oracle(items, make()))
            assert_same_result(simulate(iter(by_arrival(items)), make()), oracle(by_arrival(items), make()))
        # Ceilings of huge lattice ratios stay exact (a float quotient
        # would round them).
        for method, solve in (("ffd", ffd_bin_count), ("exact", exact_bin_count)):
            assert snapshot_profile(items, method=method) == caller_unit_profile(items, 1, solve)
        _, l2_counts = caller_unit_profile(items, 1, l2_lower_bound)
        times, _ = caller_unit_profile(items, 1, ffd_bin_count)
        assert opt_bracket(items, include_l2=True).l2_lb == integrate(times, l2_counts)


# ---------------------------------------------------------------- errors


def item(arrival: Any, departure: Any, size: Any, item_id: str) -> Item:
    return Item(arrival=arrival, departure=departure, size=size, item_id=item_id)


class TestAdmissionErrors:
    """Same type, message and order as the unscaled, streamed checks."""

    @pytest.mark.parametrize("kind", ["list", "iter"])
    def test_oversize_prints_caller_units(self, kind):
        items = [item(0, 1, Fraction(1, 3), "a"), item(1, 2, Fraction(7, 4), "b")]
        with pytest.raises(OversizedItemError) as exc:
            simulate(as_input(kind, items), FirstFit(), capacity=Fraction(3, 2))
        assert str(exc.value) == "item 'b' has size 7/4 exceeding bin capacity 3/2"
        assert (exc.value.size, exc.value.capacity) == (Fraction(7, 4), Fraction(3, 2))

    def test_out_of_order_iterator(self):
        items = [item(2, 3, Fraction(1, 3), "a"), item(1, 2, Fraction(1, 3), "b")]
        with pytest.raises(EventOrderError) as exc:
            simulate(iter(items), FirstFit())
        assert str(exc.value) == (
            "item 'b' arrives at 1, before the previous arrival at 2; streamed "
            "items must have non-decreasing arrival times — sort the trace first "
            "(simulate accepts any order)"
        )
        assert exc.value.item_id == "b"

    def test_duplicate_id_in_an_iterator(self):
        items = [item(0, 3, Fraction(1, 3), "a"), item(1, 2, Fraction(1, 3), "a")]
        with pytest.raises(SimulationError, match=r"^duplicate item id 'a'$"):
            simulate(iter(items), FirstFit(), repacker=BoundedRepacker(1))

    def test_dimension_mismatch_in_an_iterator(self):
        items = [
            item(0, 3, Fraction(1, 3), "a"),
            item(1, 2, Resources(Fraction(1, 3), Fraction(1, 3)), "b"),
        ]
        with pytest.raises(ResourceDimensionError) as exc:
            simulate(iter(items), FirstFit())
        assert (exc.value.expected, exc.value.got, exc.value.item_id) == (None, 2, "b")

    @pytest.mark.parametrize(
        "items, error",
        [
            # A duplicate is admitted before a later item is pulled.
            (
                [item(0, 3, Fraction(1, 3), "a"), item(1, 2, Fraction(1, 3), "a"),
                 item(2, 3, Fraction(4, 3), "c")],
                SimulationError,
            ),
            (
                [item(0, 3, Fraction(1, 3), "a"), item(1, 2, Fraction(4, 3), "b"),
                 item(2, 3, Fraction(1, 3), "a")],
                OversizedItemError,
            ),
            (
                [item(0, 3, Fraction(1, 3), "a"), item(0, 2, Fraction(1, 3), "a"),
                 item(-1, 3, Fraction(1, 3), "c")],
                SimulationError,
            ),
            (
                [item(0, 3, Fraction(1, 3), "a"),
                 item(1, 2, Resources(Fraction(1, 3), Fraction(1, 3)), "b"),
                 item(1, 2, Fraction(1, 3), "a")],
                ResourceDimensionError,
            ),
        ],
    )
    def test_the_first_faulty_item_in_stream_order_raises(self, items, error):
        with pytest.raises(error):
            simulate(iter(items), FirstFit())

    def test_an_iterator_is_read_before_the_first_event(self):
        def stream():
            yield item(0, 2, Fraction(1, 3), "a")
            yield item(1, 3, Fraction(1, 3), "b")
            raise RuntimeError("source failed")

        algorithm = RecordingFirstFit()
        algorithm.reset(1)
        with pytest.raises(RuntimeError, match="source failed"):
            simulate(stream(), algorithm)
        assert algorithm.sizes_seen == []


# ------------------------------------------------------------- snapshots


def caller_unit_profile(items: list[Item], capacity: Any, solve: Callable) -> tuple[list, list]:
    """Per-snapshot counts solved on the caller's sizes."""
    events = list(_merge_events(*_by_arrival(items)))
    active: dict[str, Any] = {}
    times, counts = [], []
    i = 0
    while i < len(events):
        t = events[i][0]
        while i < len(events) and events[i][0] == t:
            _, kind, _, it = events[i]
            if kind == EventKind.ARRIVAL:
                active[it.item_id] = it.size
            else:
                del active[it.item_id]
            i += 1
        times.append(t)
        counts.append(solve(list(active.values()), capacity))
    return times, counts


def integrate(times: list, counts: list) -> Any:
    total: Any = 0
    for i in range(len(times) - 1):
        if counts[i]:
            total = total + counts[i] * (times[i + 1] - times[i])
    return total


def assert_same_profile(got: tuple[list, list], expected: tuple[list, list]) -> None:
    """Equal breakpoints and counts, and each breakpoint of the same type."""
    assert got == expected
    assert [type(t) for t in got[0]] == [type(t) for t in expected[0]]


def float_trace(seed: int) -> list[Item]:
    """Float sizes on a quarter-unit time grid: many shared instants."""
    rng = random.Random(seed)
    items = []
    for i in range(30):
        arrival = rng.randint(0, 12) / 4
        departure = arrival + rng.randint(1, 8) / 4
        items.append(Item(arrival, departure, rng.uniform(0.05, 0.7), item_id=f"f{i}"))
    return items


def vector_trace(seed: int) -> list[Item]:
    """2-D sizes on an integer time grid."""
    rng = random.Random(seed)
    items = []
    for i in range(30):
        arrival = rng.randint(0, 10)
        size = Resources(rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6))
        items.append(Item(arrival, arrival + rng.randint(1, 5), size, item_id=f"v{i}"))
    return items


#: Same-instant events of mixed time types (an instant takes its first
#: event's time, a departure when one is due) and an id that leaves and
#: rejoins at one instant (departures leave before arrivals join).
TIE_HEAVY = [
    Item(0, 1.0, Fraction(1, 2), item_id="a"),
    Item(Fraction(1), 3, Fraction(1, 3), item_id="b"),
    Item(1, 2, Fraction(1, 2), item_id="c"),
    Item(0, 2, Fraction(2, 3), item_id="x"),
    Item(2, 4, Fraction(1, 4), item_id="x"),
    Item(2, Fraction(5, 2), Fraction(5, 6), item_id="d"),
    Item(0.5, 2.5, 0.25, item_id="e"),
]

SWEEP_TRACES = [
    *(pytest.param(float_trace(seed), 1, id=f"float-{seed}") for seed in range(3)),
    pytest.param(TIE_HEAVY, 1, id="tie-heavy"),
    pytest.param(TIE_HEAVY, Fraction(3, 2), id="tie-heavy-3/2"),
    *(pytest.param(vector_trace(seed), Resources(1, 1), id=f"2d-{seed}") for seed in range(2)),
]


class TestSnapshotSweeps:
    @pytest.mark.parametrize("items,capacity", SWEEP_TRACES)
    def test_sweeps_match_the_kernel_grouping(self, items, capacity):
        times, counts = caller_unit_profile(items, capacity, ffd_bin_count)
        assert_same_profile(snapshot_profile(items, capacity), (times, counts))
        assert_same_number(
            opt_total_ffd_upper_bound(items, capacity=capacity), integrate(times, counts)
        )
        if not isinstance(capacity, Resources):  # L2 is a scalar bound
            l2_profile = caller_unit_profile(items, capacity, l2_lower_bound)
            assert_same_number(
                opt_total_l2_lower_bound(items, capacity=capacity), integrate(*l2_profile)
            )

    @SETTINGS
    @given(trace=exact_traces())
    def test_ffd_profile_and_bracket_match_caller_units(self, trace):
        capacity, items = trace
        times, counts = caller_unit_profile(items, capacity, ffd_bin_count)
        assert snapshot_profile(items, capacity) == (times, counts)
        _, l2_counts = caller_unit_profile(items, capacity, l2_lower_bound)
        bracket = opt_bracket(items, capacity=capacity, include_l2=True)
        assert bracket.ffd_ub == integrate(times, counts)
        assert type(bracket.ffd_ub) is type(integrate(times, counts))
        assert bracket.l2_lb == integrate(times, l2_counts)
        assert type(bracket.l2_lb) is type(integrate(times, l2_counts))

    @SETTINGS
    @given(trace=exact_traces(max_items=12))
    def test_exact_profile_matches_caller_units(self, trace):
        capacity, items = trace
        assert snapshot_profile(items, capacity, method="exact") == caller_unit_profile(
            items, capacity, exact_bin_count
        )

    def test_search_limit_is_reached_at_the_same_node(self):
        items = make_items([(0, 1, Fraction(k, 29)) for k in (7, 8, 9, 10, 11, 12, 13, 14)])
        with pytest.raises(SearchLimitReached) as scaled:
            snapshot_profile(items, method="exact", node_limit=3)
        with pytest.raises(SearchLimitReached) as unscaled:
            exact_bin_count([it.size for it in items], node_limit=3)
        assert str(scaled.value) == str(unscaled.value)

    def test_oversize_sweep_raises_in_caller_units(self):
        items = make_items([(0, 2, Fraction(1, 3)), (1, 2, Fraction(4, 3))])
        with pytest.raises(ValueError, match=r"^size 4/3 exceeds capacity 1$"):
            snapshot_profile(items)


# ------------------------------------------------------------ bound sums


def demand_by_fractions(items: list[Item]) -> Any:
    """The demand sum in the caller's units: one ``s(r)·len(I(r))`` per item."""
    total: Any = 0
    for it in items:
        total = total + it.size * (it.departure - it.arrival)
    return total


def pointwise_by_fractions(items: list[Item], capacity: Any) -> Any:
    """``∫ ⌈load(t)/W⌉ dt`` on loads summed in the caller's units."""
    deltas: dict[Any, Any] = {}
    for it in items:
        deltas[it.arrival] = deltas.get(it.arrival, 0) + it.size
        deltas[it.departure] = deltas.get(it.departure, 0) - it.size
    times = sorted(deltas)
    loads, running = [], 0
    for t in times:
        running = running + deltas[t]
        loads.append(running)
    loads[-1] = 0
    total: Any = 0
    for i in range(len(times) - 1):
        needed = robust_ceil(quotient(loads[i], capacity))
        if needed:
            total = total + needed * (times[i + 1] - times[i])
    return total


def assert_same_number(got: Any, expected: Any) -> None:
    assert got == expected
    assert type(got) is type(expected)


def assert_bounds_match_fractions(items: list[Item], capacity: Any) -> None:
    assert_same_number(total_demand(items), demand_by_fractions(items))
    assert_same_number(trace_stats(items).total_demand, demand_by_fractions(items))
    assert_same_number(
        demand_lower_bound(items, capacity=capacity, cost_rate=3),
        quotient(3 * demand_by_fractions(items), capacity),
    )
    assert_same_number(
        pointwise_lower_bound(items, capacity=capacity, cost_rate=3),
        3 * pointwise_by_fractions(items, capacity),
    )


class TestBoundSums:
    """``total_demand`` and ``pointwise_lower_bound`` sum on the lattice
    for exact traces, equal in value and type to the sums in caller units."""

    @SETTINGS
    @given(trace=exact_traces())
    def test_exact_traces_match_the_fraction_sums(self, trace):
        capacity, items = trace
        assert_bounds_match_fractions(items, capacity)

    @pytest.mark.parametrize("capacity", CAPACITIES)
    @pytest.mark.parametrize(
        "times",
        [
            [(0, 3), (1, 4), (2, 9), (2, 3)],
            [(Fraction(1, 2), 3), (1, Fraction(7, 3)), (2, 9), (Fraction(5, 2), Fraction(11, 4))],
            [(0.5, 3.25), (1.0, 4.1), (2, 9.3), (2.5, 3)],
        ],
        ids=["int-times", "fraction-times", "float-times"],
    )
    @pytest.mark.parametrize(
        "sizes",
        [
            [1, 1, 1, 1],
            [Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 6)],
            [0.25, 0.5, 0.75, 0.125],
        ],
        ids=["int-sizes", "fraction-sizes", "float-sizes"],
    )
    def test_every_number_type_matches_the_fraction_sums(self, capacity, times, sizes):
        items = make_items([(a, d, s) for (a, d), s in zip(times, sizes)])
        assert_bounds_match_fractions(items, capacity)

    def test_all_int_pointwise_bound_takes_exact_ceilings(self):
        # D = 1: a float ratio 1.0000000001 would be snapped down to 1.
        sizes = (5 * 10**9, 5 * 10**9 + 1)
        ints = make_items([(0, 1, s) for s in sizes])
        fractions = make_items([(0, 1, Fraction(s)) for s in sizes])
        bound = pointwise_lower_bound(ints, capacity=10**10)
        assert_same_number(bound, 2)
        assert bound == pointwise_lower_bound(fractions, capacity=Fraction(10**10))
        demand = demand_lower_bound(ints, capacity=10**10)
        assert_same_number(demand, Fraction(10**10 + 1, 10**10))
        assert bound >= demand  # the pointwise bound dominates (b.1)

    def test_a_load_that_needs_no_bin_adds_nothing(self):
        # Loads within float rounding of 0 need no bin (robust_ceil), so
        # [1, 2) adds nothing: not even a float zero, which would turn the
        # int total into a float.
        items = make_items([(0, 1, 0.5), (1, 1.5, 1e-12), (1.5, 2, 1e-12), (2, 3, 0.5)])
        assert_same_number(pointwise_lower_bound(items), pointwise_by_fractions(items, 1))
        assert_same_number(pointwise_lower_bound(items), 2)

    def test_a_breakpoint_the_load_passes_unchanged_is_kept(self):
        # At 1/2 one session hands its load to another: the breakpoint stays,
        # so the sum is taken over Fraction lengths and is a Fraction.
        half = Fraction(1, 2)
        items = make_items([(0, half, half), (half, 2, half), (0, 2, Fraction(1, 4))])
        assert_same_number(pointwise_lower_bound(items), pointwise_by_fractions(items, 1))
        assert_same_number(pointwise_lower_bound(items), Fraction(2))

    def test_all_int_demand_bound_is_exact(self):
        bracket = opt_bracket(make_items([(0, 2, 1), (0, 2, 1), (1, 3, 2)]), capacity=2)
        assert_same_number(bracket.demand_lb, Fraction(4))
        assert bracket.lower == 4 and isinstance(bracket.lower, (int, Fraction))

    def test_float_times_keep_the_direct_sum(self):
        # On the lattice (D = 7) this float sum would end one ulp higher.
        items = make_items(
            [(0, 0.3, Fraction(2, 7)), (0, 0.1, Fraction(5, 7)), (0, 0.7, Fraction(1, 7))]
        )
        assert total_demand(items) == 0.2571428571428571
        assert_same_number(total_demand(items), demand_by_fractions(items))

    def test_vector_traces_keep_the_direct_sum(self):
        items = make_items(
            [
                (0, 3, Resources(Fraction(1, 3), Fraction(1, 2))),
                (1, Fraction(9, 2), Resources(Fraction(2, 3), Fraction(1, 4))),
            ]
        )
        assert_same_number(total_demand(items), demand_by_fractions(items))
        projections = [
            pointwise_by_fractions(
                [Item(it.arrival, it.departure, it.size[d], it.item_id) for it in items], 1
            )
            for d in range(2)
        ]
        assert_same_number(dominance_lower_bound(items), max(projections))
