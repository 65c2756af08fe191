"""The simulator's replay round-trip guarantee.

``result.items`` preserves arrival issue order, so feeding them back into
:func:`simulate` with the same deterministic algorithm must reproduce the
identical packing — assignments, bins, costs.  This is what lets the
adversarial constructions be replayed faithfully against other algorithms.
Record-mode :func:`simulate` lists the caller's own item objects in that
order; a step-driven :class:`Simulator` ends each session at its
departure or failure instant.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro import BestFit, FirstFit, ModifiedFirstFit, Simulator, WorstFit, simulate
from repro.adversaries import run_theorem1_adversary, run_theorem2_adversary
from repro.algorithms.base import OPEN_NEW
from repro.core.item import Item, make_items
from repro.renting import BoundedRepacker
from repro.workloads.trace import Trace
from tests.conftest import exact_items


def _assert_same(a, b):
    assert a.assignment == b.assignment
    assert a.total_cost() == b.total_cost()
    assert [(r.opened_at, r.closed_at, r.item_ids) for r in a.bins] == [
        (r.opened_at, r.closed_at, r.item_ids) for r in b.bins
    ]


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_replay_of_replay_is_identity(items):
    for algo_cls in (FirstFit, BestFit, WorstFit, ModifiedFirstFit):
        first = simulate(items, algo_cls())
        second = simulate(first.items, algo_cls())
        _assert_same(first, second)


def test_adaptive_theorem1_replays_exactly():
    out = run_theorem1_adversary(BestFit(), k=5, mu=4)
    replayed = simulate(out.result.items, BestFit(), capacity=1)
    _assert_same(out.result, replayed)


def test_adaptive_theorem2_replays_exactly():
    out = run_theorem2_adversary(k=3, mu=2, n_iterations=2, compute_opt=False)
    replayed = simulate(out.result.items, BestFit(), capacity=1)
    _assert_same(out.result, replayed)


def test_incremental_out_of_order_ids_still_roundtrip():
    """Items issued at the same instant keep issue order through finish()."""
    sim = Simulator(FirstFit())
    for i in (3, 1, 2, 0):  # deliberately shuffled ids
        sim.arrive(0, 0.3, item_id=f"z{i}")
    for i in (0, 1, 2, 3):  # departures must advance in time
        sim.depart(f"z{i}", 5 + i)
    result = sim.finish()
    assert [it.item_id for it in result.items] == ["z3", "z1", "z2", "z0"]
    replayed = simulate(result.items, FirstFit())
    _assert_same(result, replayed)


# ------------------------------------------------- the record-mode contract


def _float_items():
    # Unsorted, with arrival ties: the stable sort keeps b before e.
    return make_items(
        [(3, 7, 0.5), (1, 4, 0.25), (0, 2, 0.75), (5, 9, 0.5), (1, 6, 0.5), (2, 3, 0.125)]
    )


def _exact_items_unsorted():
    return make_items(
        [(4, 9, Fraction(1, 3)), (0, 5, Fraction(1, 2)), (0, 2, Fraction(1, 6)),
         (2, 8, Fraction(2, 3)), (1, 3, 1)]
    )


def _arrival_order(items):
    return sorted(items, key=lambda it: it.arrival)


@pytest.mark.parametrize(
    "items, feed",
    [
        (_float_items(), list),
        (_float_items(), lambda items: Trace(items=tuple(items))),
        (_arrival_order(_float_items()), iter),
        (_exact_items_unsorted(), list),
    ],
    ids=["float-list", "trace", "iterator", "exact-lattice"],
)
def test_simulate_lists_the_callers_items(items, feed):
    result = simulate(feed(items), FirstFit())
    expected = _arrival_order(items)
    assert len(result.items) == len(expected)
    assert all(got is item for got, item in zip(result.items, expected))


@pytest.mark.parametrize("unit", [0.125, Fraction(1, 8)], ids=["float", "exact"])
def test_simulate_with_a_repacker_lists_the_callers_items(unit):
    items = make_items(
        [(i // 2, i // 2 + 2 + i % 5, unit * (1 + i % 4)) for i in range(40)]
    )[::-1]
    repacker = BoundedRepacker(1)
    result = simulate(items, FirstFit(), repacker=repacker)
    assert repacker.migrations_done > 0
    assert all(got is item for got, item in zip(result.items, _arrival_order(items)))
    assert len(result.items) == len(items)


def test_finish_ends_each_session_at_its_departure_or_failure():
    sim = Simulator(FirstFit())
    sim.arrive(0, 0.5, item_id="a")
    sim.arrive(1, 0.5, item_id="b", tag="phase-1")
    sim.arrive(1, 0.75, item_id="c")
    sim.migrate("b", OPEN_NEW, time=2)
    sim.depart("a", 3)
    sim.fail_bin(sim.bin_of("c"), 4)
    sim.arrive(4, 0.25, item_id="d")
    sim.depart("b", 5)
    sim.depart("d", 6)
    result = sim.finish()
    assert result.items == (
        Item(0, 3, 0.5, "a"),
        Item(1, 5, 0.5, "b", "phase-1"),
        Item(1, 4, 0.75, "c"),
        Item(4, 6, 0.25, "d"),
    )
    assert [(b.opened_at, b.closed_at) for b in result.bins] == [(0, 3), (1, 4), (2, 6)]
    assert result.assignment == {"a": 0, "b": 2, "c": 1, "d": 2}
