"""Property and differential tests for the migration-bounded engine.

Four families of guarantees:

* **Billing exactness** (hypothesis): after any sequence of
  budget-respecting migrations, the billed cost equals the integral of
  open-bin time *exactly* (Fraction arithmetic), every server is settled
  exactly once (no double-billing across moves), and a
  checkpoint-interrupted migrating run resumes byte-identically.
* **Degenerate identities** (differential): each renting-family algorithm
  at its degenerate parameters byte-equals its closest Any Fit
  counterpart — same assignments, same :class:`StreamSummary`, same JSON
  artifact — on a shared seeded corpus.
* **β = 0 transparency**: a zero-budget repacker is byte-invisible.
* **Reference planner** (differential): the shipped evacuation search,
  which prunes sources that cannot move, makes every move the full
  search makes, on scalar and 2-D traces, in caller units and on the
  integer lattice.
* **Kept plans**: every evacuation plan the repacker keeps belongs to an
  open bin of the running simulator and equals the plan computed afresh,
  after every event of fresh, reused, interrupted and resumed runs.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BestFit, FirstFit, NextFit, get_algorithm
from repro.cloud.dispatcher import ServerType, dispatch_stream
from repro.core.checkpoint import StreamCheckpoint
from repro.core.item import Item
from repro.core.resources import Resources, scalarize_max
from repro.core.simulator import simulate
from repro.core.streaming import simulate_stream
from repro.core.telemetry import SimulationObserver
from repro.renting import BoundedRepacker, EqualDurationFit, Hybrid, MoveToFront
from repro.renting.repack import _Plan
from tests.conftest import build_items, exact_items
from tests.ratio_harness import generate_general_regime


def _stream_order(items):
    return sorted(items, key=lambda it: (it.arrival, it.item_id))


class _RentalLedger(SimulationObserver):
    """Independent open/close ledger: one entry per bin rental period.

    Tracks every bin's open instant through arrivals *and* migrations and
    settles it at the closing event, whichever kind that is; the summed
    periods are the integral of open-bin count over time, computed without
    touching the engine's own accounting.
    """

    def __init__(self):
        self.open: dict[int, object] = {}
        self.periods: list[tuple] = []  # (opened_at, closed_at, usage)
        self.settlements = 0

    def on_arrival(self, time, item, bin, opened):
        if opened:
            self.open[bin.index] = time

    def _settle(self, time, bin):
        self.periods.append((self.open.pop(bin.index), time, bin.usage_length))
        self.settlements += 1

    def on_departure(self, time, item_id, bin, closed):
        if closed:
            self._settle(time, bin)

    def on_migration(self, time, item, from_bin, to_bin, from_closed, to_opened):
        if to_opened:
            self.open[to_bin.index] = time
        if from_closed:
            self._settle(time, from_bin)

    @property
    def integral(self):
        """∫ (open-bin count) dt = Σ rental-period lengths."""
        total = 0
        for opened_at, closed_at, _ in self.periods:
            total = total + (closed_at - opened_at)
        return total


# ---------------------------------------------------------------------------
# Billing exactness under migration (hypothesis)


@given(exact_items())
@settings(max_examples=60, deadline=None)
def test_migrated_cost_is_exactly_the_open_bin_time_integral(items):
    """Billed cost after budget-respecting migrations = ∫ open-bin dt,
    Fraction-exact, with every rental period settled exactly once."""
    ledger = _RentalLedger()
    summary = simulate_stream(
        iter(_stream_order(items)),
        FirstFit(),
        repacker=BoundedRepacker(factor=1),
        observers=(ledger,),
    )
    assert not ledger.open, "a bin was never settled"
    assert summary.total_cost == ledger.integral
    assert isinstance(summary.total_cost, (int, Fraction))
    # Each rental period's engine-side usage agrees with the ledger's.
    for opened_at, closed_at, usage in ledger.periods:
        assert usage == closed_at - opened_at
    assert ledger.settlements == summary.num_bins_used


def test_float_evacuation_plan_matches_bin_arithmetic_exactly():
    """Regression: the evacuation planner must score destination fits with
    the bin's own float arithmetic (``size <= capacity - (level + size)``),
    not decremented residuals — the two associate sums differently and can
    disagree by one ulp, making ``Simulator.migrate`` reject a planned
    move.  Here bin0 closes at t=1, leaving a 0.9-level source whose two
    0.45 items "fit" a 0.1-level bin under residual-decrement planning
    (0.45 <= 0.9 - 0.45) but not under bin arithmetic
    (1.0 - (0.1 + 0.45) < 0.45)."""
    from tests.conftest import build_items

    items = build_items(
        [(0, 1, 0.9), (0, 5, 0.45), (0, 5, 0.45), (0.5, 5, 0.1)]
    )
    repacker = BoundedRepacker(factor=1)
    summary = simulate_stream(
        iter(_stream_order(items)), FirstFit(), repacker=repacker
    )
    # The ulp-infeasible two-item evacuation is never planned (the old
    # planner attempted it and crashed); the two genuinely feasible
    # single-item evacuations still run.
    assert repacker.migrations_done == 2
    assert repacker.bins_emptied == 2
    assert repacker.size_moved == 1.0
    assert summary.num_items == 4 and summary.num_bins_used == 3


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_no_double_billing_across_moves(items):
    """dispatch_stream's meter settles every server exactly once whatever
    mixture of departures and consolidating moves closes it: continuous
    billing equals the engine's objective exactly, and quantised billing
    equals the independent ledger's per-period quantisation."""
    server = ServerType(gpu_capacity=1, rate=1, billing_quantum=None)
    ledger = _RentalLedger()
    report = dispatch_stream(
        iter(_stream_order(items)),
        FirstFit(),
        server_type=server,
        repacker=BoundedRepacker(factor=1),
        observers=(ledger,),
    )
    assert report.billed_cost == report.continuous_cost
    assert report.continuous_cost == report.summary.total_cost
    assert ledger.settlements == report.num_servers_rented

    quantised = ServerType(gpu_capacity=1, rate=1, billing_quantum=Fraction(5))
    ledger2 = _RentalLedger()
    report2 = dispatch_stream(
        iter(_stream_order(items)),
        FirstFit(),
        server_type=quantised,
        repacker=BoundedRepacker(factor=1),
        observers=(ledger2,),
    )
    model = quantised.billed_model()
    expected = 0
    for _, _, usage in ledger2.periods:
        expected = expected + model.bin_cost(usage)
    assert report2.billed_cost == expected


class _Crash(Exception):
    """Stands for a process dying mid-run."""


def _crash_at(events: int):
    """An ``on_checkpoint`` sink that dies at the checkpoint after ``events``."""

    def sink(checkpoint: StreamCheckpoint) -> None:
        if checkpoint.events_processed >= events:
            raise _Crash(events)

    return sink


class _AuditedRepacker(BoundedRepacker):
    """A repacker that checks its kept plans after every event: each
    belongs to an open bin of the running simulator and equals the plan
    computed afresh from that bin.  Checkpoints ship after the hooks, so
    this holds at every checkpoint."""

    def after_arrival(self, sim, item, bin):
        super().after_arrival(sim, item, bin)
        self._audit(sim)

    def after_departure(self, sim, item_id, bin):
        super().after_departure(sim, item_id, bin)
        self._audit(sim)

    def _audit(self, sim):
        open_bins = set(sim.open_bins)
        for b, plan in self._plans.items():
            assert b in open_bins, f"plan kept for bin {b.index}, which is not open"
            assert plan == _Plan.of(b), f"bin {b.index} changed since its plan"


@given(exact_items(max_items=18), st.integers(min_value=0, max_value=2))
@settings(max_examples=25, deadline=None)
def test_checkpoint_resume_mid_migration_is_byte_identical(items, which):
    """Interrupt a migrating run at a checkpoint (JSON round-tripped) and
    resume it twice: with a fresh repacker of the same configuration, and
    with the repacker that ran an attempt which died at the next
    checkpoint (the last one, if there is no next).  The final summary
    and every post-resume checkpoint byte-equal the uninterrupted run's,
    and the reused repacker keeps plans only of the resumed run's open
    bins."""
    stream = _stream_order(items)

    def run(repacker=None, **kwargs):
        return simulate_stream(
            iter(stream),
            FirstFit(),
            repacker=repacker or BoundedRepacker(factor=1),
            **kwargs,
        )

    base_cps: list[StreamCheckpoint] = []
    base = run(checkpoint_every=4, on_checkpoint=base_cps.append)
    if not base_cps:
        return  # trace too short to checkpoint; nothing to interrupt
    pick = min(which * (len(base_cps) // 2), len(base_cps) - 1)
    snap = StreamCheckpoint.from_json(base_cps[pick].to_json())
    attempt = _AuditedRepacker(factor=1)
    dies_at = base_cps[min(pick + 1, len(base_cps) - 1)].events_processed
    with pytest.raises(_Crash):
        run(attempt, checkpoint_every=4, on_checkpoint=_crash_at(dies_at))
    for repacker in (BoundedRepacker(factor=1), attempt):
        resumed_cps: list[StreamCheckpoint] = []
        resumed = run(
            repacker, checkpoint_every=4, on_checkpoint=resumed_cps.append, resume_from=snap
        )
        assert resumed == base == run()
        assert [c.to_json() for c in resumed_cps] == [
            c.to_json() for c in base_cps[pick + 1 :]
        ]


@pytest.mark.parametrize("factor", [-1, Fraction(-1, 2), float("nan")])
def test_invalid_migration_factor_rejected(factor):
    with pytest.raises(ValueError, match="migration factor"):
        BoundedRepacker(factor)


# ---------------------------------------------------------------------------
# Degenerate identities: renting families vs their Any Fit counterparts

CORPUS = [_stream_order(generate_general_regime(seed, n=30)) for seed in range(6)]

PAIRS = [
    pytest.param(lambda: Hybrid(threshold=Fraction(1)), FirstFit, id="hybrid(1)=FF"),
    pytest.param(lambda: Hybrid(threshold=Fraction(0)), NextFit, id="hybrid(0)=NF"),
    pytest.param(
        lambda: MoveToFront(move_to_front=False), FirstFit, id="mtf(static)=FF"
    ),
    pytest.param(lambda: EqualDurationFit(window=None), FirstFit, id="edf(∞)=FF"),
]


def _assignments(items, algorithm):
    result = simulate(items, algorithm)
    return {
        item_id: record.index
        for record in result.bins
        for _, item_id in record.assignments
    }


def _artifact(summary):
    """A JSON artifact of everything but the algorithm's display name."""
    payload = dataclasses.asdict(summary)
    payload.pop("algorithm_name")
    return json.dumps({k: repr(v) for k, v in payload.items()}, sort_keys=True)


@pytest.mark.parametrize("make_new,counterpart", PAIRS)
def test_degenerate_parameters_byte_equal_anyfit_counterpart(make_new, counterpart):
    for items in CORPUS:
        assert _assignments(items, make_new()) == _assignments(items, counterpart())
        ours = simulate_stream(iter(items), make_new())
        theirs = simulate_stream(iter(items), counterpart())
        assert dataclasses.replace(ours, algorithm_name="") == dataclasses.replace(
            theirs, algorithm_name=""
        )
        assert _artifact(ours) == _artifact(theirs)


@pytest.mark.parametrize("name", ["first-fit", "best-fit", "next-fit"])
def test_zero_budget_repacker_is_byte_invisible(name):
    """migration_budget = 0 must not perturb anything: identical summary
    (including the algorithm name) and identical JSON artifact bytes."""
    for items in CORPUS:
        plain = simulate_stream(iter(items), get_algorithm(name))
        gated = simulate_stream(
            iter(items), get_algorithm(name), repacker=BoundedRepacker(factor=0)
        )
        assert gated == plain
        assert json.dumps(dataclasses.asdict(gated), default=repr) == json.dumps(
            dataclasses.asdict(plain), default=repr
        )


# ---------------------------------------------------------------------------
# Reference planner: the shipped search vs a full plan of every source


class _ReferenceRepacker(BoundedRepacker):
    """The evacuation search with no pruning: every open bin is ordered and
    planned in full, probing ``capacity - level`` afresh for each bin."""

    def _find_evacuation(self, sim):
        bins = list(sim.open_bins)
        if len(bins) < 2:
            return None
        for source in sorted(
            bins, key=lambda b: (scalarize_max(b.level), -b.index)
        ):
            contents = sorted(
                source.items(), key=lambda v: (-scalarize_max(v.size), v.item_id)
            )
            moved = 0
            for view in contents:
                moved = moved + scalarize_max(view.size)
            if moved > self._budget:
                continue
            others = [b for b in bins if b is not source]
            levels = {b.index: b.level for b in others}
            moves = []
            feasible = True
            for view in contents:
                dest = next(
                    (
                        b
                        for b in others
                        if view.size <= b.capacity - levels[b.index]
                    ),
                    None,
                )
                if dest is None:
                    feasible = False
                    break
                levels[dest.index] = levels[dest.index] + view.size
                moves.append((view.item_id, dest))
            if feasible:
                return source, moves, moved
        return None


class _MoveLog(SimulationObserver):
    def __init__(self):
        self.moves = []

    def on_migration(self, time, item, from_bin, to_bin, from_closed, to_opened):
        self.moves.append((time, item.item_id, from_bin.index, to_bin.index))


def _random_trace(seed, size, n=70):
    rng = random.Random(f"evacuation-{seed}")
    items, clock = [], 0.0
    for i in range(n):
        clock += rng.uniform(0.0, 0.5)
        items.append(
            Item(
                arrival=clock,
                departure=clock + rng.uniform(0.5, 6.0),
                size=size(rng),
                item_id=f"e{i}",
            )
        )
    return items


def _float_size(rng):
    return rng.uniform(0.05, 0.7)


def _vector_size(rng):
    return Resources(rng.uniform(0.02, 0.6), rng.uniform(0.02, 0.6))


EVACUATION_TRACES = [
    *(
        pytest.param(generate_general_regime(seed, n=70), 1, id=f"fraction-{seed}")
        for seed in range(2)
    ),
    *(
        pytest.param(_random_trace(seed, _float_size), 1, id=f"float-{seed}")
        for seed in range(2)
    ),
    *(
        pytest.param(
            _random_trace(seed, _vector_size), Resources(1, 1), id=f"2d-{seed}"
        )
        for seed in range(2)
    ),
    pytest.param(
        build_items([(0, 1, 0.9), (0, 5, 0.45), (0, 5, 0.45), (0.5, 5, 0.1)]),
        1,
        id="float-ulp",
    ),
]


@pytest.mark.parametrize("items,capacity", EVACUATION_TRACES)
def test_evacuation_search_matches_reference_planner(items, capacity):
    """Pruned planning from kept plans makes exactly the full search's
    moves: same PackingResult, migration log and repacker counters, under
    FF and BF and β ∈ {1/4, 1, 4}.  Without observers an exact trace runs
    on the integer lattice; there the PackingResult and counters match
    too, and equal the observed run's."""
    migrated = 0
    for algorithm in (FirstFit, BestFit):
        for factor in (Fraction(1, 4), 1, 4):
            observed, unobserved = [], []
            for make in (BoundedRepacker, _ReferenceRepacker):
                repacker = make(factor)
                log = _MoveLog()
                result = simulate(
                    items,
                    algorithm(),
                    capacity=capacity,
                    repacker=repacker,
                    observers=(log,),
                )
                observed.append((result, log.moves, repacker.checkpoint_state()))
                repacker = make(factor)
                result = simulate(items, algorithm(), capacity=capacity, repacker=repacker)
                unobserved.append((result, repacker.checkpoint_state()))
            assert observed[0] == observed[1]
            assert unobserved[0] == unobserved[1]
            assert unobserved[0] == (observed[0][0], observed[0][2])
            migrated += len(observed[0][1])
    assert migrated > 0


@pytest.mark.parametrize("items,capacity", EVACUATION_TRACES)
def test_kept_plans_are_current_after_every_event(items, capacity):
    """After every event (and so at every checkpoint) the repacker keeps
    plans only for open bins, each equal to the plan computed afresh;
    none outlives the run."""
    repacker = _AuditedRepacker(1)
    simulate_stream(
        iter(_stream_order(items)), FirstFit(), capacity=capacity, repacker=repacker
    )
    assert repacker.bins_emptied > 0
    assert not repacker._plans


def test_one_repacker_reused_across_runs_matches_fresh_ones():
    """A repacker reused run after run — record mode on and off the
    lattice, streamed, and after a run that died with plans kept —
    gives the results and counters a fresh repacker gives each time."""
    traces = [param.values for param in EVACUATION_TRACES]
    reused = _AuditedRepacker(1)
    for items, capacity in traces:
        fresh = BoundedRepacker(1)
        expected = simulate(items, FirstFit(), capacity=capacity, repacker=fresh)
        assert simulate(items, FirstFit(), capacity=capacity, repacker=reused) == expected
        assert reused.checkpoint_state() == fresh.checkpoint_state()
        assert not reused._plans  # every bin closed, so nothing to unscale

        def die_holding_plans(checkpoint: StreamCheckpoint) -> None:
            if reused._plans:
                raise _Crash(checkpoint.events_processed)

        stream = _stream_order(items)
        with pytest.raises(_Crash):
            simulate_stream(
                iter(stream),
                FirstFit(),
                capacity=capacity,
                repacker=reused,
                checkpoint_every=1,
                on_checkpoint=die_holding_plans,
            )
        fresh = BoundedRepacker(1)
        expected = simulate_stream(iter(stream), FirstFit(), capacity=capacity, repacker=fresh)
        got = simulate_stream(iter(stream), FirstFit(), capacity=capacity, repacker=reused)
        assert got == expected
        assert reused.checkpoint_state() == fresh.checkpoint_state()
