"""Tests for the finite-fleet admission-control engine."""

import heapq
import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BestFit, FirstFit, Item, make_items, simulate
from repro.algorithms.base import OPEN_NEW, Arrival
from repro.cloud import ServerType, serve_with_fleet_limit
from repro.cloud.finite_fleet import FiniteFleetDispatcher, QueueingReport
from repro.core.bin import Bin
from repro.core.validation import DuplicateItemIdError, OversizedItemError
from repro.workloads import generate_gaming_trace
from tests.conftest import exact_items


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            FiniteFleetDispatcher(FirstFit(), fleet_limit=0)
        with pytest.raises(ValueError):
            FiniteFleetDispatcher(FirstFit(), fleet_limit=2, policy="teleport")


class TestQueueing:
    def test_no_contention_no_waits(self):
        items = make_items([(0, 2, 0.5), (3, 5, 0.5)])
        rep = serve_with_fleet_limit(items, FirstFit(), fleet_limit=1)
        assert rep.num_served == 2
        assert rep.mean_wait == 0
        assert rep.queue_rate == 0

    def test_contention_queues_fifo(self):
        # One server; three simultaneous full-size sessions of length 2:
        # they serialise at 0, 2, 4.
        items = make_items([(0, 2, 1.0), (0, 2, 1.0), (0, 2, 1.0)], prefix="h")
        rep = serve_with_fleet_limit(items, FirstFit(), fleet_limit=1)
        assert rep.num_served == 3
        assert sorted(float(w) for w in rep.waits) == [0.0, 2.0, 4.0]
        assert rep.max_wait == 4.0
        assert rep.queue_rate == pytest.approx(2 / 3)

    def test_queued_session_keeps_full_duration(self):
        # Second session admits at t=2 and must still run 5 time units.
        items = make_items([(0, 2, 1.0), (0, 5, 1.0)], prefix="h")
        rep = serve_with_fleet_limit(items, FirstFit(), fleet_limit=1)
        # Server busy [0,2] then [2,7]: one bin record? Bin closes at 2 and
        # the queued item opens a new bin instant later: total cost 2+5.
        assert float(rep.total_cost) == pytest.approx(7.0)

    def test_head_of_line_blocking(self):
        # h1 (0.5) and h2 (1.0) cannot fit beside the long 0.6 resident and
        # queue; h3 (0.2) fits and is admitted on arrival.  When h3 leaves
        # at 1.5 the head h1 still does not fit, so h2 behind it is not
        # tried: h1 is admitted at 10, and h2 only after h1 leaves at 11.
        items = make_items(
            [(0, 10, 0.6), (1, 2, 0.5), (1, 3, 1.0), (1, 1.5, 0.2)], prefix="h"
        )
        rep = serve_with_fleet_limit(items, FirstFit(), fleet_limit=1)
        assert rep.num_served == 4
        assert [float(w) for w in rep.waits] == [0.0, 0.0, 9.0, 10.0]

    def test_an_arrival_that_fits_is_admitted_ahead_of_the_queue(self):
        # The kernel offers each arrival to the fleet before the queue: the
        # third request fits beside the 0.6 resident at t=2, while the
        # second (queued at t=1) waits for the resident to leave at 10.
        items = make_items([(0, 10, 0.6), (1, 2, 0.5), (2, 3, 0.3)])
        kernel, reference = _both(
            items, FirstFit, fleet_limit=1, server_type=ServerType(), policy="queue"
        )
        assert kernel == reference
        assert kernel.waits == [0, 0, 9]

    def test_unlimited_fleet_matches_simulator_cost(self, gaming_trace):
        rep = serve_with_fleet_limit(
            gaming_trace.items, FirstFit(), fleet_limit=10_000
        )
        unlimited = simulate(gaming_trace.items, FirstFit())
        assert rep.mean_wait == 0
        assert float(rep.total_cost) == pytest.approx(float(unlimited.total_cost()))
        assert rep.peak_servers == unlimited.max_bins_used

    def test_gaming_day_under_a_cap_of_30(self, gaming_trace_day):
        rep = serve_with_fleet_limit(gaming_trace_day.items, FirstFit(), fleet_limit=30)
        assert rep.peak_servers <= 30
        assert rep.num_served == len(gaming_trace_day)


class TestDropping:
    def test_drop_policy_counts(self):
        items = make_items([(0, 2, 1.0), (0, 2, 1.0), (0, 2, 1.0)], prefix="h")
        rep = serve_with_fleet_limit(items, FirstFit(), fleet_limit=1, policy="drop")
        assert rep.num_served == 1
        assert rep.num_dropped == 2
        assert rep.drop_rate == pytest.approx(2 / 3)

    def test_drop_rate_decreases_with_fleet(self, gaming_trace):
        rates = [
            serve_with_fleet_limit(
                gaming_trace.items, FirstFit(), fleet_limit=lim, policy="drop"
            ).drop_rate
            for lim in (3, 10, 100)
        ]
        assert rates[0] > rates[1] > rates[2] == 0.0


class TestReport:
    def test_billed_at_least_continuous(self, gaming_trace):
        rep = serve_with_fleet_limit(
            gaming_trace.items,
            BestFit(),
            fleet_limit=12,
            server_type=ServerType(billing_quantum=60.0),
        )
        assert rep.billed_cost >= rep.total_cost
        assert rep.fleet_limit == 12
        assert rep.peak_servers <= 12


@given(exact_items(max_items=15))
@settings(max_examples=40, deadline=None)
def test_fleet_cap_is_never_violated(items):
    for limit in (1, 2, 3):
        rep = serve_with_fleet_limit(items, FirstFit(), fleet_limit=limit)
        assert rep.peak_servers <= limit
        assert rep.num_served == len(items)
        assert all(w >= 0 for w in rep.waits)


@given(exact_items(max_items=15))
@settings(max_examples=30, deadline=None)
def test_looser_fleet_never_serves_fewer(items):
    tight = serve_with_fleet_limit(items, FirstFit(), fleet_limit=1, policy="drop")
    loose = serve_with_fleet_limit(items, FirstFit(), fleet_limit=5, policy="drop")
    assert loose.num_served >= tight.num_served


class TestOversizedRejection:
    """Requests demanding more than one server's capacity get a typed
    rejection up front — under both admission policies."""

    @pytest.mark.parametrize("policy", ["queue", "drop"])
    def test_oversized_request_raises(self, policy):
        items = make_items([(0, 2, 0.5)]) + [
            Item(arrival=1, departure=3, size=2.0, item_id="whale")
        ]
        with pytest.raises(OversizedItemError) as exc:
            serve_with_fleet_limit(
                items, FirstFit(), fleet_limit=4, policy=policy
            )
        assert exc.value.item_id == "whale"
        assert exc.value.size == 2.0
        assert exc.value.capacity == 1.0

    def test_rejection_happens_before_any_service(self):
        algorithm = _Recording()
        items = [
            Item(arrival=0, departure=1, size=0.5, item_id="minnow"),
            Item(arrival=2, departure=3, size=5.0, item_id="whale"),
        ]
        with pytest.raises(OversizedItemError):
            FiniteFleetDispatcher(algorithm, fleet_limit=2).serve(items)
        assert algorithm.queried == []

    def test_oversized_is_still_a_value_error(self):
        items = [Item(arrival=0, departure=1, size=9.0, item_id="whale")]
        with pytest.raises(ValueError, match="capacity"):
            serve_with_fleet_limit(items, FirstFit(), fleet_limit=1, policy="drop")

    def test_custom_capacity_respected(self):
        big = ServerType(gpu_capacity=4.0)
        items = [Item(arrival=0, departure=1, size=3.5, item_id="ok")]
        rep = serve_with_fleet_limit(
            items, FirstFit(), fleet_limit=1, server_type=big
        )
        assert rep.num_served == 1


class _Recording(FirstFit):
    """First Fit that records every placement query, on either path."""

    def __init__(self) -> None:
        super().__init__()
        self.queried: list[str] = []

    def choose_bin(self, item, open_bins):
        self.queried.append(item.item_id)
        return super().choose_bin(item, open_bins)

    def choose_bin_indexed(self, item, index):
        self.queried.append(item.item_id)
        return super().choose_bin_indexed(item, index)


class TestDuplicateIds:
    """A repeated id is a trace error, raised before any request is served."""

    @pytest.mark.parametrize(
        "second",
        [
            # Overlaps the first copy and fits beside it in one server.
            Item(arrival=1, departure=3, size=0.25, item_id="dup"),
            # Arrives after the first copy has left.
            Item(arrival=5, departure=6, size=0.25, item_id="dup"),
        ],
    )
    @pytest.mark.parametrize("policy", ["queue", "drop"])
    def test_repeated_id_raises_up_front(self, second, policy):
        algorithm = _Recording()
        items = [Item(arrival=0, departure=2, size=0.5, item_id="dup"), second]
        with pytest.raises(DuplicateItemIdError) as exc:
            serve_with_fleet_limit(items, algorithm, fleet_limit=2, policy=policy)
        assert exc.value.item_id == "dup"
        assert algorithm.queried == []


# ----------------------------------------------------------------- oracle


class _ReferenceFleet:
    """The capped fleet's own event loop, before it ran on the event kernel.

    A private departure heap keyed ``(time, admission number)``, a list
    scan over the open servers in opening order, FIFO re-admission after
    every departure, and costs summed over the servers in opening order.
    Requests are assumed valid (no oversize, no repeated id).
    """

    def __init__(self, algorithm, *, fleet_limit, server_type, policy):
        self.algorithm = algorithm
        self.fleet_limit = fleet_limit
        self.server_type = server_type
        self.policy = policy
        self.open: list[Bin] = []
        self.all: list[Bin] = []
        self.heap: list = []
        self.queue: deque[Item] = deque()
        self.waits: list = []
        self.served = self.dropped = self.peak = self.admitted = 0
        algorithm.reset(server_type.gpu_capacity)

    def try_place(self, item: Item, now) -> bool:
        view = Arrival(item_id=item.item_id, size=item.size, arrival=now, tag=item.tag)
        choice = self.algorithm.choose_bin(view, self.open)
        if choice is OPEN_NEW or choice is None:
            if len(self.open) >= self.fleet_limit:
                return False
            target = Bin(index=len(self.all), capacity=self.server_type.gpu_capacity)
            target.add(view, now)
            self.open.append(target)
            self.all.append(target)
            self.algorithm.on_bin_opened(target, view)
        else:
            target = choice
            assert target.fits(view)
            target.add(view, now)
        self.peak = max(self.peak, len(self.open))
        self.admitted += 1
        heapq.heappush(self.heap, (now + item.length, self.admitted, item.item_id, target))
        self.waits.append(now - item.arrival)
        self.served += 1
        return True

    def drain(self, until) -> None:
        while self.heap and self.heap[0][0] <= until:
            time, _, item_id, target = heapq.heappop(self.heap)
            target.remove(item_id, time)
            if target.is_closed:
                self.open.remove(target)
            self.algorithm.on_item_departed(item_id, target)
            while self.queue and self.try_place(self.queue[0], time):
                self.queue.popleft()

    def serve(self, items) -> QueueingReport:
        requests = sorted(items, key=lambda it: (it.arrival, it.item_id))
        for item in requests:
            self.drain(item.arrival)
            if not self.try_place(item, item.arrival):
                if self.policy == "queue":
                    self.queue.append(item)
                else:
                    self.dropped += 1
        while self.heap:
            self.drain(self.heap[0][0])
        assert not self.queue
        continuous = self.server_type.continuous_model()
        billed = self.server_type.billed_model()
        total = billed_total = 0
        for b in self.all:
            total = total + continuous.bin_cost(b.usage_length)
            billed_total = billed_total + billed.bin_cost(b.usage_length)
        return QueueingReport(
            fleet_limit=self.fleet_limit,
            policy=self.policy,
            num_requests=len(requests),
            num_served=self.served,
            num_dropped=self.dropped,
            total_cost=total,
            billed_cost=billed_total,
            peak_servers=self.peak,
            waits=self.waits,
        )


def _both(items, algorithm, *, fleet_limit, server_type, policy):
    """``(kernel report, reference report)`` for one configuration."""
    kernel = serve_with_fleet_limit(
        items, algorithm(), fleet_limit=fleet_limit, server_type=server_type, policy=policy
    )
    reference = _ReferenceFleet(
        algorithm(), fleet_limit=fleet_limit, server_type=server_type, policy=policy
    ).serve(items)
    return kernel, reference


_CAPS = (1, 3, 5, 10, 20, 40, 1000)
_BILLING = (ServerType(billing_quantum=60.0), ServerType(billing_quantum=None))


@pytest.mark.parametrize("horizon", [6 * 60.0, 12 * 60.0])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_fleet_matches_the_reference_loop(seed, horizon):
    """Counts, peaks and waits are equal on every case; a float cost may
    move in its last ulp, since the engine sums usage in closing order."""
    items = generate_gaming_trace(seed=seed, horizon=horizon).items
    queued_somewhere = False
    for algorithm in (FirstFit, BestFit):
        for cap in _CAPS:
            for policy in ("queue", "drop"):
                for server_type in _BILLING:
                    kernel, reference = _both(
                        items,
                        algorithm,
                        fleet_limit=cap,
                        server_type=server_type,
                        policy=policy,
                    )
                    case = (algorithm.__name__, cap, policy, server_type.billing_quantum)
                    assert kernel.num_requests == reference.num_requests, case
                    assert kernel.num_served == reference.num_served, case
                    assert kernel.num_dropped == reference.num_dropped, case
                    assert kernel.peak_servers == reference.peak_servers, case
                    assert kernel.waits == reference.waits, case
                    for got, want in (
                        (kernel.total_cost, reference.total_cost),
                        (kernel.billed_cost, reference.billed_cost),
                    ):
                        assert math.isclose(got, want, rel_tol=1e-12), case
                    queued_somewhere = queued_somewhere or kernel.max_wait > 0
    assert queued_somewhere  # the grid reaches the queue, not just the cap


@st.composite
def tie_heavy_items(draw, max_items: int = 24):
    """Fraction items on a coarse grid: many equal arrivals and departures."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    items = []
    for i in range(n):
        a = Fraction(draw(st.integers(min_value=0, max_value=6)), 2)
        length = Fraction(draw(st.integers(min_value=1, max_value=4)), 2)
        size = Fraction(draw(st.integers(min_value=1, max_value=6)), 6)
        items.append(Item(arrival=a, departure=a + length, size=size, item_id=f"t{i:02d}"))
    order = draw(st.permutations(range(n)))
    return [items[i] for i in order]


@given(
    tie_heavy_items(),
    st.sampled_from([FirstFit, BestFit]),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["queue", "drop"]),
    st.sampled_from([None, 2]),
)
@settings(max_examples=150, deadline=None)
def test_kernel_fleet_matches_the_reference_loop_exactly(
    items, algorithm, cap, policy, quantum
):
    server_type = ServerType(gpu_capacity=1, rate=Fraction(3, 2), billing_quantum=quantum)
    kernel, reference = _both(
        items, algorithm, fleet_limit=cap, server_type=server_type, policy=policy
    )
    assert kernel == reference
