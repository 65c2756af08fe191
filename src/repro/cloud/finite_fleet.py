"""Finite fleets: admission control when servers are capped.

The paper (and :mod:`repro.core.simulator`) assumes an unlimited bin
supply — the public-cloud premise.  Real deployments cap concurrent VMs
(quota, budget, a private cluster).  This module adds that regime: a
dispatcher with at most ``fleet_limit`` concurrent servers that either
**queues** a request it cannot place until capacity frees, or **drops**
it.

Semantics:

* A queued session plays for its full duration once admitted (the player
  waits in a lobby; the session shifts, it does not shrink).
* Departures at an instant are processed before arrivals.  Each departure
  drains the queue from its head: the head is re-offered, and while it is
  admitted the next one is; if the head does not fit, nothing behind it
  is tried.  The queue is FIFO among waiting requests.
* A new arrival is offered to the fleet before the queue.  An arrival
  that fits an open server is admitted at once, even while earlier
  requests wait for a server to free: with one server, First Fit and
  sessions ``(0, 10, 0.6)``, ``(1, 2, 0.5)``, ``(2, 3, 0.3)``, the third
  is admitted at 2 and the second waits until 10.
* Placement uses any online packing algorithm; ``OPEN_NEW`` is honoured
  only below the fleet cap.

The run is the event kernel of :mod:`repro.core.events` — the one loop
behind ``simulate`` and every stream — on a
:class:`~repro.core.simulator.Simulator` whose bin-opening step declines
at the cap, so placement gets the indexed First Fit / Best Fit query and
the engine's placement checks.  A kernel hook queues or drops each
refused request and, after every departure, re-offers the queue head at
that instant; an admitted head's departure goes on the kernel's heap,
since it depends on the admission time.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, cast

from ..core.numeric import Num
from ..algorithms.base import Arrival, PackingAlgorithm
from ..core.bin import Bin
from ..core.events import Entry, EventKind, _merge_events
from ..core.item import Item, validate_items
from ..core.resources import Size
from ..core.simulator import Simulator
from .dispatcher import ServerType, _BillingMeter

__all__ = ["AdmissionPolicy", "QueueingReport", "FiniteFleetDispatcher", "serve_with_fleet_limit"]

#: Admission policies.
QUEUE = "queue"
DROP = "drop"
AdmissionPolicy = str
_POLICIES = (QUEUE, DROP)


@dataclass(slots=True)
class QueueingReport:
    """Outcome of serving a trace on a capped fleet."""

    fleet_limit: int
    policy: AdmissionPolicy
    num_requests: int
    num_served: int
    num_dropped: int
    total_cost: Num  #: continuous server-time cost
    billed_cost: Num  #: under the server type's billing model
    peak_servers: int
    waits: list[Num] = field(default_factory=list)  #: per served request

    @property
    def drop_rate(self) -> float:
        return self.num_dropped / self.num_requests if self.num_requests else 0.0

    @property
    def mean_wait(self) -> float:
        return float(sum(self.waits) / len(self.waits)) if self.waits else 0.0

    @property
    def max_wait(self) -> Num:
        return max(self.waits, default=0)

    @property
    def queue_rate(self) -> float:
        """Fraction of served requests that had to wait."""
        if not self.waits:
            return 0.0
        return sum(1 for w in self.waits if w > 0) / len(self.waits)


class _CappedFleet(Simulator):
    """A simulator that declines to open a server at the fleet cap."""

    def __init__(self, algorithm: PackingAlgorithm, fleet_limit: int, **options: Any) -> None:
        super().__init__(algorithm, record=False, **options)
        self.fleet_limit = fleet_limit

    def _open_bin(self, view: Arrival, time: Num, capacity: Size | None) -> Bin | None:
        if len(self._bins) >= self.fleet_limit:
            return None
        return super()._open_bin(view, time, capacity)


class _FleetQueue:
    """The capped fleet's side of the event kernel.

    The kernel offers each request to the fleet at its arrival; one the
    cap refused is queued here (FIFO) or dropped.  After every departure
    the queue head is offered again at that instant, with its full
    duration, until one is refused; an admitted head's departure goes on
    the kernel's heap with a tiebreak drawn from the kernel's admission
    counter, so same-instant departures leave in admission order.
    """

    def __init__(self, pending: list[Entry], seqs: Iterator[int], policy: AdmissionPolicy) -> None:
        self.pending = pending
        self.seqs = seqs
        self.policy = policy
        self.waiting: deque[Item] = deque()
        self.waits: list[Num] = []  #: per served request, in admission order
        self.dropped = 0

    def after_arrival(self, sim: Simulator, item: Item, bin: Bin | None) -> None:
        if bin is not None:
            self.waits.append(cast(Num, sim.now) - item.arrival)
        elif self.policy == QUEUE:
            self.waiting.append(item)
        else:
            self.dropped += 1

    def after_departure(self, sim: Simulator, item_id: str, bin: Bin) -> None:
        now = cast(Num, sim.now)
        waiting = self.waiting
        while waiting:
            head = waiting[0]
            if sim.arrive(now, head.size, head.item_id, head.tag) is None:
                return
            waiting.popleft()
            heapq.heappush(
                self.pending,
                (now + head.length, EventKind.DEPARTURE, next(self.seqs), head.item_id),
            )
            self.waits.append(now - head.arrival)


class FiniteFleetDispatcher:
    """Serves traces on a capped fleet (driven via :func:`serve_with_fleet_limit`)."""

    def __init__(
        self,
        algorithm: PackingAlgorithm,
        *,
        fleet_limit: int,
        server_type: ServerType | None = None,
        policy: AdmissionPolicy = QUEUE,
    ) -> None:
        if fleet_limit < 1:
            raise ValueError(f"fleet limit must be ≥ 1, got {fleet_limit}")
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; options: {_POLICIES}")
        self.algorithm = algorithm
        self.fleet_limit = fleet_limit
        self.server_type = server_type or ServerType()
        self.policy = policy

    def serve(self, items: Iterable[Item]) -> QueueingReport:
        """Serve a whole trace; returns the queueing report.

        Requests are offered in ``(arrival, item_id)`` order and checked up
        front by :func:`~repro.core.item.validate_items`, before any is
        served: a repeated id raises
        :class:`~repro.core.validation.DuplicateItemIdError`, as
        :func:`~repro.core.simulator.simulate` does.

        Each arrival is offered to the fleet when it arrives, ahead of the
        requests already waiting; one it cannot place joins the back of the
        queue (``QUEUE``) or is dropped (``DROP``).  Each departure then
        re-offers the queue from its head and stops at the first request
        that does not fit, so waiting requests are admitted in FIFO order.

        Raises
        ------
        OversizedItemError
            If any request demands more than one server's capacity.  Such
            a request could never be admitted: under ``QUEUE`` it would
            block the FIFO queue forever, under ``DROP`` silently
            discarding it would misreport the drop as congestion.
        """
        server_type = self.server_type
        requests = validate_items(
            sorted(items, key=lambda it: (it.arrival, it.item_id)),
            capacity=server_type.gpu_capacity,
        )
        meter = _BillingMeter(server_type.billed_model())
        sim = _CappedFleet(
            self.algorithm,
            self.fleet_limit,
            capacity=server_type.gpu_capacity,
            cost_rate=server_type.rate,
            observers=(meter,),
        )
        pending: list[Entry] = []
        seqs = itertools.count()
        queue = _FleetQueue(pending, seqs, self.policy)
        # The kernel applies every event to ``sim`` and yields nothing here.
        deque(_merge_events(requests, seqs, pending=pending, sim=sim, hooks=queue), maxlen=0)
        assert not queue.waiting, "queue failed to drain after all departures"
        summary = sim.finish_summary()
        return QueueingReport(
            fleet_limit=self.fleet_limit,
            policy=self.policy,
            num_requests=len(requests),
            num_served=summary.num_items,
            num_dropped=queue.dropped,
            total_cost=summary.total_cost,
            billed_cost=meter.billed,
            peak_servers=summary.peak_open_bins,
            waits=queue.waits,
        )


def serve_with_fleet_limit(
    items: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    fleet_limit: int,
    server_type: ServerType | None = None,
    policy: AdmissionPolicy = QUEUE,
) -> QueueingReport:
    """Serve a trace on a capped fleet (fresh dispatcher per call)."""
    dispatcher = FiniteFleetDispatcher(
        algorithm,
        fleet_limit=fleet_limit,
        server_type=server_type,
        policy=policy,
    )
    return dispatcher.serve(items)
