"""Server fault injection and session recovery for streamed dispatch.

The MinTotal DBP model assumes rented servers never fail, but the cloud
substrate the paper targets — spot/preemptible VMs serving gaming
sessions — loses servers mid-session: the provider reclaims a spot
instance, or a host crashes.  Kamali & López-Ortiz's server-renting
analysis and the DVBP placement line both observe that *re-placement*
behaviour dominates real cost once bins can die; this module lets us
measure exactly that.

Three pieces:

* :class:`FaultInjector` — a deterministic, seeded failure process.
  Either a Poisson process of the given ``rate`` (failures per time unit)
  or an explicit ``schedule`` of failure times.  When a failure fires,
  the victim server is chosen by the failure ``model``: ``CRASH`` picks a
  uniformly random open server, ``SPOT`` revokes the most recently opened
  one (the youngest spot capacity is reclaimed first).  A failure that
  strikes an empty fleet is counted and otherwise ignored.
* A **recovery policy** — evicted sessions are re-dispatched through the
  same packing algorithm at the failure instant: ``RECONNECT`` resumes
  with the session's *remaining* duration (progress survives, as with
  server-side save state), ``RESTART`` replays the *full* duration from
  scratch (progress lost).  Each re-dispatch is a fresh arrival the
  algorithm places online, exactly like the original.
* :class:`FaultReport` — deterministic accounting: revocation schedule,
  evictions, lost and re-dispatched work.  Identical seeds produce
  byte-identical reports (``to_json``).

:func:`simulate_faulty_stream` is the event kernel of
:mod:`repro.core.events` with a failure source on its heap: the kernel
admits and departs sessions on the core
:class:`~repro.core.simulator.Simulator` in O(active sessions) memory,
and recovery schedules re-admissions on the same heap.  At one instant,
departures run first, then failures, then re-admissions, then stream
arrivals, so a zero-failure run is
:func:`~repro.core.streaming.simulate_stream`'s run *to the float*.
With ``record_induced=True`` it also returns the **induced
trace** — every served attempt as a plain item whose departure is its
natural end or its eviction instant — which replayed through
``simulate(..., indexed=False)`` must reproduce the faulty run's packing
bit for bit (the differential-test oracle).
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # runtime import would cycle: resilience wraps this package
    from ..resilience.retry import CircuitBreaker, RetryPolicy

from ..core.numeric import Num
from ..algorithms.base import PackingAlgorithm
from ..core.bin import Bin
from ..core.events import Entry, EventKind, _merge_events
from ..core.item import Item
from ..core.simulator import Simulator
from ..core.streaming import StreamSummary
from ..core.telemetry import SimulationObserver
from .dispatcher import ServerType, _BillingMeter

__all__ = [
    "SPOT",
    "CRASH",
    "RECONNECT",
    "RESTART",
    "FaultInjector",
    "FaultReport",
    "FaultyStreamResult",
    "FaultyDispatchReport",
    "simulate_faulty_stream",
    "dispatch_faulty_stream",
]

#: Failure models (victim selection).
SPOT = "spot"
CRASH = "crash"
_MODELS = (SPOT, CRASH)

#: Recovery policies for evicted sessions.
RECONNECT = "reconnect"
RESTART = "restart"
_RECOVERIES = (RECONNECT, RESTART)


@dataclass(frozen=True, slots=True)
class FaultInjector:
    """A deterministic, seeded server-failure process.

    Parameters
    ----------
    rate:
        Expected failures per time unit (a Poisson process on the run's
        time axis).  ``0`` — and no ``schedule`` — means no failures.
    schedule:
        Explicit failure times (non-decreasing, positive); overrides
        ``rate``.  Equal times are allowed and strike distinct victims.
    model:
        ``CRASH`` (uniformly random open server) or ``SPOT`` (most
        recently opened server — youngest spot capacity goes first).
    seed:
        Seeds both the Poisson gaps and the victim draws; equal seeds
        reproduce the exact same revocation schedule.
    """

    rate: float = 0.0
    schedule: tuple[Num, ...] | None = None
    model: str = CRASH
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"failure rate must be >= 0, got {self.rate}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown failure model {self.model!r}; options: {_MODELS}")
        if self.schedule is not None:
            times = tuple(self.schedule)
            object.__setattr__(self, "schedule", times)
            if any(t <= 0 for t in times):
                raise ValueError(f"scheduled failure times must be positive: {times}")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ValueError(f"failure schedule must be non-decreasing: {times}")

    def failure_times(self, rng: random.Random) -> Iterator[Num]:
        """Lazily yield failure instants (``rng`` drives the Poisson gaps)."""
        if self.schedule is not None:
            yield from self.schedule
            return
        if self.rate <= 0:
            return
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            yield t

    def pick_victim(self, rng: random.Random, open_bins: Sequence[Bin]) -> Bin:
        """Choose the server to revoke among ``open_bins`` (opening order)."""
        if self.model == SPOT:
            return open_bins[-1]
        return open_bins[rng.randrange(len(open_bins))]


@dataclass(frozen=True, slots=True)
class FaultReport:
    """Deterministic accounting of one faulty run.

    ``lost_work`` is elapsed session-time discarded by evictions (only
    ``RESTART`` loses progress); ``redispatch_work`` is the session-time
    scheduled anew at recovery (remaining duration under ``RECONNECT``,
    full duration under ``RESTART``).  ``revocations`` is the full
    ``(time, server index, sessions evicted)`` schedule.  Same injector
    seed ⇒ byte-identical :meth:`to_json` output.
    """

    model: str
    recovery: str
    seed: int
    rate: float
    num_failures: int
    num_idle_strikes: int
    sessions_evicted: int
    sessions_redispatched: int
    lost_work: Num
    redispatch_work: Num
    revocations: tuple[tuple[Num, int, int], ...]
    #: Re-dispatches whose re-admission was deferred by backoff/breaker.
    sessions_delayed: int = 0
    #: Total simulated time spent waiting between eviction and re-admission.
    total_retry_delay: Num = 0
    #: Evictions that found their recovery key's circuit open.
    breaker_trips: int = 0

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys — byte-stable per seed)."""
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True, slots=True)
class FaultyStreamResult:
    """Outcome of a faulty streamed run: engine summary + fault accounting.

    ``summary.num_items`` counts *admissions* — original sessions plus
    every recovery re-dispatch (each is a fresh online arrival).
    ``induced_items`` (with ``record_induced=True``) is the run's induced
    trace: one item per served attempt, arrival = admission time,
    departure = natural end or eviction instant, in admission order —
    replaying it through a fault-free simulation reproduces this packing.
    """

    summary: StreamSummary
    report: FaultReport
    induced_items: tuple[Item, ...] | None = None


@dataclass(frozen=True, slots=True)
class FaultyDispatchReport:
    """Billing view of a faulty streamed dispatch (cloud vocabulary)."""

    algorithm_name: str
    server_type: ServerType
    summary: StreamSummary
    report: FaultReport
    continuous_cost: Num
    billed_cost: Num
    num_servers_rented: int
    peak_concurrent_servers: int
    num_sessions: int


class _FaultLedger:
    """The fault driver's side of the event kernel.

    The kernel admits sessions and departs them; this object keeps the
    ledger of active attempts through the kernel's hooks, handles each
    failure instant the kernel yields, and schedules the re-admissions
    that recovery needs on the kernel's heap.  Every attempt is a plain
    :class:`~repro.core.item.Item` whose departure is the scheduled end;
    re-dispatched attempts also carry a lineage entry.
    """

    def __init__(
        self,
        sim: Simulator,
        pending: list[Entry],
        *,
        injector: FaultInjector,
        recovery: str,
        retry_policy: "RetryPolicy | None",
        breaker: "CircuitBreaker | None",
        record_induced: bool,
    ) -> None:
        self.sim = sim
        self.pending = pending
        self.injector = injector
        self.recovery = recovery
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.rng = random.Random(injector.seed)
        self.fail_times = injector.failure_times(self.rng)
        self.active: dict[str, Item] = {}
        #: ``(original session id, full duration, attempt number)`` of each
        #: active re-dispatched attempt; an original session has none.
        self.lineage: dict[str, tuple[str, Num, int]] = {}
        self.induced: list[Item] | None = [] if record_induced else None
        self.evicted_at: dict[str, Num] = {}  # filled only for the induced trace
        self.waits = itertools.count()  # deferred re-admissions, in push order
        self.num_failures = 0
        self.idle_strikes = 0
        self.evicted_total = 0
        self.redispatched = 0
        self.lost_work: Num = 0
        self.redispatch_work: Num = 0
        self.revocations: list[tuple[Num, int, int]] = []
        self.sessions_delayed = 0
        self.total_retry_delay: Num = 0
        self.breaker_trips = 0
        self.next_fail: Num | None = next(self.fail_times, None)
        if self.next_fail is not None:
            heapq.heappush(pending, (self.next_fail, EventKind.FAILURE, 0, None))

    def origin(self, attempt: Item) -> tuple[str, Num, int]:
        """``(original session id, full duration, attempt number)``."""
        return self.lineage.get(attempt.item_id) or (attempt.item_id, attempt.length, 0)

    def recovery_key(self, attempt: Item) -> str:
        # String tags group sessions into shared circuits (region
        # semantics); anything else isolates per original session.
        return attempt.tag if isinstance(attempt.tag, str) else self.origin(attempt)[0]

    def after_arrival(self, sim: Simulator, item: Item, bin: Bin | None) -> None:
        self.active[item.item_id] = item
        if self.induced is not None:
            self.induced.append(item)

    def after_departure(self, sim: Simulator, item_id: str, bin: Bin) -> None:
        attempt = self.active.pop(item_id)
        if self.breaker is not None:
            self.breaker.record_success(self.recovery_key(attempt))
        self.lineage.pop(item_id, None)

    def strike(self, time: Num) -> None:
        """Run every failure at ``time``, then schedule the re-dispatches.

        All failures sharing the instant evict before any re-dispatch, so
        a recovered session is never struck again at its admission time.
        Every re-dispatch is a re-admission entry on the kernel's heap; an
        undelayed one is due now, and its negative ``seq`` admits it, in
        eviction order, ahead of any deferred re-admission due at the same
        instant.
        """
        evicted: list[Item] = []
        while self.next_fail is not None and self.next_fail == time:
            open_bins = list(self.sim.open_bins)
            if open_bins:
                victim = self.injector.pick_victim(self.rng, open_bins)
                views = self.sim.fail_bin(victim, time)
                self.num_failures += 1
                self.revocations.append((time, victim.index, len(views)))
                for view in views:
                    evicted.append(self.active.pop(view.item_id))
                    if self.induced is not None:
                        self.evicted_at[view.item_id] = time
            else:
                self.idle_strikes += 1
            self.next_fail = next(self.fail_times, None)
        self.evicted_total += len(evicted)
        for position, old in enumerate(evicted, start=-len(evicted)):
            orig_id, full_length, attempt = self.origin(old)
            self.lineage.pop(old.item_id, None)
            if self.recovery == RESTART:
                self.lost_work = self.lost_work + (time - old.arrival)
                remaining = full_length
            else:
                remaining = old.departure - time
            self.redispatch_work = self.redispatch_work + remaining
            self.redispatched += 1
            key = old.tag if isinstance(old.tag, str) else orig_id
            admit_at = time
            if self.retry_policy is not None:
                admit_at = admit_at + self.retry_policy.delay(attempt + 1, key=key)
            if self.breaker is not None:
                if self.breaker.record_failure(key, time):
                    self.breaker_trips += 1
                blocked = self.breaker.blocked_until(key, time)
                if blocked > admit_at:
                    admit_at = blocked
            retry = Item(
                arrival=admit_at,
                departure=admit_at + remaining,
                size=old.size,
                item_id=f"{orig_id}~a{attempt + 1}",
                tag=old.tag,
            )
            self.lineage[retry.item_id] = (orig_id, full_length, attempt + 1)
            seq = position  # negative: ahead of any deferred re-admission due now
            if admit_at > time:
                self.sessions_delayed += 1
                self.total_retry_delay = self.total_retry_delay + (admit_at - time)
                seq = next(self.waits)
            heapq.heappush(self.pending, (admit_at, EventKind.READMISSION, seq, retry))
        if self.next_fail is not None:
            heapq.heappush(self.pending, (self.next_fail, EventKind.FAILURE, 0, None))

    def report(self) -> FaultReport:
        return FaultReport(
            model=self.injector.model,
            recovery=self.recovery,
            seed=self.injector.seed,
            rate=self.injector.rate,
            num_failures=self.num_failures,
            num_idle_strikes=self.idle_strikes,
            sessions_evicted=self.evicted_total,
            sessions_redispatched=self.redispatched,
            lost_work=self.lost_work,
            redispatch_work=self.redispatch_work,
            revocations=tuple(self.revocations),
            sessions_delayed=self.sessions_delayed,
            total_retry_delay=self.total_retry_delay,
            breaker_trips=self.breaker_trips,
        )


def simulate_faulty_stream(
    items: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    injector: FaultInjector,
    recovery: str = RECONNECT,
    capacity: Num = 1,
    cost_rate: Num = 1,
    indexed: bool = True,
    observers: Sequence[SimulationObserver] = (),
    record_induced: bool = False,
    retry_policy: "RetryPolicy | None" = None,
    breaker: "CircuitBreaker | None" = None,
) -> FaultyStreamResult:
    """Stream a trace through an algorithm while servers fail and recover.

    The run is the event kernel of :mod:`repro.core.events` with a failure
    source added, so event order extends the engine's rule: at one
    instant, departures are processed first, then failures (a session
    departing exactly when its server dies has already left), then
    re-admissions, then stream arrivals — recovery re-dispatches before
    any same-instant stream arrival.  All failures sharing one instant
    evict before any eviction is re-dispatched, and a re-admission due at
    a failure instant runs after that instant's failures, so every
    attempt has strictly positive length.  Failures never keep a run
    alive: none is generated after the last departure or re-admission.
    With no failures the run is event-for-event identical to
    :func:`~repro.core.streaming.simulate_stream`.

    ``retry_policy`` (a :class:`repro.resilience.RetryPolicy`) defers each
    re-dispatch by the seeded backoff for that session's attempt number on
    the *simulated* clock, instead of re-admitting at the failure instant;
    ``breaker`` (a :class:`repro.resilience.CircuitBreaker`) additionally
    holds re-admission until the session's recovery key cools down.  The
    key is the session ``tag`` when it is a string (sessions sharing a
    tag share a circuit — region semantics) and the original session id
    otherwise; a natural departure records success and closes the
    circuit.  Both default to ``None``, which preserves the legacy
    re-admit-immediately behaviour byte for byte.
    """
    if recovery not in _RECOVERIES:
        raise ValueError(f"unknown recovery policy {recovery!r}; options: {_RECOVERIES}")
    sim = Simulator(
        algorithm,
        capacity=capacity,
        cost_rate=cost_rate,
        indexed=indexed,
        record=False,
        observers=observers,
    )
    pending: list[Entry] = []
    ledger = _FaultLedger(
        sim,
        pending,
        injector=injector,
        recovery=recovery,
        retry_policy=retry_policy,
        breaker=breaker,
        record_induced=record_induced,
    )
    # With a simulator to drive, the kernel yields only the failures.
    for time, _, _, _ in _merge_events(
        items, pending=pending, sim=sim, hooks=ledger, capacity=capacity
    ):
        ledger.strike(time)

    induced_items: tuple[Item, ...] | None = None
    if ledger.induced is not None:
        ends = ledger.evicted_at
        induced_items = tuple(
            it.with_departure(ends[it.item_id]) if it.item_id in ends else it
            for it in ledger.induced
        )
    return FaultyStreamResult(
        summary=sim.finish_summary(), report=ledger.report(), induced_items=induced_items
    )


def dispatch_faulty_stream(
    sessions: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    injector: FaultInjector,
    recovery: str = RECONNECT,
    server_type: ServerType | None = None,
    observers: Sequence[SimulationObserver] = (),
    retry_policy: "RetryPolicy | None" = None,
    breaker: "CircuitBreaker | None" = None,
) -> FaultyDispatchReport:
    """Serve a session stream on failure-prone servers and settle the bill.

    The billing meter settles each server when it releases *or fails* —
    a revoked server is billed up to the revocation instant (the
    spot-market rule), so every rented server is billed exactly once.
    ``observers`` attach additional observers after the internal meter,
    as in :func:`repro.cloud.dispatcher.dispatch_stream`.
    ``retry_policy``/``breaker`` defer re-admissions as in
    :func:`simulate_faulty_stream`.
    """
    server_type = server_type or ServerType()
    meter = _BillingMeter(server_type.billed_model())
    result = simulate_faulty_stream(
        sessions,
        algorithm,
        injector=injector,
        recovery=recovery,
        capacity=server_type.gpu_capacity,
        cost_rate=server_type.rate,
        observers=(meter, *observers),
        retry_policy=retry_policy,
        breaker=breaker,
    )
    summary = result.summary
    return FaultyDispatchReport(
        algorithm_name=algorithm.name,
        server_type=server_type,
        summary=summary,
        report=result.report,
        continuous_cost=summary.total_cost,
        billed_cost=meter.billed,
        num_servers_rented=summary.num_bins_used,
        peak_concurrent_servers=summary.peak_open_bins,
        num_sessions=summary.num_items,
    )
