"""Cloud-gaming request dispatching on rented game servers.

The substrate the paper motivates: playing requests arrive at a service
provider, which dispatches each to a game-server VM with enough free GPU
capacity (or rents a fresh VM); a VM is released when its last session
ends.  This is exactly MinTotal DBP with bins = VMs and items = sessions,
so the dispatcher is a domain facade over the core simulator, adding VM
vocabulary and billing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..core.numeric import Num
from ..algorithms.base import Arrival, PackingAlgorithm
from ..core.cost import ContinuousCost, CostModel, QuantizedCost
from ..core.item import Item
from ..core.metrics import utilization
from ..core.result import PackingResult
from ..core.simulator import Simulator
from ..core.streaming import StreamRepacker, StreamSummary, simulate_stream
from ..core.telemetry import SimulationObserver
from ..workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.bin import Bin
    from ..core.checkpoint import StreamCheckpoint

__all__ = [
    "ServerType",
    "DispatchReport",
    "StreamDispatchReport",
    "CloudGamingDispatcher",
    "dispatch_trace",
    "dispatch_stream",
]


@dataclass(frozen=True, slots=True)
class ServerType:
    """A rentable VM flavour for game serving.

    ``gpu_capacity`` is the bin capacity W (GPU rendering units); rates
    are per time unit of the traces (minutes in the bundled workloads).
    """

    name: str = "gpu-server"
    gpu_capacity: Num = 1.0
    rate: Num = 1.0
    billing_quantum: Num | None = 60.0  # EC2-style hourly billing

    def __post_init__(self) -> None:
        if self.gpu_capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.gpu_capacity}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.billing_quantum is not None and self.billing_quantum <= 0:
            raise ValueError(f"billing quantum must be positive, got {self.billing_quantum}")

    def continuous_model(self) -> CostModel:
        return ContinuousCost(rate=self.rate)

    def billed_model(self) -> CostModel:
        if self.billing_quantum is None:
            return self.continuous_model()
        return QuantizedCost(rate=self.rate, quantum=self.billing_quantum)


@dataclass(frozen=True, slots=True)
class DispatchReport:
    """Cost summary of serving a full trace of playing requests."""

    algorithm_name: str
    server_type: ServerType
    result: PackingResult
    continuous_cost: Num  #: the paper's objective
    billed_cost: Num  #: under the server type's billing quanta
    num_servers_rented: int
    peak_concurrent_servers: int
    num_sessions: int
    utilization: float

    @property
    def cost_per_session(self) -> float:
        return float(self.continuous_cost) / self.num_sessions

    def summary_row(self) -> dict[str, Any]:
        """A table row for experiment E10."""
        return {
            "algorithm": self.algorithm_name,
            "servers": self.num_servers_rented,
            "peak": self.peak_concurrent_servers,
            "server-time": float(self.continuous_cost / self.server_type.rate),
            "cost(cont)": float(self.continuous_cost),
            "cost(billed)": float(self.billed_cost),
            "util": self.utilization,
        }


@dataclass(frozen=True, slots=True)
class StreamDispatchReport:
    """Cost summary of a *streamed* trace: aggregates only, O(1) state.

    The streaming counterpart of :class:`DispatchReport` for traces too
    large to keep a :class:`~repro.core.result.PackingResult` for —
    utilization needs per-item demand history and is therefore absent.
    """

    algorithm_name: str
    server_type: ServerType
    summary: StreamSummary
    continuous_cost: Num  #: the paper's objective
    billed_cost: Num  #: under the server type's billing quanta
    num_servers_rented: int
    peak_concurrent_servers: int
    num_sessions: int

    @property
    def cost_per_session(self) -> float:
        return float(self.continuous_cost) / self.num_sessions


class _BillingMeter(SimulationObserver):
    """Accrues quantised billing as servers are released.

    Every rented server is settled exactly once, whichever way its rental
    ends: the ``closed=True`` departure of its last session, or a mid-run
    revocation (``on_server_failure`` — failed servers still bill up to the
    failure instant, the spot-market rule).  ``servers_billed`` counts the
    settlements so end-of-run tests can assert nothing bypassed the meter.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.billed: Num = 0
        self.servers_billed: int = 0

    def _settle(self, bin: "Bin") -> None:
        self.billed = self.billed + self.model.bin_cost(bin.usage_length)
        self.servers_billed += 1

    def on_departure(self, time: Num, item: Arrival, bin: "Bin", closed: bool) -> None:
        if closed:
            self._settle(bin)

    def on_server_failure(
        self, time: Num, bin: "Bin", evicted: Sequence[Arrival]
    ) -> None:
        self._settle(bin)

    def on_migration(
        self,
        time: Num,
        item: Arrival,
        from_bin: "Bin",
        to_bin: "Bin",
        from_closed: bool,
        to_opened: bool,
    ) -> None:
        # A consolidating move can empty the source server, ending its
        # rental mid-session-lifetime; settle it here so every server is
        # still billed exactly once.  The session itself is never billed —
        # only server usage periods are — so a move can't double-bill it.
        if from_closed:
            self._settle(from_bin)

    def checkpoint_state(self) -> dict[str, Any]:
        return {"billed": self.billed, "servers_billed": self.servers_billed}

    def restore_state(self, state: dict[str, Any]) -> None:
        self.billed = state["billed"]
        self.servers_billed = state["servers_billed"]


def dispatch_stream(
    sessions: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    server_type: ServerType | None = None,
    observers: Sequence[SimulationObserver] = (),
    checkpoint_every: int | None = None,
    on_checkpoint: "Callable[[StreamCheckpoint], None] | None" = None,
    resume_from: "StreamCheckpoint | None" = None,
    repacker: "StreamRepacker | None" = None,
) -> StreamDispatchReport:
    """Serve an arrival-ordered session stream in O(active sessions) memory.

    ``sessions`` may be any iterable — typically a generator such as
    :func:`repro.workloads.generators.stream_trace` — yielding items with
    non-decreasing arrival times.  Billing is metered as servers are
    released, so million-session traces never materialize.

    ``observers`` attach additional :class:`SimulationObserver` instances
    (e.g. a :class:`repro.obs.MetricsObserver` or lifecycle tracer) after
    the internal billing meter; the order is stable, so checkpoints —
    whose observer states are positional — resume correctly as long as
    the resuming call passes the same observers.

    Checkpoint/resume works as in
    :func:`repro.core.streaming.simulate_stream`; the billing meter's
    accrued state rides along in each snapshot, so a resumed dispatch
    bills exactly what the uninterrupted one would.

    Pass a ``repacker`` (e.g. :class:`repro.renting.BoundedRepacker`) for
    migration-bounded dispatch: sessions may be live-migrated between
    servers within the repacker's budget, and a source server emptied by a
    move is released and settled at that instant.
    """
    server_type = server_type or ServerType()
    meter = _BillingMeter(server_type.billed_model())
    summary = simulate_stream(
        sessions,
        algorithm,
        capacity=server_type.gpu_capacity,
        cost_rate=server_type.rate,
        observers=(meter, *observers),
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
        resume_from=resume_from,
        repacker=repacker,
    )
    return StreamDispatchReport(
        algorithm_name=algorithm.name,
        server_type=server_type,
        summary=summary,
        continuous_cost=summary.total_cost,
        billed_cost=meter.billed,
        num_servers_rented=summary.num_bins_used,
        peak_concurrent_servers=summary.peak_open_bins,
        num_sessions=summary.num_items,
    )


class CloudGamingDispatcher:
    """Online dispatcher: drive it with session starts/ends, then settle.

    >>> from repro.algorithms import FirstFit
    >>> d = CloudGamingDispatcher(FirstFit())
    >>> _ = d.start_session(0.0, gpu_demand=0.5, request_id="alice", game="skyrim")
    >>> _ = d.start_session(1.0, gpu_demand=0.5, request_id="bob", game="dota-2")
    >>> d.active_sessions
    2
    >>> d.end_session("alice", 30.0); d.end_session("bob", 45.0)
    >>> report = d.shutdown()
    >>> report.num_servers_rented
    1
    """

    def __init__(
        self,
        algorithm: PackingAlgorithm,
        *,
        server_type: ServerType | None = None,
        observers: Sequence[SimulationObserver] = (),
    ) -> None:
        self.server_type = server_type or ServerType()
        self._algorithm = algorithm
        self._sim = Simulator(
            algorithm,
            capacity=self.server_type.gpu_capacity,
            cost_rate=self.server_type.rate,
            observers=observers,
        )

    @property
    def active_sessions(self) -> int:
        return len(self._sim.active_item_ids)

    @property
    def servers_in_use(self) -> int:
        return self._sim.num_open_bins

    def start_session(
        self,
        time: Num,
        *,
        gpu_demand: Num,
        request_id: str | None = None,
        game: str | None = None,
    ) -> int:
        """Dispatch a playing request; returns the server index serving it."""
        placed = self._sim.arrive(time, gpu_demand, item_id=request_id, tag=game)
        assert placed is not None, "an uncapped fleet admits every session"
        return placed.index

    def end_session(self, request_id: str, time: Num) -> None:
        """The player stops playing; the session's server may be released."""
        self._sim.depart(request_id, time)

    def shutdown(self) -> DispatchReport:
        """Settle all rentals (every session must have ended)."""
        result = self._sim.finish()
        return _report(result, self._algorithm, self.server_type)


def _report(
    result: PackingResult, algorithm: PackingAlgorithm, server_type: ServerType
) -> DispatchReport:
    return DispatchReport(
        algorithm_name=algorithm.name,
        server_type=server_type,
        result=result,
        continuous_cost=result.total_cost(server_type.continuous_model()),
        billed_cost=result.total_cost(server_type.billed_model()),
        num_servers_rented=result.num_bins_used,
        peak_concurrent_servers=result.max_bins_used,
        num_sessions=len(result.items),
        utilization=utilization(result),
    )


def dispatch_trace(
    trace: Trace,
    algorithm: PackingAlgorithm,
    *,
    server_type: ServerType | None = None,
) -> DispatchReport:
    """Serve a whole request trace with one algorithm and settle the bill."""
    from ..core.simulator import simulate

    server_type = server_type or ServerType()
    result = simulate(
        trace.items,
        algorithm,
        capacity=server_type.gpu_capacity,
        cost_rate=server_type.rate,
    )
    return _report(result, algorithm, server_type)
