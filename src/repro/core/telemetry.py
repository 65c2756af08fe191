"""Observer hooks of the simulator.

Production dispatchers want running statistics without post-processing a
finished :class:`~repro.core.result.PackingResult`.  An observer receives a
callback at every placement, departure, migration and server failure, with
the bins involved.  Open time lives in one place: each :class:`~repro.core.bin.Bin`
carries its own ``opened_at`` and ``capacity``, and the engine sums closed
bins' usage, so observers read those rather than keeping their own copies.
:mod:`repro.obs` builds the metrics, tracing and flight-recorder observers
on these hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .numeric import Num

if TYPE_CHECKING:  # pragma: no cover
    from ..algorithms.base import Arrival
    from .bin import Bin

__all__ = ["SimulationObserver"]


class SimulationObserver:
    """Base observer: override any subset of the hooks."""

    def on_arrival(self, time: Num, item: "Arrival", bin: "Bin", opened: bool) -> None:
        """Item placed into ``bin``; ``opened`` if the bin is brand new."""

    def on_departure(self, time: Num, item: "Arrival", bin: "Bin", closed: bool) -> None:
        """``item`` left ``bin``; ``closed`` if the bin emptied and closed.

        ``item`` is the departing session's :class:`~repro.algorithms.base.Arrival`
        view — the same object :meth:`on_arrival` received — so its size and
        arrival time need no copy on the observer's side.  ``bin`` is observed
        after the removal: its level no longer includes ``item``.
        """

    def on_server_failure(
        self, time: Num, bin: "Bin", evicted: Sequence["Arrival"]
    ) -> None:
        """``bin`` was revoked at ``time`` (server failure), evicting items.

        Fires instead of per-item ``on_departure`` calls: the bin closes in
        one stroke with ``evicted`` still inside.  Billing observers must
        settle the bin's rental here — the usual ``closed=True`` departure
        never happens for a failed server.
        """

    def on_migration(
        self,
        time: Num,
        item: "Arrival",
        from_bin: "Bin",
        to_bin: "Bin",
        from_closed: bool,
        to_opened: bool,
    ) -> None:
        """``item`` moved from ``from_bin`` to ``to_bin`` at ``time``.

        Fired by :meth:`~repro.core.simulator.Simulator.migrate` (the
        bounded-migration dispatch mode).  ``from_closed`` marks a source
        bin that emptied and closed with the move — billing observers must
        settle its rental here, exactly as for a ``closed=True`` departure;
        ``to_opened`` marks a brand-new destination bin.
        """

    def checkpoint_state(self) -> Any:
        """JSON-serializable snapshot of this observer's state (or ``None``).

        Observers that accumulate state (billing meters, metrics) override
        this together with :meth:`restore_state` so streamed runs can
        checkpoint and resume exactly (see :mod:`repro.core.checkpoint`).
        The default returns ``None`` — nothing to save.
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Restore the state captured by :meth:`checkpoint_state`."""
