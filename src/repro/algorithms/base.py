"""Packing-algorithm interface and registry.

An online packing algorithm sees each item only at its arrival time — it is
handed an :class:`Arrival` view that deliberately **omits the departure
time**, enforcing the paper's online model ("the items must be assigned to
bins as they arrive without any knowledge of their departure times").

The simulator owns bin lifecycle: an algorithm only *chooses* where to place
an item.  Returning ``OPEN_NEW`` (or ``None``) asks the simulator to open a
fresh bin.  Algorithms may annotate bins via ``bin.label`` at open time (see
:meth:`PackingAlgorithm.on_bin_opened`); Modified First Fit uses this to
segregate large-item and small-item bins.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import NotImplementedType
from typing import Any, Callable, Sequence

from ..core.numeric import Num
from ..core.bin import Bin
from ..core.bin_index import OpenBinIndex
from ..core.resources import Size

__all__ = [
    "Arrival",
    "OPEN_NEW",
    "PackingAlgorithm",
    "AnyFitAlgorithm",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
]


@dataclass(frozen=True, slots=True)
class Arrival:
    """The online view of an arriving item: no departure time.

    Bins store these views while the item is active; the final
    :class:`~repro.core.result.PackingResult` maps ids back to full items.
    """

    item_id: str
    size: Size
    arrival: Num
    tag: Any = None


class _OpenNew:
    """Sentinel: 'open a new bin for this item'."""

    _instance: "_OpenNew | None" = None

    def __new__(cls) -> "_OpenNew":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "OPEN_NEW"


OPEN_NEW = _OpenNew()


class PackingAlgorithm(ABC):
    """Base class for online DBP packing algorithms."""

    #: Registry name; subclasses set this via :func:`register_algorithm`.
    name: str = "abstract"

    def reset(self, capacity: Size) -> None:
        """Called once at simulation start; override to clear state.

        Record-mode :func:`~repro.core.simulator.simulate` may run an exact
        trace on the integer lattice (:mod:`repro.core.numeric`): the
        capacity and every size arrive multiplied by one integer.  Derive
        size thresholds from ``capacity`` (as ``W/k``, with
        :func:`~repro.core.numeric.quotient`), never from constants, so a
        decision is the same at every scale.  After such a run ``simulate``
        calls ``reset`` again with the caller's capacity, so state derived
        here ends in the caller's units and per-run state is cleared.
        """

    @abstractmethod
    def choose_bin(self, item: Arrival, open_bins: Sequence[Bin]) -> Bin | _OpenNew | None:
        """Pick an open bin for ``item`` or request a new one.

        ``open_bins`` is the list of currently open bins in opening order
        (ascending ``bin.index``).  Returning ``OPEN_NEW`` or ``None`` opens
        a new bin.  The returned bin must satisfy ``bin.fits(item)``; the
        simulator validates this and raises on violation.
        """

    def choose_bin_indexed(
        self, item: Arrival, index: OpenBinIndex
    ) -> Bin | _OpenNew | None | NotImplementedType:
        """Optional O(log n) selection against the simulator's bin index.

        The indexed counterpart of :meth:`choose_bin`: instead of a bin
        sequence to scan, the algorithm receives the simulator's
        :class:`~repro.core.bin_index.OpenBinIndex` and may answer fit
        queries (``index.first_fit(size)``, ``index.best_fit(size)``, both
        optionally per ``label`` pool) in O(log n).  Return a bin,
        ``OPEN_NEW``/``None``, or ``NotImplemented`` (the default) to fall
        back to the list scan — the simulator asks once per run and caches
        the answer, so an algorithm must either always or never support the
        indexed path.  Implementations must make exactly the choice their
        :meth:`choose_bin` would make; the differential tests assert this.
        """
        return NotImplemented

    def new_bin_capacity(self, item: Arrival) -> Size | None:
        """Capacity for a bin opened for ``item``; ``None`` = simulator default.

        Override to model heterogeneous fleets (multiple VM flavours).  The
        returned capacity must accommodate ``item``; the simulator
        validates this.
        """
        return None

    def on_bin_opened(self, bin: Bin, item: Arrival) -> None:
        """Hook after a new bin is opened for ``item`` (set ``bin.label`` here)."""

    def on_item_departed(self, item_id: str, bin: Bin) -> None:
        """Hook after an item leaves ``bin`` (bin may have just closed)."""

    def checkpoint_state(self) -> Any:
        """JSON-serializable snapshot of mutable per-run state (or ``None``).

        Most algorithms keep no per-run state beyond what ``reset`` derives
        and what bin labels carry (FF, BF, MFF, MBF) — the default ``None``
        is then exact.  Algorithms holding references to live bins (Next
        Fit's current bin) override this with :meth:`restore_state` so
        checkpoint/resume (:mod:`repro.core.checkpoint`) reproduces their
        decisions bit for bit.
        """
        return None

    def restore_state(self, state: Any, open_bins: dict[int, Bin]) -> None:
        """Restore :meth:`checkpoint_state` output after a resume.

        ``open_bins`` maps ``bin.index`` to the reconstructed open bins so
        bin references can be re-established.  Called after ``reset``.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AnyFitAlgorithm(PackingAlgorithm):
    """The Any Fit family: open a new bin **only** when nothing fits.

    Subclasses implement :meth:`select` to pick among the bins that can
    accommodate the item; the Any Fit property (never open a bin while some
    open bin fits) is guaranteed here, mirroring the paper's definition that
    First Fit and Best Fit are special cases of Any Fit.
    """

    def choose_bin(self, item: Arrival, open_bins: Sequence[Bin]) -> Bin | _OpenNew:
        fitting = [b for b in open_bins if b.fits(item)]
        if not fitting:
            return OPEN_NEW
        return self.select(item, fitting)

    @abstractmethod
    def select(self, item: Arrival, fitting_bins: Sequence[Bin]) -> Bin:
        """Choose among ``fitting_bins`` (non-empty, opening order)."""


# --------------------------------------------------------------------------
# Registry


_REGISTRY: dict[str, Callable[..., PackingAlgorithm]] = {}


def register_algorithm(name: str) -> Callable[[type], type]:
    """Class decorator registering an algorithm factory under ``name``."""

    def deco(cls: type) -> type:
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def get_algorithm(name: str, /, **kwargs: Any) -> PackingAlgorithm:
    """Instantiate a registered algorithm by name.

    >>> get_algorithm("first-fit")
    FirstFit()
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None
    return factory(**kwargs)


def available_algorithms() -> list[str]:
    """Sorted names of all registered algorithms."""
    return sorted(_REGISTRY)
