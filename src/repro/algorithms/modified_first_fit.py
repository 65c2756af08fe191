"""Modified First Fit (Section 4.4 of the paper).

MFF classifies items by size against the threshold ``W/k``: items with
``s(r) ≥ W/k`` are *large*, the rest are *small*.  Large and small items are
packed by classical First Fit into **separate pools of bins** — a small item
never shares a bin with a large item.

Competitive ratios proved in the paper:

* μ unknown: with ``k = 8``, MFF is ``(8/7)μ + 55/7``-competitive.
* μ known: with ``k = μ + 7``, MFF is ``(μ + 8)``-competitive (semi-online).

``MFF()`` uses ``k = 8``; ``MFF.with_known_mu(mu)`` sets ``k = μ + 7``.
"""

from __future__ import annotations

from typing import Sequence

from ..core.numeric import Num, quotient
from ..core.bin import Bin
from ..core.bin_index import OpenBinIndex
from ..core.resources import Size, meets_threshold
from .base import Arrival, OPEN_NEW, PackingAlgorithm, _OpenNew, register_algorithm

__all__ = ["ModifiedFirstFit", "LARGE", "SMALL"]

#: Bin labels used to segregate the two pools.
LARGE = "large"
SMALL = "small"


@register_algorithm("modified-first-fit")
class ModifiedFirstFit(PackingAlgorithm):
    """First Fit on two size classes packed into disjoint bin pools.

    Parameters
    ----------
    k:
        Size-class threshold parameter (> 1): items of size ≥ W/k are
        large.  The default ``k = 8`` is the paper's choice when μ is
        unknown.
    """

    def __init__(self, k: Num = 8) -> None:
        if not k > 1:
            raise ValueError(f"MFF requires k > 1, got {k}")
        self.k = k
        self._threshold: Size | None = None

    @classmethod
    def with_known_mu(cls, mu: Num) -> "ModifiedFirstFit":
        """The semi-online variant: ``k = μ + 7``, ratio ``μ + 8``."""
        if mu < 1:
            raise ValueError(f"μ is a max/min ratio and must be ≥ 1, got {mu}")
        return cls(k=mu + 7)

    def reset(self, capacity: Size) -> None:
        self._threshold = quotient(capacity, self.k)

    def classify(self, item: Arrival) -> str:
        """LARGE if ``s(r) ≥ W/k`` else SMALL.

        Vector items are LARGE when *any* dimension reaches ``W_d/k`` —
        one heavy dimension is enough to justify a dedicated-pool bin.
        """
        if self._threshold is None:
            raise RuntimeError("algorithm not reset; run it through the simulator")
        return LARGE if meets_threshold(item.size, self._threshold) else SMALL

    def choose_bin(self, item: Arrival, open_bins: Sequence[Bin]):
        wanted = self.classify(item)
        for b in open_bins:  # opening order == First Fit order, per pool
            if b.label == wanted and b.fits(item):
                return b
        return OPEN_NEW

    def choose_bin_indexed(
        self, item: Arrival, index: OpenBinIndex
    ) -> Bin | _OpenNew | None:
        # First Fit restricted to this size class's bin pool.
        target = index.first_fit(item.size, label=self.classify(item))
        return target if target is not None else OPEN_NEW

    def on_bin_opened(self, bin: Bin, item: Arrival) -> None:
        bin.label = self.classify(item)

    def __repr__(self) -> str:
        return f"ModifiedFirstFit(k={self.k})"
