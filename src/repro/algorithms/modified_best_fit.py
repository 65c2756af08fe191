"""Modified Best Fit — the ablation that explains MFF's design.

MFF's improvement comes from two ingredients: size classification *and*
the First Fit rule inside each class.  A natural question is whether
classification alone rescues Best Fit.  It does not: Theorem 2's trap uses
items of a single tiny size, so the whole construction lives inside one
size class, where classified Best Fit behaves exactly like plain Best Fit
— still unboundedly bad.  ``ModifiedBestFit`` exists to make that argument
executable (see ``tests/test_modified_best_fit.py``); the paper's choice of
First Fit inside MFF's classes is what carries the bounded ratio.
"""

from __future__ import annotations

from typing import Sequence

from ..core.numeric import Num, quotient
from ..core.bin import Bin
from ..core.bin_index import OpenBinIndex
from ..core.resources import Resources, Size, meets_threshold, scalarize_max
from .base import Arrival, OPEN_NEW, PackingAlgorithm, _OpenNew, register_algorithm
from .modified_first_fit import LARGE, SMALL

__all__ = ["ModifiedBestFit"]


@register_algorithm("modified-best-fit")
class ModifiedBestFit(PackingAlgorithm):
    """Best Fit within MFF-style large/small pools (threshold ``W/k``)."""

    def __init__(self, k: Num = 8) -> None:
        if not k > 1:
            raise ValueError(f"modified Best Fit requires k > 1, got {k}")
        self.k = k
        self._threshold: Size | None = None

    def reset(self, capacity: Size) -> None:
        self._threshold = quotient(capacity, self.k)

    def classify(self, item: Arrival) -> str:
        if self._threshold is None:
            raise RuntimeError("algorithm not reset; run it through the simulator")
        return LARGE if meets_threshold(item.size, self._threshold) else SMALL

    def choose_bin(self, item: Arrival, open_bins: Sequence[Bin]):
        wanted = self.classify(item)
        if isinstance(item.size, Resources):
            # Rank vector residuals by the canonical max-dimension rule,
            # matching the indexed path's ordering.
            best: Bin | None = None
            best_key = None
            for b in open_bins:
                if b.label == wanted and b.fits(item):
                    key = scalarize_max(b.residual)
                    if best_key is None or key < best_key:
                        best, best_key = b, key
            return best if best is not None else OPEN_NEW
        best = None
        for b in open_bins:
            if b.label == wanted and b.fits(item):
                if best is None or b.residual < best.residual:
                    best = b
        return best if best is not None else OPEN_NEW

    def choose_bin_indexed(
        self, item: Arrival, index: OpenBinIndex
    ) -> Bin | _OpenNew | None:
        # Best Fit restricted to this size class's bin pool.
        target = index.best_fit(item.size, label=self.classify(item))
        return target if target is not None else OPEN_NEW

    def on_bin_opened(self, bin: Bin, item: Arrival) -> None:
        bin.label = self.classify(item)

    def __repr__(self) -> str:
        return f"ModifiedBestFit(k={self.k})"
