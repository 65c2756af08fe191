"""Harmonic-style size-class packing (extension beyond the paper).

The paper's Modified First Fit splits items into two size classes.  The
natural generalisation — and the classical-bin-packing workhorse since Lee &
Lee's HARMONIC — is to split into ``M`` harmonic classes: class ``j``
(1 ≤ j < M) holds items with size in ``(W/(j+1), W/j]``, and the final class
holds everything of size ≤ ``W/M``.  Each class is packed by First Fit into
its own pool of bins, so a class-``j`` bin holds at most ``j`` items.

This is the "future work"-flavoured ablation referenced in DESIGN.md: it
lets experiments ask whether more size classes help MinTotal DBP the way
they help classical bin packing.  (Spoiler from experiment E8/E10: finer
classes waste span — each class pays its own span term — so moderate M is
best, echoing why the paper stops at two classes.)
"""

from __future__ import annotations

from typing import Sequence

from ..core.numeric import quotient
from ..core.bin import Bin
from ..core.resources import Size, exceeds_threshold
from .base import Arrival, OPEN_NEW, PackingAlgorithm, register_algorithm

__all__ = ["HarmonicFit"]


@register_algorithm("harmonic-fit")
class HarmonicFit(PackingAlgorithm):
    """First Fit within harmonic size classes.

    Parameters
    ----------
    num_classes:
        The number of harmonic classes ``M ≥ 1``.  ``M = 1`` degenerates to
        plain First Fit.
    """

    def __init__(self, num_classes: int = 4) -> None:
        if num_classes < 1:
            raise ValueError(f"need at least one class, got {num_classes}")
        self.num_classes = num_classes
        self._capacity: Size | None = None

    def reset(self, capacity: Size) -> None:
        self._capacity = capacity

    def classify(self, item: Arrival) -> int:
        """Harmonic class of an item: smallest j with size > W/(j+1), capped at M.

        Vector items classify by their *heaviest* dimension relative to
        capacity (any dimension above the class boundary promotes the
        item), degenerating to the scalar rule in 1-D.
        """
        if self._capacity is None:
            raise RuntimeError("algorithm not reset; run it through the simulator")
        w = self._capacity
        for j in range(1, self.num_classes):
            if exceeds_threshold(item.size, quotient(w, j + 1)):
                return j
        return self.num_classes

    def choose_bin(self, item: Arrival, open_bins: Sequence[Bin]):
        wanted = self.classify(item)
        for b in open_bins:
            if b.label == wanted and b.fits(item):
                return b
        return OPEN_NEW

    def on_bin_opened(self, bin: Bin, item: Arrival) -> None:
        bin.label = self.classify(item)

    def __repr__(self) -> str:
        return f"HarmonicFit(num_classes={self.num_classes})"
