"""The paper's bin-configuration notation ``<x1|_y1, ..., xk|_yk>``.

Table 1 of the paper denotes by ``x|_y`` a total size ``x`` composed of
items of size ``y`` each; a bin configuration is a sequence of such groups,
e.g. ``<1/2|_1/2, 2/5|_1/10>`` is a bin at level 9/10 holding one item of
size 1/2 and four items of size 1/10.

This module makes the notation executable: configurations can be built,
parsed from strings, expanded into concrete :class:`~repro.core.item.Item`
sizes, and compared with a live bin's
:meth:`~repro.core.bin.Bin.configuration` (:meth:`BinConfiguration.matches`).
The adversaries of :mod:`repro.adversaries` do not use it: they check the
bin levels of Figures 2 and 3 with exact arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from .numeric import Num
from .resources import Resources, Size, is_valid_size

__all__ = ["ConfigGroup", "BinConfiguration", "parse_configuration"]


@dataclass(frozen=True, slots=True)
class ConfigGroup:
    """One ``x|_y`` group: total size ``x`` made of items of size ``y``.

    Vector groups use :class:`~repro.core.resources.Resources` for both
    fields; the per-dimension item counts must agree (``x_d = n·y_d`` for
    one integer ``n``), since a group is ``n`` copies of the same item.
    """

    total: Size
    item_size: Size

    def __post_init__(self) -> None:
        if not is_valid_size(self.item_size):
            raise ValueError(f"item size must be positive, got {self.item_size}")
        if isinstance(self.total, Resources) != isinstance(self.item_size, Resources):
            raise ValueError(
                f"group total {self.total} and item size {self.item_size} must "
                "both be scalar or both be vectors"
            )
        count = self._raw_count()
        if abs(count - round(count)) > 1e-9:
            raise ValueError(
                f"group total {self.total} is not an integer multiple of item size "
                f"{self.item_size}"
            )

    def _raw_count(self) -> Num:
        if isinstance(self.total, Resources):
            assert isinstance(self.item_size, Resources)
            if self.total.dims != self.item_size.dims:
                raise ValueError(
                    f"group total {self.total} and item size {self.item_size} "
                    "have different dimensions"
                )
            if any(v < 0 for v in self.total.values):
                raise ValueError(
                    f"group total must be non-negative, got {self.total}"
                )
            counts: list[Num] = []
            for x, y in zip(self.total.values, self.item_size.values):
                if y == 0:
                    if x != 0:
                        raise ValueError(
                            f"group total {self.total} demands a dimension where "
                            f"item size {self.item_size} is zero"
                        )
                else:
                    counts.append(x / y)
            ref = counts[0]
            if any(abs(c - ref) > 1e-9 for c in counts[1:]):
                raise ValueError(
                    f"group total {self.total} is not a uniform multiple of "
                    f"item size {self.item_size}"
                )
            return ref
        if self.total < 0:
            raise ValueError(f"group total must be non-negative, got {self.total}")
        return self.total / self.item_size

    @property
    def count(self) -> int:
        """Number of items in the group (``x / y``)."""
        return round(self._raw_count())

    def sizes(self) -> list[Size]:
        return [self.item_size] * self.count

    def __str__(self) -> str:
        return f"{self.total}|_{self.item_size}"


@dataclass(frozen=True, slots=True)
class BinConfiguration:
    """A bin configuration ``<x1|_y1, ..., xk|_yk>``."""

    groups: tuple[ConfigGroup, ...]

    @classmethod
    def of(cls, *pairs: tuple[Size, Size]) -> "BinConfiguration":
        """Build from ``(total, item_size)`` pairs."""
        return cls(groups=tuple(ConfigGroup(total=t, item_size=y) for t, y in pairs))

    @property
    def level(self) -> Size:
        """Total size of the configuration (the bin's level)."""
        total: Size = 0
        for g in self.groups:
            total = total + g.total
        return total

    @property
    def num_items(self) -> int:
        return sum(g.count for g in self.groups)

    def sizes(self) -> list[Size]:
        """Concrete item sizes, group by group."""
        out: list[Size] = []
        for g in self.groups:
            out.extend(g.sizes())
        return out

    def as_multiset(self) -> dict[Size, int]:
        """``{item_size: count}`` ignoring group boundaries."""
        counts: dict[Size, int] = {}
        for g in self.groups:
            counts[g.item_size] = counts.get(g.item_size, 0) + g.count
        return counts

    def matches(self, observed: dict[Size, int]) -> bool:
        """Whether an observed ``{size: count}`` map equals this configuration."""
        return self.as_multiset() == dict(observed)

    def __str__(self) -> str:
        return "<" + ", ".join(str(g) for g in self.groups) + ">"


_GROUP_RE = re.compile(r"^\s*(?P<total>[^|]+?)\s*\|_?\s*(?P<size>.+?)\s*$")


def _parse_number(text: str) -> Num:
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    return float(text)


def _parse_size(text: str) -> Size:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return Resources(*(_parse_number(part) for part in text[1:-1].split(",")))
    return _parse_number(text)


def _split_groups(body: str) -> list[str]:
    """Split on top-level commas only — vector components stay together."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_configuration(text: str) -> BinConfiguration:
    """Parse a configuration string such as ``"<1/2|_1/2, 2/5|_1/10>"``.

    Accepts fractions (``1/3``), integers and decimals; the ``_`` after the
    bar is optional, so ``"1/2|1/2"`` also parses.  Vector groups write
    sizes as parenthesised tuples, e.g. ``"<(1/2, 1/4)|_(1/4, 1/8)>"``.
    """
    body = text.strip()
    if body.startswith("<") and body.endswith(">"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return BinConfiguration(groups=())
    groups: list[ConfigGroup] = []
    for part in _split_groups(body):
        m = _GROUP_RE.match(part)
        if not m:
            raise ValueError(f"malformed configuration group: {part!r}")
        groups.append(
            ConfigGroup(total=_parse_size(m.group("total")), item_size=_parse_size(m.group("size")))
        )
    return BinConfiguration(groups=tuple(groups))
