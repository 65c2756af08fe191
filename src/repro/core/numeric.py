"""The engine's numeric scalar type.

Annotations throughout the engine historically used :class:`numbers.Real`,
which is the right *runtime* contract (``isinstance`` checks keep using it)
but is opaque to static type checkers: ``numbers.Real`` supports no
arithmetic operators in typeshed, so every ``arrival + duration`` would be
an error under strict mypy.  ``Num`` is the static-analysis-friendly
equivalent: the union of the concrete scalar types the engine actually
receives.  :class:`~fractions.Fraction` is included because the adversarial
constructions (Theorem 1/5 traces) drive the simulator with exact rationals
to make cost predictions replay exactly.

Exact runs may go faster on the *integer lattice*: :func:`lattice_scale`
finds ``D``, the lcm of the denominators of an exact trace's sizes and
capacity, and :func:`to_lattice` multiplies a value by it.  Scaling by
``D > 0`` keeps every ``<=`` and commutes with every sum, so ``int``
arithmetic on the scaled values makes exactly the decisions ``Fraction``
arithmetic makes on the originals, and costs, which integrate time rather
than size, do not change.  Record-mode
:func:`~repro.core.simulator.simulate` (whose result lists the caller's
own items), the snapshot sweeps of :mod:`repro.opt.snapshot`, and the
demand and pointwise load sums of
:func:`~repro.core.metrics.total_demand` and
:func:`~repro.opt.lower_bounds.pointwise_lower_bound` run there and map
results back to the caller's units at their boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Any, Iterable, TypeAlias, Union

__all__ = ["Num", "NUM_TYPES", "is_num", "lattice_scale", "quotient", "to_lattice"]

Num: TypeAlias = Union[int, float, Fraction]

#: Runtime counterpart of :data:`Num` for ``isinstance`` checks.  ``bool``
#: is a subclass of ``int`` and therefore accepted, matching the old
#: ``numbers.Real`` behaviour.
NUM_TYPES: tuple[type, ...] = (int, float, Fraction)


def is_num(value: object) -> bool:
    """Whether ``value`` is one of the engine's scalar numeric types."""
    return isinstance(value, NUM_TYPES)


def quotient(dividend: Any, divisor: Num) -> Any:
    """``dividend / divisor``, exact when both are ``int`` or ``Fraction``.

    In Python ``int / int`` is a float, so a class boundary such as ``W/k``
    with an int capacity would be rounded; an exact pair gives the exact
    :class:`~fractions.Fraction` instead.  Any other operand (a float, a
    :class:`~repro.core.resources.Resources` vector) keeps ``/``.
    """
    if isinstance(dividend, (int, Fraction)) and isinstance(divisor, (int, Fraction)):
        return Fraction(dividend, divisor)
    return dividend / divisor


def lattice_scale(capacity: object, sizes: Iterable[object]) -> int | None:
    """``D``, the lcm of the denominators of ``capacity`` and every size.

    ``None`` unless the capacity and every size are scalar ``int`` or
    ``Fraction`` values: a float does not survive scaling (its rounding
    depends on magnitude), and vector sizes are left alone.  ``D == 1``
    means every value is integral already.
    """
    scale = 1
    for value in chain((capacity,), sizes):
        if isinstance(value, int):
            continue
        if not isinstance(value, Fraction):
            return None
        if scale % value.denominator:
            scale = math.lcm(scale, value.denominator)
    return scale


def to_lattice(value: int | Fraction, scale: int) -> int:
    """``value * scale`` as an ``int``; ``scale`` must be a multiple of
    ``value``'s denominator (as :func:`lattice_scale`'s ``D`` is)."""
    return value.numerator * (scale // value.denominator)
