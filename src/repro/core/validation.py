"""Typed validation errors for the trace/stream boundary.

Bad input used to surface as bare ``ValueError``/``RuntimeError`` strings
raised from wherever the corruption was first noticed — sometimes after
index state had already mutated.  This module defines a structured
exception hierarchy raised *before* any engine state changes, so callers
can catch one base class (:class:`TraceValidationError`) or discriminate
programmatically on the concrete type and its fields (``item_id``,
offending value, limit) instead of parsing messages.

Every class subclasses :class:`ValueError`, so existing ``except
ValueError`` call sites (and tests) keep working unchanged.
"""

from __future__ import annotations
from .numeric import Num


__all__ = [
    "TraceValidationError",
    "InvalidItemTypeError",
    "InvalidItemSizeError",
    "InvalidIntervalError",
    "OversizedItemError",
    "ResourceDimensionError",
    "DuplicateItemIdError",
    "EmptySweepError",
    "CheckpointFormatError",
    "CheckpointSchemaError",
]


class TraceValidationError(ValueError):
    """Base class for malformed trace/stream input.

    Subclasses carry the offending item's id and values as attributes so
    handlers (admission controllers, trace linters) can act on them
    without string parsing.
    """

    def __init__(self, message: str, *, item_id: str | None = None) -> None:
        super().__init__(message)
        self.item_id = item_id


class InvalidItemTypeError(TraceValidationError, TypeError):
    """An item field of the wrong type (not a ``Num`` or ``Resources``).

    Also subclasses :class:`TypeError` so pre-existing ``except TypeError``
    call sites around :class:`~repro.core.item.Item` construction keep
    working.
    """

    def __init__(
        self,
        field: str,
        value: object,
        *,
        expected: str = "a real number",
        item_id: str | None = None,
    ) -> None:
        super().__init__(
            f"Item.{field} must be {expected}, got {value!r}",
            item_id=item_id,
        )
        self.field = field
        self.value = value


class InvalidItemSizeError(TraceValidationError):
    """An item size that is not a positive demand (≤ 0, NaN, or an
    all-zero/negative resource vector)."""

    def __init__(self, size: object, *, item_id: str | None = None) -> None:
        super().__init__(
            f"item{f' {item_id!r}' if item_id else ''} size must be positive, "
            f"got {size}",
            item_id=item_id,
        )
        self.size = size


class InvalidIntervalError(TraceValidationError):
    """A departure time at or before the arrival time (``d(r) <= a(r)``)."""

    def __init__(
        self,
        arrival: Num,
        departure: Num,
        *,
        item_id: str | None = None,
    ) -> None:
        super().__init__(
            f"item{f' {item_id!r}' if item_id else ''} departure must be "
            f"strictly after arrival (got a(r)={arrival}, d(r)={departure})",
            item_id=item_id,
        )
        self.arrival = arrival
        self.departure = departure


class OversizedItemError(TraceValidationError):
    """An item larger than the bin capacity ``W`` — unplaceable anywhere.

    In vector runs ``size``/``capacity`` are ``Resources`` and
    ``dimension`` names the first axis on which the demand exceeds the
    capacity; scalar runs leave ``dimension`` as ``None``.
    """

    def __init__(
        self,
        size: object,
        capacity: object,
        *,
        item_id: str | None = None,
        dimension: int | None = None,
    ) -> None:
        where = f" in dimension {dimension}" if dimension is not None else ""
        super().__init__(
            f"item{f' {item_id!r}' if item_id else ''} has size {size} "
            f"exceeding bin capacity {capacity}{where}",
            item_id=item_id,
        )
        self.size = size
        self.capacity = capacity
        self.dimension = dimension


class ResourceDimensionError(TraceValidationError):
    """Mixed scalar/vector sizes, or vectors of different dimension, in one run.

    A simulation is either scalar or ``d``-dimensional throughout; the
    first offending item is reported rather than letting a partial-order
    comparison fail deep inside a placement rule.
    """

    def __init__(
        self,
        expected: int | None,
        got: int | None,
        *,
        item_id: str | None = None,
    ) -> None:
        def _name(d: int | None) -> str:
            return "scalar" if d is None else f"{d}-D vector"

        super().__init__(
            f"item{f' {item_id!r}' if item_id else ''} has a {_name(got)} size "
            f"in a {_name(expected)} run; sizes must be uniform",
            item_id=item_id,
        )
        self.expected = expected
        self.got = got


class DuplicateItemIdError(TraceValidationError):
    """Two items in one trace sharing an id."""

    def __init__(self, item_id: str) -> None:
        super().__init__(f"duplicate item id: {item_id!r}", item_id=item_id)


class CheckpointFormatError(ValueError):
    """A checkpoint payload that cannot be parsed into a ``StreamCheckpoint``.

    Raised by :meth:`repro.core.checkpoint.StreamCheckpoint.from_json` for
    malformed or truncated input — invalid JSON, a non-object payload, or
    missing/mistyped fields — instead of leaking the underlying
    ``json.JSONDecodeError``/``KeyError``/``TypeError``; and by
    :meth:`~repro.core.checkpoint.StreamCheckpoint.restore` when a decoded
    algorithm or observer state does not restore.  ``detail`` holds
    the parser-level description; the original exception rides along as
    ``__cause__``.
    """

    def __init__(self, detail: str) -> None:
        super().__init__(f"unreadable checkpoint payload: {detail}")
        self.detail = detail


class CheckpointSchemaError(CheckpointFormatError):
    """A checkpoint payload written under a different schema version.

    The payload parsed as JSON but its ``schema_version`` stamp does not
    match the version this engine writes, so restoring it could silently
    mis-restore state.  ``got`` is ``None`` when the stamp is absent
    entirely (a pre-versioning or foreign payload).
    """

    def __init__(self, *, expected: int, got: object) -> None:
        stamp = "no schema_version stamp" if got is None else f"schema_version {got!r}"
        ValueError.__init__(
            self,
            f"checkpoint payload carries {stamp}, but this engine reads "
            f"schema_version {expected}; re-capture the checkpoint with the "
            "current engine instead of restoring across formats",
        )
        self.detail = stamp
        self.expected = expected
        self.got = got


class EmptySweepError(ValueError):
    """A sweep or sharded run invoked with zero grid points.

    Subclasses :class:`ValueError` (the error's historical spelling in
    :func:`repro.analysis.sweep.run_sweep`) so existing ``except
    ValueError`` call sites keep working; raised identically by the serial
    and parallel execution paths before any work is scheduled.
    """

    def __init__(self, what: str = "sweep") -> None:
        super().__init__(f"empty {what}: no grid points to run")
        self.what = what
