"""Parameter sweeps: the grid-runner behind the experiment tables.

A sweep calls a row-producing function once per grid point.  With
``workers=N`` the points are sharded across a process pool
(:func:`repro.parallel.run_tasks`) under the package's determinism
contract: rows land in grid order whatever the completion order, and a
seed is a grid parameter like any other (a ``seed`` axis) — so the
parallel :class:`SweepResult` is identical to the serial one at every
worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.validation import EmptySweepError

__all__ = ["grid", "run_sweep", "SweepResult"]


def grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named parameter axes, as dicts.

    >>> grid(k=[2, 4], mu=[1, 10])
    [{'k': 2, 'mu': 1}, {'k': 2, 'mu': 10}, {'k': 4, 'mu': 1}, {'k': 4, 'mu': 10}]
    """
    names = list(axes)
    out = []
    for combo in itertools.product(*(list(axes[n]) for n in names)):
        out.append(dict(zip(names, combo)))
    return out


@dataclass
class SweepResult:
    """Rows produced by a sweep, with helpers for tabulation."""

    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)

    def add(self, row: Mapping[str, Any]) -> None:
        self.rows.append([row.get(h) for h in self.headers])

    def column(self, name: str) -> list[Any]:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def to_table(self, *, title: str | None = None, precision: int = 4) -> str:
        from .tables import render_table

        return render_table(self.headers, self.rows, title=title, precision=precision)


def _call_with_kwargs(fn: Callable[..., Mapping[str, Any]], kwargs: dict[str, Any]):
    """Module-level shim so sharded sweep calls pickle cleanly."""
    return fn(**kwargs)


def run_sweep(
    fn: Callable[..., Mapping[str, Any]],
    points: Sequence[Mapping[str, Any]],
    *,
    headers: Sequence[str] | None = None,
    workers: int | None = None,
) -> SweepResult:
    """Call ``fn(**point)`` for each grid point; collect the returned rows.

    ``fn`` returns a mapping of column name → value.  ``headers`` defaults
    to the keys of the first returned row (insertion order preserved).

    ``workers`` > 1 shards the points across a process pool — ``fn`` must
    then be picklable (module-level) — and is guaranteed to produce a
    :class:`SweepResult` identical to the serial run.  Worker failures
    surface as :class:`repro.parallel.ShardExecutionError` with the
    offending grid point attached to each
    :class:`~repro.parallel.ShardFailure`.

    Raises :class:`repro.core.validation.EmptySweepError` (a
    :class:`ValueError`) on an empty grid, on both execution paths.
    """
    if not points:
        raise EmptySweepError("sweep")
    if workers is not None and workers > 1:
        from ..parallel.pool import run_tasks

        calls = [dict(point) for point in points]
        rows = run_tasks(partial(_call_with_kwargs, fn), calls, workers=workers)
    else:
        rows = [fn(**point) for point in points]
    result = SweepResult(headers=list(headers) if headers else list(rows[0]))
    for row in rows:
        result.add(row)
    return result
