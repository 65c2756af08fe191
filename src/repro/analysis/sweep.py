"""Parameter sweeps: the grid-runner behind the experiment tables.

A sweep calls a row-producing function once per grid point.  With
``workers=N`` the points are sharded across a process pool
(:func:`repro.parallel.run_tasks`) under the package's determinism
contract: rows land in grid order whatever the completion order, and any
per-point seeds are derived from ``root_seed`` plus the point's canonical
key — so the parallel :class:`SweepResult` is identical to the serial one
at every worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.validation import EmptySweepError

__all__ = ["grid", "run_sweep", "SweepResult", "seeded_points"]


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


def seeded_points(
    points: Sequence[Mapping[str, Any]],
    root_seed: int,
    *,
    seed_param: str = "seed",
) -> list[dict[str, Any]]:
    """Attach a derived, order-independent seed to every grid point.

    Each point gains ``seed_param`` set to
    ``derive_seed(root_seed, point_key(point))`` — a pure function of the
    root seed and the point's parameters, so the same point receives the
    same seed in any process, on any worker, in any execution order.
    Points that already carry ``seed_param`` are rejected: mixing explicit
    and derived seeds in one sweep is almost certainly a bug.
    """
    from ..parallel.seeding import derive_seed, point_key

    out: list[dict[str, Any]] = []
    for point in points:
        if seed_param in point:
            raise ValueError(
                f"grid point {dict(point)!r} already has {seed_param!r}; "
                "either seed the grid explicitly or derive seeds, not both"
            )
        seeded = dict(point)
        seeded[seed_param] = derive_seed(root_seed, point_key(point))
        out.append(seeded)
    return out


def _call_with_kwargs(fn: Callable[..., Mapping[str, Any]], kwargs: dict[str, Any]):
    """Module-level shim so sharded sweep calls pickle cleanly."""
    return fn(**kwargs)


def run_sweep(
    fn: Callable[..., Mapping[str, Any]],
    points: Sequence[Mapping[str, Any]],
    *,
    headers: Sequence[str] | None = None,
    workers: int | None = None,
    root_seed: int | None = None,
    seed_param: str = "seed",
    timeout: float | None = None,
    retries: int = 1,
    chunk_size: int | None = None,
    metrics: Any = None,
    on_progress: Callable[[int, int, int], None] | None = None,
) -> SweepResult:
    """Call ``fn(**point)`` for each grid point; collect the returned rows.

    ``fn`` returns a mapping of column name → value.  ``headers`` defaults
    to the keys of the first returned row (insertion order preserved).

    ``root_seed`` (optional) derives a per-point ``seed_param`` argument
    via :func:`seeded_points`.  ``workers`` > 1 shards the points across a
    process pool — ``fn`` must then be picklable (module-level) — and is
    guaranteed to produce a :class:`SweepResult` identical to the serial
    run; ``timeout``/``retries``/``chunk_size``/``metrics``/``on_progress``
    are forwarded to :func:`repro.parallel.run_tasks`.
    Worker failures surface as :class:`repro.parallel.ShardExecutionError`
    with the offending grid point attached to each
    :class:`~repro.parallel.ShardFailure`.

    Raises :class:`repro.core.validation.EmptySweepError` (a
    :class:`ValueError`) on an empty grid, on both execution paths.
    """
    if not points:
        raise EmptySweepError("sweep")
    calls: list[dict[str, Any]] = (
        seeded_points(points, root_seed, seed_param=seed_param)
        if root_seed is not None
        else [dict(point) for point in points]
    )
    if workers is not None and workers > 1:
        from ..parallel.pool import run_tasks

        rows = run_tasks(
            partial(_call_with_kwargs, fn),
            calls,
            workers=workers,
            timeout=timeout,
            retries=retries,
            chunk_size=chunk_size,
            metrics=metrics,
            on_progress=on_progress,
        )
    else:
        rows = []
        for index, kwargs in enumerate(calls):
            rows.append(fn(**kwargs))
            if on_progress is not None:
                on_progress(index + 1, len(calls), index)
    result = SweepResult(headers=list(headers) if headers else list(rows[0]))
    for row in rows:
        result.add(row)
    return result
