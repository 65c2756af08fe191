"""Experiment registry: every paper display (table/figure/theorem) is one
named, parameterised, reproducible experiment.

Experiments return an :class:`ExperimentResult` — a titled table of rows
plus a list of claim checks — and are runnable from the CLI
(``python -m repro run thm1-anyfit``) and from the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..analysis.sweep import SweepResult
from ..core.validation import EmptySweepError

__all__ = [
    "ClaimCheck",
    "ExperimentResult",
    "register_experiment",
    "get_experiment",
    "available_experiments",
    "experiment_info",
    "run_experiments",
]


@dataclass(frozen=True, slots=True)
class ClaimCheck:
    """One paper claim evaluated on measured data."""

    claim: str
    holds: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.holds else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{status}] {self.claim}{suffix}"


@dataclass
class ExperimentResult:
    """The output of one experiment run."""

    name: str
    title: str
    table: SweepResult
    checks: list[ClaimCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def render(self, *, precision: int = 4) -> str:
        parts = [self.table.to_table(title=self.title, precision=precision)]
        if self.checks:
            parts.append("")
            parts.extend(str(c) for c in self.checks)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


@dataclass(frozen=True, slots=True)
class _Entry:
    fn: Callable[..., ExperimentResult]
    display: str  # which paper display it reproduces
    description: str


_REGISTRY: dict[str, _Entry] = {}


def register_experiment(
    name: str, *, display: str, description: str
) -> Callable[[Callable[..., ExperimentResult]], Callable[..., ExperimentResult]]:
    """Decorator registering an experiment ``run`` function.

    An experiment's result must be a pure function of its parameters (no
    wall clock): the parallel differential suite byte-compares every
    result with its serial run.
    """

    def deco(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        _REGISTRY[name] = _Entry(fn=fn, display=display, description=description)
        return fn

    return deco


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment runner by name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name].fn
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from None


def available_experiments() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def experiment_info(name: str) -> dict[str, Any]:
    _ensure_loaded()
    entry = _REGISTRY[name]
    return {
        "name": name,
        "display": entry.display,
        "description": entry.description,
    }


def _run_experiment_task(name: str) -> ExperimentResult:
    """Worker-side shard body: run one registered experiment by name.

    Module-level (hence picklable) and addressed by registry *name*, so a
    spawned worker re-imports the catalogue and resolves the same function
    the coordinator would — no code objects cross the process boundary.
    """
    return get_experiment(name)()


def run_experiments(
    names: Sequence[str] | None = None,
    *,
    parallel: int | None = None,
    on_progress: Callable[[int, int, int], None] | None = None,
    on_result: Callable[[int, ExperimentResult], None] | None = None,
) -> list[ExperimentResult]:
    """Run a batch of experiments, optionally sharded across processes.

    ``names`` defaults to the whole catalogue (in registry order).
    ``parallel`` is the worker count; ``None``/``0``/``1`` runs serially in
    this process.  Every experiment is deterministic given its default
    parameters, and results are returned in ``names`` order whatever the
    completion order, so the parallel path returns results equal to the
    serial path — the differential suite byte-compares their JSON exports.

    Unknown names raise ``KeyError`` up front (before any worker starts);
    worker failures surface as :class:`repro.parallel.ShardExecutionError`
    with the experiment name attached to each failure record.

    ``on_progress(completed, total, index)`` and
    ``on_result(index, result)`` follow the
    :func:`repro.parallel.run_tasks` contract on both paths (serially,
    results arrive in ``names`` order).
    """
    batch = list(names) if names is not None else available_experiments()
    if not batch:
        raise EmptySweepError("experiment batch")
    for name in batch:
        get_experiment(name)  # fail fast on unknown names
    if parallel is not None and parallel > 1:
        from ..parallel.pool import run_tasks

        return run_tasks(
            _run_experiment_task,
            batch,
            workers=parallel,
            on_progress=on_progress,
            on_result=on_result,
        )
    results = []
    for index, name in enumerate(batch):
        result = _run_experiment_task(name)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
        if on_progress is not None:
            on_progress(index + 1, len(batch), index)
    return results


def _ensure_loaded() -> None:
    """Import every experiment module so registration side effects run."""
    from . import (  # noqa: F401
        anomalies_experiment,
        bounds_sandwich,
        capacity_cap,
        chaos_experiment,
        clairvoyance_gap,
        classic_dbp,
        constrained_dbp,
        engine_scaling,
        fault_tolerance,
        flash_crowd,
        fleet_mix,
        mff_experiment,
        migration_frontier,
        migration_gap,
        observability,
        offline_gaps,
        prediction_noise,
        synthetic_eval,
        thm1_anyfit,
        thm2_bestfit,
        thm3_large_items,
        thm4_small_items,
        thm5_general_ff,
        vector_dbp,
    )
