"""Parallel execution: deterministic sharding of sweeps and experiments.

Reproducing the paper's tables is embarrassingly parallel — every grid
point and every seed replication is an independent pure function — and
this package makes that parallelism free *without giving up exactness*:
a parallel run is byte-identical to the serial run at any worker count.

The contract rests on three rules:

1. **Seeds are grid parameters, not schedules.**  A point's seed is one
   of its parameters (a ``seed`` axis, as in the ``migration-frontier``
   experiment), never a worker id or a completion count; to derive one
   per point, compute :func:`~repro.parallel.seeding.derive_seed` of a
   root seed and the point's :func:`~repro.parallel.seeding.point_key`
   into that axis before the run.
2. **Merges are slotted, not appended.**  Results land in their task-index
   slot (:func:`~repro.parallel.pool.run_tasks`), so shard completion
   order is unobservable.
3. **Failures are data.**  A raising, hanging, or dying worker task
   surfaces as a typed :class:`~repro.parallel.failures.ShardFailure`
   inside one :class:`~repro.parallel.failures.ShardExecutionError` after
   the pool drains — never as a hung pool or a silently missing row.

Entry points: ``run_sweep(..., workers=N)`` in :mod:`repro.analysis.sweep`,
``run_experiments(..., parallel=N)`` in :mod:`repro.experiments.registry`,
and ``--workers`` on the CLI ``run``/``dispatch`` subcommands.
"""

from .failures import (
    FAILURE_KINDS,
    ShardExecutionError,
    ShardFailure,
    UnpicklableTaskError,
)
from .pool import PoolCounters, default_chunk_size, merge_indexed, run_tasks
from .progress import parallel_manifest, progress_printer
from .seeding import SEED_BITS, derive_seed, point_key

__all__ = [
    "FAILURE_KINDS",
    "SEED_BITS",
    "PoolCounters",
    "ShardExecutionError",
    "ShardFailure",
    "UnpicklableTaskError",
    "default_chunk_size",
    "derive_seed",
    "merge_indexed",
    "parallel_manifest",
    "point_key",
    "progress_printer",
    "run_tasks",
]
