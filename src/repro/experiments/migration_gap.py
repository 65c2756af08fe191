"""Experiment E15 (extension) — the price of never migrating.

The paper forbids migration ("migration of game instances ... is not
preferable due to large migration overheads").  Fully dynamic bin packing
(Ivkovic & Lloyd) allows it.  This experiment measures the cost of that
restriction: blind online First Fit vs the repack-at-every-event FFD
schedule (an *upper* bound on what any migrating policy must pay, and on
OPT_total itself) across load levels.

Expected shape (checked): the migration gap stays modest (well under the
theorems' worst cases) and *grows* with load — at light load most bins
hold one item and there is nothing for migration to fix, while contention
leaves fragmentation that only repacking reclaims.

The gap is measured against FF *with bounded migration*
(:class:`repro.renting.BoundedRepacker` at migration factor β = 1
through the engine's ``migrate`` operation) — a policy the engine can
actually execute, move by settled move.  The FFD rebuild's cost sits
beside it in the ``ffd_repack`` column (the OPT bracket's upper end, an
ad-hoc schedule rather than a migrating run); its rows are pinned by
``tests/test_migration_gap_pins.py``.
"""

from __future__ import annotations

from typing import Sequence

from ..algorithms import FirstFit
from ..analysis.sweep import SweepResult
from ..core.simulator import simulate
from ..core.streaming import simulate_stream
from ..opt.lower_bounds import opt_bracket
from ..renting import BoundedRepacker
from ..workloads.distributions import Clipped, Exponential, Uniform
from ..workloads.generators import generate_trace
from .registry import ClaimCheck, ExperimentResult, register_experiment


def _trace(rate: float, seed: int, horizon: float):
    return generate_trace(
        arrival_rate=rate,
        horizon=horizon,
        duration=Clipped(Exponential(3.0), 1.0, 9.0),
        size=Uniform(0.1, 0.7),
        seed=seed,
    )


@register_experiment(
    "migration-gap",
    display="Related work (fully dynamic DBP)",
    description="Online no-migration FF vs FF with bounded migration (β = 1) "
    "and vs the repack-every-event FFD rebuild, across load levels",
)
def run(
    rates: Sequence[float] = (0.5, 2.0, 8.0),
    seeds: Sequence[int] = (0, 1, 2),
    horizon: float = 120.0,
) -> ExperimentResult:
    table = SweepResult(
        headers=[
            "rate",
            "seed",
            "items",
            "ff_cost",
            "bounded_repack",
            "migrations",
            "ffd_repack",
            "opt_lb",
            "migration_gap",
        ]
    )
    gaps_by_rate: dict[float, list[float]] = {r: [] for r in rates}
    sane = True
    ff_sane = True
    for rate in rates:
        for seed in seeds:
            trace = _trace(rate, seed, horizon)
            ff = float(simulate(trace.items, FirstFit()).total_cost())
            repacker = BoundedRepacker(factor=1)
            repacked = float(
                simulate_stream(
                    iter(trace.items), FirstFit(), repacker=repacker
                ).total_cost
            )
            bracket = opt_bracket(trace.items)
            gap = ff / repacked
            gaps_by_rate[rate].append(gap)
            sane = sane and float(bracket.pointwise_lb) <= repacked * (1 + 1e-9)
            ff_sane = ff_sane and float(bracket.pointwise_lb) <= ff * (1 + 1e-9)
            table.add(
                {
                    "rate": rate,
                    "seed": seed,
                    "items": len(trace),
                    "ff_cost": ff,
                    "bounded_repack": repacked,
                    "migrations": repacker.migrations_done,
                    "ffd_repack": float(bracket.ffd_ub),
                    "opt_lb": float(bracket.pointwise_lb),
                    "migration_gap": gap,
                }
            )
    means = {r: sum(g) / len(g) for r, g in gaps_by_rate.items()}
    return ExperimentResult(
        name="migration-gap",
        title="The price of never migrating (FF vs FF + bounded migration, β = 1)",
        table=table,
        checks=[
            ClaimCheck(
                claim="migration gap stays below 1.6 on all workloads "
                "(≪ the 2μ+13 worst case)",
                holds=all(g < 1.6 for gs in gaps_by_rate.values() for g in gs),
            ),
            ClaimCheck(
                claim="mean gap grows from the lightest to the heaviest load "
                "(fragmentation accumulates under contention)",
                holds=means[rates[0]] <= means[rates[-1]],
                detail=", ".join(f"rate {r}: {m:.3f}" for r, m in means.items()),
            ),
            ClaimCheck(
                claim="the migrating run never beats the OPT lower bound",
                holds=sane,
            ),
            ClaimCheck(claim="FF never beats the OPT lower bound", holds=ff_sane),
        ],
        notes=[
            "bounded_repack is a real migrating execution (every move settled "
            "by the engine); ffd_repack is the FFD schedule rebuilt at every "
            "event, the upper end of the OPT bracket."
        ],
    )

