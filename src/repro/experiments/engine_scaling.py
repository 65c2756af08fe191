"""Engine-scaling experiment: the indexed streamed engine vs the seed scan.

Not a paper display — an infrastructure experiment guarding the scale-out
refactor.  For each trace size, the same seeded workload is packed twice:
once by the O(n log n) engine (indexed selection protocol, lazy heap-merge
event stream, O(active)-memory recording off) and once by the seed-style
O(n²) engine (materialized trace, list-scan selection, full recording).
The claim checked is **exact equivalence**: both engines must open the same
number of bins and accrue the same total cost — the streamed index is a
pure speedup, never a different packing.  The experiment reads no clock;
throughput is measured by :mod:`benchmarks.bench_engine_scaling` and the
``dbpbench`` harness.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..algorithms import BestFit, FirstFit, PackingAlgorithm
from ..analysis.sweep import SweepResult
from ..core.simulator import simulate
from ..core.streaming import simulate_stream
from ..workloads.distributions import Clipped, Exponential, Uniform
from ..workloads.generators import stream_trace
from .registry import ClaimCheck, ExperimentResult, register_experiment


def _fleet() -> list[PackingAlgorithm]:
    return [FirstFit(), BestFit()]


def _workload(n_items: int, seed: int):
    """A scan-heavy workload: long sessions, large items, many open bins."""
    return dict(
        arrival_rate=100.0,
        duration=Clipped(Exponential(100.0), 20.0, 200.0),
        size=Uniform(0.3, 0.9),
        n_items=n_items,
        seed=seed,
    )


@register_experiment(
    "engine-scaling",
    display="Engine scale-out",
    description="Streamed indexed engine vs seed list scan: identical packings",
)
def run(
    sizes: Sequence[int] = (2000,),
    seeds: Sequence[int] = (0,),
) -> ExperimentResult:
    table = SweepResult(
        headers=[
            "algorithm",
            "items",
            "seed",
            "bins(stream)",
            "bins(scan)",
        ]
    )
    equivalent = True
    for algo in _fleet():
        for n_items in sizes:
            for seed in seeds:
                summary = simulate_stream(
                    stream_trace(**_workload(n_items, seed)), algo
                )
                items = list(stream_trace(**_workload(n_items, seed)))
                result = simulate(items, algo, indexed=False)

                # Cost is compared with a tolerance: the streaming engine
                # sums usage in close order, the result in opening order,
                # and float addition is order-sensitive at the last ulp.
                same = (
                    summary.num_bins_used == result.num_bins_used
                    and summary.peak_open_bins == result.max_bins_used
                    and math.isclose(
                        summary.total_cost, result.total_cost(), rel_tol=1e-9
                    )
                )
                equivalent = equivalent and same
                table.add(
                    {
                        "algorithm": algo.name,
                        "items": summary.num_items,
                        "seed": seed,
                        "bins(stream)": summary.num_bins_used,
                        "bins(scan)": result.num_bins_used,
                    }
                )
    checks = [
        ClaimCheck(
            claim="streamed indexed engine reproduces the seed list-scan "
            "packing exactly (bins, peak, total cost)",
            holds=equivalent,
        )
    ]
    return ExperimentResult(
        name="engine-scaling",
        title="Engine scale-out: streamed indexed vs seed list scan",
        table=table,
        checks=checks,
        notes=[
            "throughput is benchmarks/bench_engine_scaling.py's and "
            "dbpbench's to measure; this table checks only equivalence"
        ],
    )
