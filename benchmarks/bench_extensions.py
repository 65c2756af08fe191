"""E12-E15 — extension benchmarks: constrained DBP, clairvoyance, classic
objective, migration gap."""

from repro import FirstFit, simulate
from repro.analysis.classic_dbp import max_bins_lower_bound
from repro.clairvoyant import MinExpandFit, simulate_clairvoyant
from repro.constrained import (
    ConstrainedFirstFit,
    RegionTopology,
    generate_constrained_trace,
)
from repro.experiments import get_experiment
from repro.opt.lower_bounds import opt_bracket


def test_bench_constrained_dispatch(benchmark):
    topo = RegionTopology.ring(4, 2)
    trace = generate_constrained_trace(topology=topo, seed=0, horizon=12 * 60.0)
    result = benchmark(lambda: simulate(trace.items, ConstrainedFirstFit()))
    # Shape: every placement respects its zone allow-set (spot-checked by
    # the test suite; here assert bins carry zone labels).
    assert all(b.label in topo.zones for b in result.bins)


def test_bench_constrained_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("constrained-dbp")(
            num_zones=3, seeds=(0,), horizon=4 * 60.0, arrival_rate=0.3
        )
    )
    assert result.all_claims_hold


def test_bench_clairvoyant_simulate(benchmark, gaming_trace_day):
    blind = simulate(gaming_trace_day.items, FirstFit())
    aware = benchmark(
        lambda: simulate_clairvoyant(gaming_trace_day.items, MinExpandFit())
    )
    # Shape: knowing departures does not hurt (and usually helps).
    assert float(aware.total_cost()) <= float(blind.total_cost()) * 1.02


def test_bench_clairvoyance_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("clairvoyance-gap")(
            mu_levels=(2.0, 20.0), seeds=(0, 1), horizon=80.0
        )
    )
    assert result.all_claims_hold


def test_bench_maxbins_objective(benchmark, gaming_trace_day):
    result = simulate(gaming_trace_day.items, FirstFit())
    lb = benchmark(lambda: max_bins_lower_bound(gaming_trace_day.items))
    assert 1 <= lb <= result.max_bins_used
    # Coffman et al.: FF's MaxBins ratio ≤ 2.897 (empirically far below).
    assert result.max_bins_used / lb <= 2.897


def test_bench_classic_dbp_experiment(benchmark):
    # Two seeds: the rank-disagreement claim needs enough algorithm pairs
    # on enough traces to manifest.
    result = benchmark(lambda: get_experiment("classic-dbp")(seeds=(0, 1), horizon=100.0))
    assert result.all_claims_hold


def test_bench_migration_gap(benchmark, gaming_trace_day):
    ff_cost = float(simulate(gaming_trace_day.items, FirstFit()).total_cost())

    def run():
        return float(opt_bracket(gaming_trace_day.items).ffd_ub)

    repack = benchmark(run)
    assert 1.0 <= ff_cost / repack < 1.6


def test_bench_migration_gap_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("migration-gap")(rates=(0.5, 6.0), seeds=(0,), horizon=80.0)
    )
    assert result.all_claims_hold


def test_bench_no_migration_opt(benchmark):
    from repro.opt import no_migration_opt_total, opt_total_exact
    from repro.workloads import Clipped, Exponential, Uniform, generate_trace

    trace = generate_trace(
        arrival_rate=0.5,
        horizon=20.0,
        duration=Clipped(Exponential(4.0), 1.0, 10.0),
        size=Uniform(0.25, 0.75),
        seed=2,
    )
    items = tuple(sorted(trace.items, key=lambda it: it.arrival))[:10]
    nomig = benchmark(lambda: float(no_migration_opt_total(items)))
    assert nomig >= float(opt_total_exact(items)) - 1e-9


def test_bench_offline_gaps_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("offline-gaps")(seeds=(0,), num_items_target=8)
    )
    assert result.all_claims_hold


def test_bench_fleet_mix_experiment(benchmark):
    result = benchmark(lambda: get_experiment("fleet-mix")(seeds=(0,), horizon=8 * 60.0))
    assert result.all_claims_hold


def test_bench_flash_crowd_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("flash-crowd")(
            burst_factors=(1.0, 8.0), seeds=(0, 1), horizon=200.0
        )
    )
    assert result.all_claims_hold


def test_bench_capacity_cap_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("capacity-cap")(caps=(4, 12, 500), seeds=(0,), horizon=6 * 60.0)
    )
    assert result.all_claims_hold


def test_bench_finite_fleet_serve(benchmark, gaming_trace_day):
    from repro.cloud import serve_with_fleet_limit

    rep = benchmark(
        lambda: serve_with_fleet_limit(gaming_trace_day.items, FirstFit(), fleet_limit=30)
    )
    assert rep.peak_servers <= 30
    assert rep.num_served == len(gaming_trace_day)


def test_bench_prediction_noise_experiment(benchmark):
    result = benchmark(
        lambda: get_experiment("prediction-noise")(
            sigmas=(0.0, 2.0), seeds=(0, 1), horizon=80.0
        )
    )
    assert result.all_claims_hold


def test_bench_anomaly_search(benchmark):
    from repro.analysis.anomalies import find_removal_anomalies
    from repro.workloads import Clipped, Exponential, Uniform, generate_trace

    trace = generate_trace(
        arrival_rate=2.0,
        horizon=30.0,
        duration=Clipped(Exponential(3.0), 1.0, 8.0),
        size=Uniform(0.2, 0.7),
        seed=0,
    )
    found = benchmark(
        lambda: find_removal_anomalies(list(trace.items), FirstFit, stop_after=1)
    )
    assert found  # seed 0 carries a known anomaly


def test_bench_telemetry_overhead(benchmark, gaming_trace_day):
    """Observer hooks should cost little; this tracks the tax."""
    from repro.obs import MetricsObserver

    def run():
        metrics = MetricsObserver()
        result = simulate(gaming_trace_day.items, FirstFit(), observers=[metrics])
        return metrics, result

    metrics, result = benchmark(run)
    assert metrics.registry["dbp_open_bins"].peak == result.max_bins_used
