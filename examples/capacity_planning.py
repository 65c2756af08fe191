#!/usr/bin/env python
"""Capacity planning: from closed-form estimates to a simulated frontier.

A provider asks: *how many game servers should we cap the fleet at?*
This example answers it three ways and shows they agree:

1. closed-form fluid estimates (`repro.opt.fluid`) from the workload
   parameters alone — no simulation;
2. the realized load profile of a simulated day;
3. the cost/waiting frontier from the finite-fleet engine.

Run:  python examples/capacity_planning.py
"""

from repro import FirstFit, simulate
from repro.analysis import render_table
from repro.cloud import serve_with_fleet_limit
from repro.opt import (
    expected_active_items,
    min_average_bins,
    offered_load,
    peak_bins_estimate,
)
from repro.opt.load import max_load
from repro.workloads import Clipped, Exponential, Uniform, generate_trace

# --- the workload contract ----------------------------------------------------

RATE = 2.0                                  # sessions per minute
DURATION = Clipped(Exponential(40.0), 5.0, 180.0)   # minutes
SIZE = Uniform(0.2, 0.5)                    # GPU fraction per session
HORIZON = 24 * 60.0

print("1) Fluid estimates (no simulation):")
rho = offered_load(RATE, DURATION, SIZE)
print(f"   offered load ρ = λ·E[S]·E[Z]        = {rho:.1f} GPU-capacity")
print(f"   expected active sessions λ·E[S]     = {expected_active_items(RATE, DURATION):.1f}")
print(f"   average-fleet floor ρ/W (bound b.1) = {min_average_bins(RATE, DURATION, SIZE):.1f}")
est_peak = peak_bins_estimate(RATE, DURATION, SIZE, quantile_z=3.0)
print(f"   z=3 peak provisioning estimate      = {est_peak:.1f} servers")

# --- one simulated day ---------------------------------------------------------

trace = generate_trace(
    arrival_rate=RATE, horizon=HORIZON, duration=DURATION, size=SIZE, seed=7
)
result = simulate(trace.items, FirstFit())
print(f"\n2) Simulated day: {len(trace)} sessions")
print(f"   realized peak load        = {float(max_load(trace.items)):.1f}")
print(f"   unlimited-fleet peak      = {result.max_bins_used} servers")
print(f"   unlimited-fleet cost      = {float(result.total_cost()):.0f} server-min")

# --- the frontier ---------------------------------------------------------------

print("\n3) Finite-fleet frontier (queueing policy):")
caps = sorted({int(round(est_peak * f)) for f in (0.5, 0.7, 0.85, 1.0, 1.2)})
rows = []
for cap in caps:
    rep = serve_with_fleet_limit(trace.items, FirstFit(), fleet_limit=cap)
    rows.append(
        [
            cap,
            f"{cap / est_peak:.2f}",
            f"{rep.mean_wait:.2f}",
            f"{float(rep.max_wait):.1f}",
            f"{rep.queue_rate:.1%}",
            f"{float(rep.total_cost):.0f}",
        ]
    )
print(
    render_table(
        ["cap", "cap / z3-estimate", "mean wait", "max wait", "queued", "cost"],
        rows,
    )
)
print(
    "\nThe z=3 fluid estimate lands where waits vanish — the back-of-envelope\n"
    "number a provider would pick before ever running a simulation, validated."
)
