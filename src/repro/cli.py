"""Command-line interface: run experiments, generate and dispatch traces.

Usage::

    python -m repro list
    python -m repro run thm1-anyfit
    python -m repro run all --strict
    python -m repro algorithms
    python -m repro generate --kind gaming --seed 7 --out day.json
    python -m repro dispatch day.json --algorithm best-fit
    python -m repro dispatch day.json --trace-out day.trace.jsonl --metrics obs/
    python -m repro verify-trace day.trace.jsonl
    python -m repro viz day.json --algorithm first-fit --width 72
    python -m repro chaos --seed 7 --workers 4 --out chaos.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .algorithms import available_algorithms, get_algorithm
from .experiments import available_experiments, experiment_info, get_experiment

if TYPE_CHECKING:
    from .experiments import ExperimentResult
    from .obs import MetricsRegistry

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mintotal-dbp",
        description="MinTotal Dynamic Bin Packing — reproduction of Li, Tang & "
        "Cai (SPAA 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments")
    sub.add_parser("algorithms", help="list the registered packing algorithms")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment name from 'list', or 'all'")
    run_p.add_argument(
        "--precision", type=int, default=4, help="significant digits in tables"
    )
    run_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any paper claim fails",
    )
    run_p.add_argument(
        "--out", type=Path, default=None, help="also write results as JSON to this path"
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard experiments across N worker processes (results are "
        "identical to the serial run; progress goes to stderr)",
    )
    run_p.add_argument(
        "--serve-metrics",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="PORT",
        help="serve the fleet-wide merged registry live over HTTP while "
        "experiments run (omit the port for an ephemeral one; the URL is "
        "printed to stderr)",
    )

    gen_p = sub.add_parser("generate", help="generate a synthetic trace file")
    gen_p.add_argument(
        "--kind",
        choices=["gaming", "poisson", "bursts"],
        default="gaming",
        help="workload family",
    )
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--horizon", type=float, default=24 * 60.0, help="trace length")
    gen_p.add_argument("--rate", type=float, default=1.0, help="arrival rate (poisson/bursts)")
    gen_p.add_argument("--out", type=Path, required=True, help="output .json or .csv path")

    disp_p = sub.add_parser("dispatch", help="serve a trace file with one algorithm")
    disp_p.add_argument("trace", type=Path, help=".json or .csv trace file")
    disp_p.add_argument(
        "--algorithm",
        default="first-fit",
        help="registry name, or a comma-separated list to compare several",
    )
    disp_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="with a list of algorithms: dispatch them across N worker "
        "processes (the comparison table is identical to the serial run)",
    )
    disp_p.add_argument("--capacity", type=float, default=1.0, help="bin capacity W")
    disp_p.add_argument("--rate", type=float, default=1.0, help="cost rate C")
    disp_p.add_argument(
        "--quantum", type=float, default=None, help="billing quantum (e.g. 60 for hourly)"
    )
    disp_p.add_argument(
        "--migration-factor",
        type=float,
        default=None,
        metavar="BETA",
        help="migration-bounded dispatch: every arriving session of size s "
        "grants BETA*s of moved-size budget to a consolidating repacker "
        "(0 keeps the run byte-identical to no-migration); switches to "
        "streamed dispatch",
    )
    disp_p.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a lifecycle trace (JSONL) to this path; switches to "
        "streamed dispatch",
    )
    disp_p.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="write metrics.json / metrics.prom / manifest.json into this "
        "directory; switches to streamed dispatch",
    )
    disp_p.add_argument(
        "--profile",
        action="store_true",
        help="profile hot paths (adds profile.json to --metrics, prints a "
        "phase report); switches to streamed dispatch",
    )
    disp_p.add_argument(
        "--serve-metrics",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="PORT",
        help="serve /metrics, /snapshot.json, /healthz, /readyz live from "
        "the running dispatch (omit the port for an ephemeral one) with a "
        "heartbeat line on stderr; switches to streamed dispatch",
    )

    vt_p = sub.add_parser(
        "verify-trace", help="replay a lifecycle trace and check its summary"
    )
    vt_p.add_argument("trace", type=Path, help="JSONL trace written by --trace-out")

    report_p = sub.add_parser("report", help="run experiments and write a markdown report")
    report_p.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: the whole catalogue)",
    )
    report_p.add_argument("--out", type=Path, default=None, help="output .md path (default: stdout)")
    report_p.add_argument("--precision", type=int, default=4)

    viz_p = sub.add_parser("viz", help="render a packing timeline for a trace file")
    viz_p.add_argument("trace", type=Path)
    viz_p.add_argument("--algorithm", default="first-fit")
    viz_p.add_argument("--capacity", type=float, default=1.0)
    viz_p.add_argument("--width", type=int, default=72)
    viz_p.add_argument("--max-bins", type=int, default=24)

    chaos_p = sub.add_parser(
        "chaos",
        help="run the seeded chaos campaign (crash/resume, corruption "
        "detection, worker kills) and report its invariants",
    )
    chaos_p.add_argument("--seed", type=int, default=0, help="campaign seed")
    chaos_p.add_argument(
        "--items", type=int, default=200, help="sessions per scenario"
    )
    chaos_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard in-process scenarios across N pool workers (the report "
        "is byte-identical at any worker count)",
    )
    chaos_p.add_argument(
        "--no-worker-kill",
        action="store_true",
        help="skip the pool worker-kill scenario",
    )
    chaos_p.add_argument(
        "--out", type=Path, default=None, help="write the campaign report JSON here"
    )
    chaos_p.add_argument(
        "--serve-metrics",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="PORT",
        help="serve live campaign-progress metrics over HTTP while the "
        "scenarios run (omit the port for an ephemeral one)",
    )
    return parser


class _InputError(Exception):
    """A name, path or value given on the command line that cannot be used.

    :func:`main` prints it as one stderr line and exits 2, the usage-error
    code, so a typo never reads as a failed paper claim (exit 1).
    """


def _require_known(kind: str, names: Sequence[str], known: Sequence[str]) -> None:
    for name in names:
        if name not in known:
            raise _InputError(f"unknown {kind} {name!r}; known: {', '.join(known)}")


def _require_positive(**options: float | None) -> None:
    """Reject a numeric option that is not positive (NaN included);
    ``None`` means the option was not given."""
    for name, value in options.items():
        if value is not None and not value > 0:
            raise _InputError(f"--{name} must be positive, got {value}")


def _require_at_least(minimum: int, **options: int) -> None:
    """Reject an integer option below ``minimum``."""
    for name, value in options.items():
        if value < minimum:
            option = name.replace("_", "-")
            raise _InputError(f"--{option} must be at least {minimum}, got {value}")


def _require_fits(trace, capacity: float) -> None:
    """Reject a trace with an item that no bin of ``capacity`` holds."""
    from .core.item import validate_items
    from .core.validation import TraceValidationError

    try:
        validate_items(trace.items, capacity=capacity)
    except TraceValidationError as exc:
        raise _InputError(str(exc)) from None


def _load_trace(path: Path):
    from .workloads import Trace

    try:
        text = path.read_text()
        if path.suffix == ".csv":
            return Trace.from_csv(text, name=path.stem)
        return Trace.from_json(text)
    except OSError as exc:
        raise _InputError(f"cannot read trace {path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise _InputError(
            f"invalid trace {path}: {type(exc).__name__}: {exc}"
        ) from None


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads import (
        Clipped,
        Exponential,
        Uniform,
        generate_burst_trace,
        generate_gaming_trace,
        generate_trace,
    )

    _require_positive(horizon=args.horizon, rate=args.rate)
    if args.kind == "gaming":
        trace = generate_gaming_trace(seed=args.seed, horizon=args.horizon)
    elif args.kind == "poisson":
        trace = generate_trace(
            arrival_rate=args.rate,
            horizon=args.horizon,
            duration=Clipped(Exponential(30.0), 5.0, 240.0),
            size=Uniform(0.1, 0.6),
            seed=args.seed,
        )
    else:
        trace = generate_burst_trace(
            num_bursts=max(1, int(args.horizon // 30)),
            burst_size=max(1, int(args.rate * 30)),
            burst_spacing=30.0,
            duration=Clipped(Exponential(30.0), 5.0, 240.0),
            size=Uniform(0.1, 0.6),
            seed=args.seed,
        )
    payload = trace.to_csv() if args.out.suffix == ".csv" else trace.to_json()
    args.out.write_text(payload)
    stats = trace.stats
    print(
        f"wrote {len(trace)} items to {args.out} "
        f"(span {float(stats.span):.4g}, mu {float(stats.mu):.4g})"
    )
    return 0


def _dispatch_task(task: dict) -> dict:
    """Worker-side shard body for ``dispatch --workers``: one algorithm.

    Receives only plain data (trace path and server parameters), reloads
    the trace in the worker, and returns the summary row — so shards stay
    cheap to pickle and fully independent.
    """
    from .cloud import ServerType, dispatch_trace

    trace = _load_trace(Path(task["trace"]))
    server = ServerType(
        gpu_capacity=task["capacity"],
        rate=task["rate"],
        billing_quantum=task["quantum"],
    )
    report = dispatch_trace(trace, get_algorithm(task["algorithm"]), server_type=server)
    return dict(report.summary_row())


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from .cloud import ServerType, dispatch_trace

    algorithms = [name.strip() for name in args.algorithm.split(",") if name.strip()]
    _require_known("algorithm", algorithms, available_algorithms())
    observed = (
        args.trace_out is not None
        or args.metrics is not None
        or args.profile
        or args.serve_metrics is not None
    )
    migrating = args.migration_factor is not None
    if migrating and not args.migration_factor >= 0:  # also rejects NaN
        print(
            f"dispatch: --migration-factor must be >= 0, got "
            f"{args.migration_factor}",
            file=sys.stderr,
        )
        return 2
    if len(algorithms) > 1 and (observed or migrating):
        print(
            "dispatch: --trace-out/--metrics/--profile/--serve-metrics/"
            "--migration-factor need a single --algorithm",
            file=sys.stderr,
        )
        return 2
    _require_positive(capacity=args.capacity, rate=args.rate, quantum=args.quantum)
    trace = _load_trace(args.trace)
    # Checked here, before the shards and the streamed paths do any work.
    _require_fits(trace, args.capacity)
    if len(algorithms) > 1:
        return _dispatch_compare(args, algorithms)
    algo = get_algorithm(algorithms[0])
    server = ServerType(
        gpu_capacity=args.capacity, rate=args.rate, billing_quantum=args.quantum
    )
    if observed or migrating:
        return _dispatch_streamed(args, trace, algo, server, observed=observed)
    report = dispatch_trace(trace, algo, server_type=server)
    for key, value in report.summary_row().items():
        print(f"{key:14s} {value}")
    return 0


def _dispatch_compare(args: argparse.Namespace, algorithms: list[str]) -> int:
    """Dispatch one trace under several algorithms, optionally sharded."""
    from .analysis.tables import render_table
    from .parallel import progress_printer, run_tasks

    tasks = [
        {
            "trace": str(args.trace),
            "algorithm": name,
            "capacity": args.capacity,
            "rate": args.rate,
            "quantum": args.quantum,
        }
        for name in algorithms
    ]
    if args.workers > 1:
        rows = run_tasks(
            _dispatch_task,
            tasks,
            workers=args.workers,
            on_progress=progress_printer(sys.stderr, label="dispatch"),
        )
    else:
        rows = [_dispatch_task(task) for task in tasks]
    headers = list(rows[0])
    print(
        render_table(
            headers,
            [[row.get(h) for h in headers] for row in rows],
            title=f"dispatch comparison: {args.trace.name}",
        )
    )
    return 0


def _dispatch_streamed(
    args: argparse.Namespace, trace, algo, server, *, observed: bool
) -> int:
    """Streamed dispatch, with the repacker and observers the flags ask for.

    ``--migration-factor`` adds a :class:`~repro.renting.BoundedRepacker`:
    sessions may be consolidated onto fewer servers within that budget,
    each move settled exactly by the engine.  ``observed`` attaches the
    repro.obs stack (trace, metrics, profile, live export), which sees the
    repacker's moves like any other event; unobserved, the session has no
    observers and leaves the algorithm unwrapped.
    """
    from .cloud import dispatch_stream
    from .obs import ObservationSession
    from .renting import BoundedRepacker

    repacker = (
        BoundedRepacker(factor=args.migration_factor)
        if args.migration_factor is not None
        else None
    )
    session = ObservationSession(
        algo,
        capacity=server.gpu_capacity,
        cost_rate=server.rate,
        trace=args.trace_out,
        metrics=observed,
        profile=args.profile,
        workload={"trace_file": args.trace.name, "num_items": len(trace)},
        extra={"billing_quantum": server.billing_quantum},
    )
    extra_observers: tuple = ()
    live_server = live_obs = None
    uninstall = None
    if args.serve_metrics is not None:
        from .obs import (
            FlightObserver,
            FlightRecorder,
            Heartbeat,
            LiveExportObserver,
            LiveMetricsServer,
            install_signal_dump,
        )

        live_server = LiveMetricsServer(port=args.serve_metrics).start()
        print(f"live metrics on {live_server.url}/metrics", file=sys.stderr)
        heartbeat = Heartbeat(sys.stderr, total_items=len(trace), label="dispatch")
        live_obs = LiveExportObserver(
            session.registry, live_server, heartbeat=heartbeat
        )
        # A killed live run should still explain itself: keep a flight
        # ring and dump it as a post-mortem on SIGTERM.
        flight = FlightRecorder(
            capacity=256,
            path=args.metrics / "flight.jsonl" if args.metrics is not None else None,
        )
        uninstall = install_signal_dump(flight)
        extra_observers = (live_obs, FlightObserver(flight))
    try:
        # Streamed dispatch requires arrival order; trace files may be unsorted.
        items = iter(sorted(trace.items, key=lambda it: it.arrival))
        report = dispatch_stream(
            items,
            session.instrumented,
            server_type=server,
            observers=session.observers + extra_observers,
            repacker=repacker,
        )
        session.finish(report.summary)
        if live_obs is not None:
            live_obs.publish()  # final snapshot equals the artifact bytes
        print(f"{'algorithm':14s} {report.algorithm_name}")
        if repacker is not None:
            print(f"{'beta':14s} {args.migration_factor}")
        print(f"{'sessions':14s} {report.num_sessions}")
        print(f"{'servers':14s} {report.num_servers_rented}")
        print(f"{'peak':14s} {report.peak_concurrent_servers}")
        print(f"{'cost(cont)':14s} {float(report.continuous_cost)}")
        print(f"{'cost(billed)':14s} {float(report.billed_cost)}")
        if repacker is not None:
            print(f"{'migrations':14s} {repacker.migrations_done}")
            print(f"{'size moved':14s} {float(repacker.size_moved)}")
            print(f"{'emptied':14s} {repacker.bins_emptied}")
        if args.trace_out is not None:
            print(f"trace written to {args.trace_out} ({session.tracer.records_written} records)")
        if args.metrics is not None:
            written = session.write_artifacts(args.metrics)
            if live_server is not None:
                from .obs import scrape

                live_path = Path(args.metrics) / "metrics.live.prom"
                live_path.write_bytes(scrape(live_server.port))
                written["metrics_live_prom"] = live_path
            for name in sorted(written):
                print(f"{name} written to {written[name]}")
        if args.profile and session.profiler is not None:
            for phase, row in session.profiler.report().items():
                print(
                    f"phase {phase}: {int(row['count'])} timings, "
                    f"total {row['total_seconds']:.6g}s, mean {row['mean_seconds']:.3g}s"
                )
    finally:
        if uninstall is not None:
            uninstall()
        if live_server is not None:
            live_server.stop()
    return 0


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    from .obs import TraceReplayError, verify_trace

    try:
        args.trace.open("rb").close()
    except OSError as exc:
        raise _InputError(f"cannot read trace {args.trace}: {exc.strerror or exc}") from None
    try:
        summary = verify_trace(args.trace)
    except (TraceReplayError, OSError, ValueError) as exc:
        print(f"trace verification FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"trace OK: {summary.algorithm_name}, {summary.num_items} items, "
        f"{summary.num_bins_used} bins, total cost {float(summary.total_cost):.6g} "
        "(replay matches the recorded summary exactly)"
    )
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from .analysis.viz import render_load_sparkline, render_packing_timeline
    from .core.simulator import simulate

    _require_known("algorithm", [args.algorithm], available_algorithms())
    _require_positive(capacity=args.capacity)
    _require_at_least(4, width=args.width)  # the renderers' narrowest row
    _require_at_least(0, max_bins=args.max_bins)
    trace = _load_trace(args.trace)
    _require_fits(trace, args.capacity)
    result = simulate(trace.items, get_algorithm(args.algorithm), capacity=args.capacity)
    print(render_packing_timeline(result, width=args.width, max_bins=args.max_bins))
    print(render_load_sparkline(result, width=args.width))
    print(
        f"{result.algorithm_name}: {result.num_bins_used} bins, "
        f"cost {float(result.total_cost()):.6g}"
    )
    return 0


def _run_one(name: str, precision: int, collected: list) -> bool:
    result = get_experiment(name)()
    collected.append(result)
    print(result.render(precision=precision))
    print()
    return result.all_claims_hold


def _count_experiment(registry: "MetricsRegistry", result: "ExperimentResult") -> None:
    """Count one finished experiment into the ``run --serve-metrics`` registry.

    Every counter is an integer read off the result, so the totals do not
    depend on the order results arrive in, nor on the worker count.
    """
    registry.counter("dbp_experiments_completed_total", "Experiments completed").inc()
    registry.counter(
        "dbp_experiment_rows_total", "Table rows produced by experiments"
    ).inc(len(result.table.rows))
    registry.counter("dbp_claims_checked_total", "Paper claims evaluated").inc(
        len(result.checks)
    )
    registry.counter("dbp_claims_failed_total", "Paper claims that FAILED").inc(
        sum(1 for c in result.checks if not c.holds)
    )


def _cmd_run(args: argparse.Namespace) -> int:
    names = available_experiments() if args.experiment == "all" else [args.experiment]
    _require_known("experiment", names, available_experiments())
    _require_at_least(0, precision=args.precision)
    ok = True
    collected: list = []
    if (args.workers > 1 and len(names) > 1) or args.serve_metrics is not None:
        from .experiments import run_experiments
        from .parallel import progress_printer

        live_server = None
        on_result = None
        if args.serve_metrics is not None:
            from .obs import LiveMetricsServer, MetricsRegistry

            registry = MetricsRegistry()
            live_server = LiveMetricsServer(port=args.serve_metrics).start()
            print(f"live metrics on {live_server.url}/metrics", file=sys.stderr)

            def on_result(index: int, result: "ExperimentResult") -> None:
                _count_experiment(registry, result)
                live_server.publish_registry(registry)

        try:
            collected = run_experiments(
                names,
                parallel=args.workers if args.workers > 1 else None,
                on_progress=progress_printer(sys.stderr, label="experiments"),
                on_result=on_result,
            )
        finally:
            if live_server is not None:
                live_server.stop()
        for result in collected:
            print(result.render(precision=args.precision))
            print()
            ok = result.all_claims_hold and ok
    else:
        for name in names:
            ok = _run_one(name, args.precision, collected) and ok
    if args.out is not None:
        from .experiments.io import results_to_json

        args.out.write_text(results_to_json(collected))
        print(f"results written to {args.out}")
    if args.strict and not ok:
        print("some paper claims FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    _require_known("experiment", args.experiments, available_experiments())
    _require_at_least(0, precision=args.precision)
    markdown, ok = generate_report(args.experiments or None, precision=args.precision)
    if args.out is not None:
        args.out.write_text(markdown)
        print(f"report written to {args.out}")
    else:
        print(markdown)
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience import ChaosCampaignConfig, run_campaign

    _require_at_least(1, items=args.items)
    config = ChaosCampaignConfig(
        seed=args.seed,
        n_items=args.items,
        checkpoint_every=24,
        include_worker_kill=not args.no_worker_kill,
    )
    live_server = None
    on_progress = None
    if args.serve_metrics is not None:
        from .obs import LiveMetricsServer, MetricsRegistry

        registry = MetricsRegistry()
        scenarios_done = registry.counter(
            "dbp_chaos_scenarios_total", "Chaos scenarios completed"
        )
        live_server = LiveMetricsServer(port=args.serve_metrics).start()
        print(f"live metrics on {live_server.url}/metrics", file=sys.stderr)
        live_server.publish_registry(registry)

        def on_progress(completed: int, total: int, index: int) -> None:
            scenarios_done.inc()
            live_server.publish_registry(registry)
            print(f"chaos[{index}]: {completed}/{total}", file=sys.stderr)
            sys.stderr.flush()

    try:
        report = run_campaign(config, workers=args.workers, on_progress=on_progress)
    finally:
        if live_server is not None:
            live_server.stop()
    header = f"{'scenario':9s} {'kind':12s} {'trace':7s} {'param':9s} {'ok':4s} detail"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        detail = (
            f"crashes={row['crashes']} checkpoints={row['checkpoints']} "
            f"detected={row['corruptions_detected']}/{row['corruptions_injected']}"
        )
        status = "PASS" if row["ok"] else "FAIL"
        print(
            f"{row['scenario']:9s} {row['kind']:12s} {row['trace']:7s} "
            f"{row['param']:9s} {status:4s} {detail}"
        )
    totals = report.totals
    print(
        f"\n{totals['scenarios']} scenarios, {totals['failed']} failed; "
        f"{totals['crashes_injected']} crashes injected, "
        f"{totals['corruptions_detected']}/{totals['corruptions_injected']} "
        "corruptions detected"
    )
    if args.out is not None:
        args.out.write_text(report.to_json())
        print(f"campaign report written to {args.out}")
    if not report.all_pass:
        print("chaos campaign FAILED: a resilience invariant was violated", file=sys.stderr)
        return 1
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in available_experiments():
        info = experiment_info(name)
        print(f"{name:18s} {info['display']:32s} {info['description']}")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "algorithms": _cmd_algorithms,
    "run": _cmd_run,
    "generate": _cmd_generate,
    "dispatch": _cmd_dispatch,
    "verify-trace": _cmd_verify_trace,
    "report": _cmd_report,
    "viz": _cmd_viz,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
