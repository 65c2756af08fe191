"""Command-line interface: ``python -m repro.tools.analysis src tests``.

Exit codes: 0 — clean (modulo baseline); 1 — findings (or unparsable
files); 2 — usage error, unknown pass/rule, or a malformed/unjustified
baseline.

Output formats: ``human`` (one line per finding), ``json`` (the report —
a pure function of the analyzed sources, so cold- and warm-cache runs are
byte-identical), ``sarif`` (SARIF 2.1.0, baselined findings carried as
externally-suppressed results).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.tools.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    load_baseline,
    render_baseline,
)
from repro.tools.analysis.cache import DEFAULT_CACHE_DIR, FactsCache
from repro.tools.analysis.catalog import (
    ENGINE_PACKAGES,
    EXACT_PACKAGES,
    PASSES,
    all_codes,
    iter_rules,
)
from repro.tools.analysis.engine import analyze_paths
from repro.tools.analysis.sarif import to_sarif
from repro.tools.analysis.source import AnalysisConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.analysis",
        description=(
            "Static checks for the DBP reproduction: per-file syntax rules "
            "and whole-program exactness / effect / determinism passes."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--only",
        metavar="PASSES",
        help=f"comma-separated passes to run (default: all of {','.join(PASSES)})",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            f"baseline file of sanctioned findings "
            f"(default: ./{DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help=(
            "write current findings to PATH as a baseline skeleton with "
            "TODO justifications (which the loader rejects until edited) and exit"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"facts-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the facts cache (always extract from source)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts to human output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="print the pass names and exit",
    )
    return parser


def _parse_codes(raw: str | None, parser: argparse.ArgumentParser) -> frozenset[str] | None:
    if raw is None:
        return None
    codes = frozenset(token.strip().upper() for token in raw.split(",") if token.strip())
    unknown = codes - set(all_codes())
    if unknown:
        parser.error(
            f"unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(all_codes())})"
        )
    return codes


def _parse_passes(raw: str | None, parser: argparse.ArgumentParser) -> tuple[str, ...]:
    if raw is None:
        return PASSES
    wanted = [token.strip().lower() for token in raw.split(",") if token.strip()]
    unknown = [p for p in wanted if p not in PASSES]
    if unknown:
        parser.error(
            f"unknown pass(es): {', '.join(unknown)} (known: {', '.join(PASSES)})"
        )
    return tuple(p for p in PASSES if p in wanted)


def _print_rules() -> None:
    print("Passes: " + ", ".join(PASSES))
    print("Scopes: engine = " + ", ".join(ENGINE_PACKAGES))
    print("        exact  = " + ", ".join(EXACT_PACKAGES))
    print("        src    = every repro module but not tests; all = everything")
    for rule in iter_rules():
        print(
            f"  {rule.code}  {rule.name:<32} [{rule.pass_name:>11}/{rule.scope:<6}]  "
            f"{rule.summary}"
        )


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0
    if args.list_passes:
        for name in PASSES:
            print(name)
        return 0

    if not args.paths:
        parser.error("no paths given (try: python -m repro.tools.analysis src tests)")
    for raw in args.paths:
        if not Path(raw).exists():
            parser.error(f"no such file or directory: {raw}")

    passes = _parse_passes(args.only, parser)
    config = AnalysisConfig(
        select=_parse_codes(args.select, parser),
        ignore=_parse_codes(args.ignore, parser) or frozenset(),
    )

    baseline = []
    if not args.no_baseline and args.write_baseline is None:
        baseline_path: Path | None = None
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(DEFAULT_BASELINE_NAME).is_file():
            baseline_path = Path(DEFAULT_BASELINE_NAME)
        if baseline_path is not None:
            try:
                baseline = load_baseline(baseline_path)
            except BaselineError as exc:
                print(f"baseline error: {exc}", file=sys.stderr)
                return 2

    cache = None if args.no_cache else FactsCache(args.cache_dir)
    report = analyze_paths(args.paths, config, passes=passes, cache=cache, baseline=baseline)

    if args.write_baseline is not None:
        Path(args.write_baseline).write_text(
            render_baseline(report.violations), encoding="utf-8"
        )
        print(
            f"wrote {len(report.violations)} finding(s) to {args.write_baseline}; "
            f"replace every TODO justification before using it"
        )
        return 0

    if args.format == "json":
        print(json.dumps(report.as_json(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if args.format == "sarif":
        sys.stdout.write(to_sarif(report))
        return 0 if report.ok else 1

    for path, message in report.errors:
        print(f"{path}: PARSE ERROR {message}", file=sys.stderr)
    for violation in report.violations:
        print(violation.render())
    for entry in report.stale_baseline:
        print(
            f"stale baseline entry: {entry.code} {entry.path} "
            f"(matched no finding; prune it)",
            file=sys.stderr,
        )
    if args.statistics and report.violations:
        print()
        for code, count in report.statistics().items():
            print(f"{count:>5}  {code}")
    summary = (
        f"analyzed {report.files_checked} files "
        f"[{', '.join(report.passes_run)}]: "
        f"{len(report.violations)} finding(s), "
        f"{len(report.baselined)} baselined, {report.suppressed} suppressed"
    )
    if report.errors:
        summary += f", {len(report.errors)} parse error(s)"
    print(summary)
    return 0 if report.ok else 1
