"""Line-coverage ratchet for the engine packages.

The CI ``coverage`` job measures tier-1 line coverage with ``pytest-cov``
and fails if coverage of the gated packages — ``repro.algorithms`` and
``repro.core`` — drops below the committed floor in
``coverage-baseline.json``.  Reports come from ``pytest --cov-report=json``;
this module reads them:

* ``check`` — compare a report against the baseline floors and exit
  non-zero on a drop.
* ``update`` — rewrite the baseline floors from a report (floor =
  measured percent rounded down, minus a safety margin so unrelated
  interpreter/tool variation cannot flake the gate).

Usage::

    PYTHONPATH=src python -m pytest -q --cov=repro.algorithms --cov=repro.core \\
        --cov-report=json:coverage.json
    python -m repro.tools.coverage_gate check coverage.json
    python -m repro.tools.coverage_gate update coverage.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "GATED_PACKAGES",
    "package_percents",
    "check_report",
    "main",
]

#: Packages whose line coverage is ratcheted; keys of the baseline file.
GATED_PACKAGES = ("repro.algorithms", "repro.core")

#: Default safety margin (percentage points) subtracted when writing floors.
FLOOR_MARGIN = 2.0

DEFAULT_BASELINE = "coverage-baseline.json"


def _package_of(file_key: str) -> str | None:
    """Map a report file key to its gated package (or ``None``).

    ``pytest-cov`` keys may or may not carry the ``src/`` prefix
    (``src/repro/core/bin.py`` or ``repro/core/bin.py``) depending on how
    ``--cov`` was invoked.
    """
    normalized = file_key.replace("\\", "/")
    if "src/" in normalized:
        normalized = normalized.split("src/", 1)[1]
    for package in GATED_PACKAGES:
        prefix = "/".join(package.split(".")) + "/"
        if normalized.startswith(prefix):
            return package
    return None


def package_percents(report: dict[str, Any]) -> dict[str, float]:
    """Aggregate line coverage per gated package from a JSON report."""
    statements: dict[str, int] = {p: 0 for p in GATED_PACKAGES}
    covered: dict[str, int] = {p: 0 for p in GATED_PACKAGES}
    for file_key, entry in report["files"].items():
        package = _package_of(file_key)
        if package is None:
            continue
        summary = entry["summary"]
        statements[package] += summary["num_statements"]
        covered[package] += summary["covered_lines"]
    return {
        p: (100.0 * covered[p] / statements[p] if statements[p] else 0.0)
        for p in GATED_PACKAGES
    }


def check_report(
    report: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Failures (empty = gate passes): packages below their floors."""
    measured = package_percents(report)
    failures = []
    for package, floor in baseline["packages"].items():
        got = measured.get(package)
        if got is None:
            failures.append(f"{package}: not present in the coverage report")
        elif got < floor - 1e-9:
            failures.append(
                f"{package}: line coverage {got:.2f}% dropped below the "
                f"committed floor {floor:.2f}%"
            )
    return failures


def _cmd_check(args: argparse.Namespace) -> int:
    report = json.loads(Path(args.report).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    for package, percent in package_percents(report).items():
        floor = baseline["packages"].get(package)
        floor_txt = f" (floor {floor:.2f}%)" if floor is not None else ""
        print(f"{package}: {percent:.2f}%{floor_txt}")
    failures = check_report(report, baseline)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("coverage gate passed")
    return 1 if failures else 0


def _cmd_update(args: argparse.Namespace) -> int:
    report = json.loads(Path(args.report).read_text())
    floors = {
        package: max(0.0, math.floor(percent) - args.margin)
        for package, percent in package_percents(report).items()
    }
    payload = {
        "note": (
            "Line-coverage floors for the gated engine packages; CI fails if "
            "a measured run drops below them.  Regenerate with "
            "`python -m repro.tools.coverage_gate update <report>` only when "
            "coverage has genuinely improved."
        ),
        "packages": floors,
    }
    Path(args.baseline).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.baseline}: {floors}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.coverage_gate", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="gate a report against the baseline")
    check.add_argument("report")
    check.add_argument("--baseline", default=DEFAULT_BASELINE)
    check.set_defaults(fn=_cmd_check)

    update = sub.add_parser("update", help="rewrite the baseline floors")
    update.add_argument("report")
    update.add_argument("--baseline", default=DEFAULT_BASELINE)
    update.add_argument("--margin", type=float, default=FLOOR_MARGIN)
    update.set_defaults(fn=_cmd_update)

    args = parser.parse_args(argv)
    fn: Callable[[argparse.Namespace], int] = args.fn
    return fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
