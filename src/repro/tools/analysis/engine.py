"""Analyzer orchestration: load → extract (cached) → index → passes → report.

:func:`analyze_paths` is the whole tool behind the CLI; tests drive
:func:`analyze_sources` with in-memory fixture modules under fake engine
module names, so every rule can be exercised without touching the
committed tree.

The report's :meth:`AnalysisReport.as_json` output is deliberately a pure
function of the analyzed sources — cache hit/miss counters live on the
report object but are **excluded** from the JSON so cold and warm cached
runs emit byte-identical findings (CI diffs them).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.tools.analysis.baseline import BaselineEntry, apply_baseline
from repro.tools.analysis.cache import FactsCache
from repro.tools.analysis.callgraph import ProjectIndex
from repro.tools.analysis.catalog import PASSES
from repro.tools.analysis.determinism import run_determinism_pass
from repro.tools.analysis.effects import compute_effect_summaries, run_effects_pass
from repro.tools.analysis.exactness import run_exactness_pass
from repro.tools.analysis.facts import ModuleFacts, extract_module_facts
from repro.tools.analysis.source import (
    AnalysisConfig,
    Violation,
    apply_suppressions,
    load_source_files,
    parse_source,
)
from repro.tools.analysis.syntax import run_syntax_pass

__all__ = ["AnalysisReport", "analyze_paths", "analyze_sources"]


@dataclass(slots=True)
class AnalysisReport:
    """Outcome of one whole-program analyzer run."""

    violations: list[Violation] = field(default_factory=list)
    #: Findings matched (and silenced) by the committed baseline.
    baselined: list[tuple[Violation, BaselineEntry]] = field(default_factory=list)
    #: Baseline entries that matched nothing (prune candidates).
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)
    passes_run: tuple[str, ...] = PASSES
    #: Cache telemetry — NOT part of :meth:`as_json` (byte-stability).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def statistics(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return dict(sorted(counts.items()))

    def as_json(self) -> dict[str, object]:
        return {
            "passes": list(self.passes_run),
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "violations": [v.as_json() for v in self.violations],
            "baselined": [
                {**v.as_json(), "justification": entry.justification}
                for v, entry in self.baselined
            ],
            "stale_baseline": [
                {"code": e.code, "path": e.path, "contains": e.contains}
                for e in self.stale_baseline
            ],
            "errors": [{"path": p, "message": m} for p, m in self.errors],
            "statistics": self.statistics(),
            "ok": self.ok,
        }


def _validate_passes(passes: Sequence[str]) -> tuple[str, ...]:
    unknown = [p for p in passes if p not in PASSES]
    if unknown:
        raise ValueError(f"unknown pass(es) {unknown}; options: {list(PASSES)}")
    # Preserve canonical execution order regardless of input order.
    return tuple(p for p in PASSES if p in passes)


def _run_passes(
    facts: list[ModuleFacts],
    config: AnalysisConfig,
    passes: tuple[str, ...],
) -> list[Violation]:
    index = ProjectIndex(facts)
    violations: list[Violation] = []
    summaries = None
    if "effects" in passes or "determinism" in passes:
        summaries = compute_effect_summaries(index)
    if "syntax" in passes:
        violations.extend(run_syntax_pass(index, config))
    if "exactness" in passes:
        violations.extend(run_exactness_pass(index, config))
    if "effects" in passes:
        violations.extend(run_effects_pass(index, config, summaries))
    if "determinism" in passes:
        violations.extend(run_determinism_pass(index, config, summaries))
    return violations


def _finish_report(
    report: AnalysisReport,
    facts: list[ModuleFacts],
    violations: list[Violation],
    baseline: Sequence[BaselineEntry],
) -> AnalysisReport:
    # Inline suppression comments (shared dbp syntax), applied per file.
    suppressions_by_path = {f.path: f.suppressions for f in facts}
    kept_all: list[Violation] = []
    for violation in violations:
        kept, dropped = apply_suppressions(
            [violation], suppressions_by_path.get(violation.path, {})
        )
        kept_all.extend(kept)
        report.suppressed += dropped
    # Committed baseline with justifications.
    kept_final, baselined, stale = apply_baseline(kept_all, list(baseline))
    report.violations = sorted(kept_final, key=Violation.sort_key)
    report.baselined = sorted(baselined, key=lambda pair: pair[0].sort_key())
    report.stale_baseline = stale
    report.files_checked = len(facts)
    return report


def analyze_paths(
    paths: Sequence[str | Path],
    config: AnalysisConfig | None = None,
    *,
    passes: Sequence[str] = PASSES,
    cache: FactsCache | None = None,
    baseline: Sequence[BaselineEntry] = (),
) -> AnalysisReport:
    """Analyze files and directory trees; the CLI is a thin wrapper."""
    config = config or AnalysisConfig()
    passes = _validate_passes(passes)
    report = AnalysisReport(passes_run=passes)
    parsed_files, errors = load_source_files(paths, config)
    report.errors.extend(errors)
    facts: list[ModuleFacts] = []
    for parsed in parsed_files:
        if cache is not None:
            key = FactsCache.key(parsed.module, parsed.source)
            cached = cache.get(key)
            if cached is None:
                cached = extract_module_facts(parsed)
                cache.put(key, cached)
            elif cached.path != parsed.path:
                # The key is path-free: report this run's display path.
                cached = replace(cached, path=parsed.path)
            facts.append(cached)
        else:
            facts.append(extract_module_facts(parsed))
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
    violations = _run_passes(facts, config, passes)
    return _finish_report(report, facts, violations, baseline)


def analyze_sources(
    sources: Mapping[str, str],
    config: AnalysisConfig | None = None,
    *,
    passes: Sequence[str] = PASSES,
    baseline: Sequence[BaselineEntry] = (),
) -> AnalysisReport:
    """Analyze in-memory modules (``{module name: source}``).

    This is the test harness's entry point: fixtures under
    ``tests/lint_fixtures/`` and ``tests/analysis_fixtures/`` (excluded
    from tree runs) are read and fed through here with fake ``repro.core.*``
    module names so engine- and exact-scoped rules apply.
    """
    config = config or AnalysisConfig()
    passes = _validate_passes(passes)
    report = AnalysisReport(passes_run=passes)
    facts: list[ModuleFacts] = []
    for module in sorted(sources):
        path = module.replace(".", "/") + ".py"
        try:
            parsed = parse_source(sources[module], path=path, module=module)
        except SyntaxError as exc:
            report.errors.append((path, str(exc)))
            continue
        facts.append(extract_module_facts(parsed))
    violations = _run_passes(facts, config, passes)
    return _finish_report(report, facts, violations, baseline)
