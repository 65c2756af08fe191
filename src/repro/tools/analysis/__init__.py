"""The static checker: per-file syntax rules and whole-program passes.

The reproduction's headline claims — exact bin-time cost accounting
(Theorems 1-5), byte-identical seeded replays, float-identical
checkpoint/resume — rest on invariants ordinary linters do not check.
This package checks them, DBP001–DBP016, over a project call graph —
methods resolved through the class hierarchy, Protocol dispatch fanned out
over every registered algorithm, observer callbacks over every observer —
in four passes over per-file facts:

* **syntax** — per-file checks run once at extraction: float ``==`` on
  costs (DBP003), frozen-object mutation resolved project-wide (DBP004),
  mutable defaults (DBP006), missing ``slots=True`` (DBP007), unjustified
  suppressions (DBP008), raw size order comparisons (DBP010), engine
  concurrency imports (DBP016);
* **exactness** — float-qualifier dataflow proving no *engine-introduced*
  float (literal, ``float()`` cast, ``math.*`` result, ``int/int`` true
  division) reaches a billed-cost expression (DBP011) or a checkpoint
  payload (DBP012);
* **effects** — one effect extractor (reads-clock, performs-io,
  global-rng, mutates-argument/global seeds): reported in the engine as
  DBP001/DBP002/DBP009, as DBP005 for an observer hook's own argument
  writes, and closed over everything reachable from ``SimulationObserver``
  hooks and ``choose_bin`` implementations (DBP013);
* **determinism** — unordered set/dict-listing iteration feeding engine
  decisions or serialized artifacts (DBP014), and parallel worker tasks
  touching shared mutable state (DBP015).

Run it as ``python -m repro.tools.analysis src tests``; see
``docs/ANALYSIS.md`` for the rule catalogue and the baseline/suppression
workflow.  Extraction results are cached by source-content hash, findings
can be sanctioned inline (``# dbp: noqa[DBPnnn] -- why``) or via a
justified committed baseline, and output is available as human text,
deterministic JSON, or SARIF 2.1.0.
"""

from repro.tools.analysis.baseline import (
    BaselineEntry,
    BaselineError,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.tools.analysis.cache import FactsCache
from repro.tools.analysis.callgraph import ProjectIndex
from repro.tools.analysis.catalog import (
    ANALYSIS_RULES,
    ENGINE_PACKAGES,
    EXACT_PACKAGES,
    PASSES,
    SCOPES,
    AnalysisRule,
    all_codes,
    iter_rules,
    scope_applies,
)
from repro.tools.analysis.cli import main
from repro.tools.analysis.effects import compute_effect_summaries
from repro.tools.analysis.engine import AnalysisReport, analyze_paths, analyze_sources
from repro.tools.analysis.exactness import compute_return_summaries
from repro.tools.analysis.facts import ModuleFacts, extract_module_facts
from repro.tools.analysis.sarif import sarif_document, to_sarif
from repro.tools.analysis.source import (
    AnalysisConfig,
    Suppression,
    Violation,
    module_name_for,
    scan_suppressions,
)

__all__ = [
    "ANALYSIS_RULES",
    "AnalysisConfig",
    "AnalysisReport",
    "AnalysisRule",
    "BaselineEntry",
    "BaselineError",
    "ENGINE_PACKAGES",
    "EXACT_PACKAGES",
    "FactsCache",
    "ModuleFacts",
    "PASSES",
    "ProjectIndex",
    "SCOPES",
    "Suppression",
    "Violation",
    "all_codes",
    "analyze_paths",
    "analyze_sources",
    "apply_baseline",
    "compute_effect_summaries",
    "compute_return_summaries",
    "extract_module_facts",
    "iter_rules",
    "load_baseline",
    "main",
    "module_name_for",
    "render_baseline",
    "sarif_document",
    "scan_suppressions",
    "scope_applies",
    "to_sarif",
]
