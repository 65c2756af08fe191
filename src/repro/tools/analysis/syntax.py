"""Syntax pass: the per-file checks (DBP003/004/006/007/008/010/016).

The checks themselves run once per file at extraction
(:class:`~repro.tools.analysis.facts.ModuleFacts` stores their findings, so
a warm run re-walks no AST); this pass only scopes and selects them.
DBP004's attribute stores are the one exception that needs the whole
program: a store is a finding when the annotated class is frozen in *any*
analyzed module, which the project index knows.
"""

from __future__ import annotations

from repro.tools.analysis.callgraph import ProjectIndex
from repro.tools.analysis.catalog import ANALYSIS_RULES, finding, scope_applies
from repro.tools.analysis.source import AnalysisConfig, Violation

__all__ = ["run_syntax_pass"]


def run_syntax_pass(index: ProjectIndex, config: AnalysisConfig) -> list[Violation]:
    violations: list[Violation] = []
    frozen = index.frozen_classes()
    for module in sorted(index.modules):
        facts = index.modules[module]
        for local in facts.findings:
            rule = ANALYSIS_RULES[local.code]
            if config.rule_enabled(rule.code) and scope_applies(rule.scope, module):
                violations.append(finding(facts.path, local.loc, rule.code, local.message))
        if not config.rule_enabled("DBP004") or not scope_applies(
            ANALYSIS_RULES["DBP004"].scope, module
        ):
            continue
        for store in facts.frozen_mutations:
            if not frozen.intersection(store.classes):
                continue
            if store.target == "self":
                message = (
                    f"assignment to attribute {store.attr!r} of frozen class "
                    f"{store.classes[0]!r} outside __init__/__post_init__"
                )
            else:
                message = (
                    f"assignment to attribute {store.attr!r} of {store.target!r}, "
                    "which is annotated with a frozen class"
                )
            violations.append(finding(facts.path, store.loc, "DBP004", message))
    violations.sort(key=Violation.sort_key)
    return violations
