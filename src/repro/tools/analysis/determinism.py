"""Determinism-audit pass: DBP014 and DBP015.

DBP014 reports extraction's unordered-iteration sites directly: a
``set``/``frozenset`` value or a directory listing (``os.listdir``,
``Path.glob``/``iterdir``/…) consumed in an order-sensitive position —
``for`` loops, comprehensions, ``list()``/``tuple()`` materialisation,
unpacking, ``str.join``.  Order-insensitive consumers (``sorted``, ``len``,
``min``/``max``, membership) never produce a site.

DBP015 combines extraction's dispatch sites with the interprocedural
effect summaries: a task handed to ``run_tasks``/``submit``/``pool.map``/…
must not (transitively) write a module-level mutable — each worker process
would update a private copy, making results depend on task placement — and
an inline lambda/closure task must not capture a mutable variable from an
enclosing scope.
"""

from __future__ import annotations

from repro.tools.analysis.callgraph import ProjectIndex
from repro.tools.analysis.catalog import ANALYSIS_RULES, scope_applies
from repro.tools.analysis.effects import Witness, compute_effect_summaries
from repro.tools.analysis.source import AnalysisConfig, Violation

__all__ = ["run_determinism_pass"]


def run_determinism_pass(
    index: ProjectIndex,
    config: AnalysisConfig,
    summaries: dict[str, dict[str, Witness]] | None = None,
) -> list[Violation]:
    if summaries is None:
        summaries = compute_effect_summaries(index)
    violations: list[Violation] = []
    violations.extend(_unordered_iteration(index, config))
    violations.extend(_worker_shared_state(index, config, summaries))
    violations.sort(key=Violation.sort_key)
    return violations


def _unordered_iteration(index: ProjectIndex, config: AnalysisConfig) -> list[Violation]:
    rule = ANALYSIS_RULES["DBP014"]
    if not config.rule_enabled(rule.code):
        return []
    violations: list[Violation] = []
    for module in sorted(index.modules):
        if not scope_applies(rule.scope, module):
            continue
        facts = index.modules[module]
        for site in facts.iteration_sites:
            if site.kind == "listing":
                detail = (
                    f"{site.detail} order depends on the filesystem; "
                    f"wrap the listing in sorted()"
                )
            else:
                detail = (
                    f"iteration order of {site.detail} depends on "
                    f"PYTHONHASHSEED; iterate sorted(...) instead"
                )
            violations.append(
                Violation(
                    path=facts.path,
                    line=site.loc.line,
                    col=site.loc.col,
                    code=rule.code,
                    rule=rule.name,
                    message=f"unordered iteration: {detail}",
                    end_line=site.loc.end_line,
                )
            )
    return violations


def _worker_shared_state(
    index: ProjectIndex,
    config: AnalysisConfig,
    summaries: dict[str, dict[str, Witness]],
) -> list[Violation]:
    rule = ANALYSIS_RULES["DBP015"]
    if not config.rule_enabled(rule.code):
        return []
    violations: list[Violation] = []
    for module in sorted(index.modules):
        if not scope_applies(rule.scope, module):
            continue
        facts = index.modules[module]
        for site in facts.dispatch_sites:
            for desc, name in site.closure_captures:
                violations.append(
                    Violation(
                        path=facts.path,
                        line=site.loc.line,
                        col=site.loc.col,
                        code=rule.code,
                        rule=rule.name,
                        message=(
                            f"{site.api}() task {desc} captures mutable "
                            f"{name!r} from an enclosing scope; each worker "
                            f"mutates a divergent copy — pass it as a task "
                            f"argument instead"
                        ),
                        end_line=site.loc.end_line,
                    )
                )
            for ref in site.task_refs:
                targets = (
                    [ref.resolved]
                    if ref.resolved in index.functions
                    else index.resolve_name_in_module(module, ref.method)
                )
                for target in targets:
                    fn = index.functions[target]
                    effects = summaries.get(target, {})
                    for effect in sorted(effects):
                        if not effect.startswith("mutates-global:"):
                            continue
                        witness = effects[effect]
                        violations.append(
                            Violation(
                                path=facts.path,
                                line=site.loc.line,
                                col=site.loc.col,
                                code=rule.code,
                                rule=rule.name,
                                message=(
                                    f"{site.api}() task {ref.method}() "
                                    f"(transitively) writes module global "
                                    f"{effect.split(':', 1)[1]!r} via "
                                    f"{' -> '.join(witness.chain)}; worker "
                                    f"processes mutate divergent copies"
                                ),
                                end_line=site.loc.end_line,
                            )
                        )
                    for captured in fn.captured_mutables:
                        violations.append(
                            Violation(
                                path=facts.path,
                                line=site.loc.line,
                                col=site.loc.col,
                                code=rule.code,
                                rule=rule.name,
                                message=(
                                    f"{site.api}() task {ref.method}() captures "
                                    f"mutable {captured!r} from an enclosing "
                                    f"scope; pass it as a task argument instead"
                                ),
                                end_line=site.loc.end_line,
                            )
                        )
    return violations
