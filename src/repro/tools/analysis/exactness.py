"""Exactness-flow pass: DBP011 (cost sinks) and DBP012 (checkpoint payloads).

The per-file extraction already classified every cost/payload sink
expression as either *locally contaminated* (a float literal, ``float()``
cast, ``math.*`` result, or ``int/int`` true division reaches it inside the
file) or *call-dependent* (exact unless some callee returns an
engine-introduced float).  This pass closes the call-dependent half with an
interprocedural fixpoint over ``returns_introduced``: a function returns an
engine-introduced float if its own return expression introduces one, or if
the return value depends on a call to a function that (transitively) does.

Only *engine-introduced* floats count.  A value that arrives as a float
from the caller (annotated ``float`` parameter, parsed trace data) is the
caller's business; this pass hunts the conversions the engine itself
performs.
"""

from __future__ import annotations

from repro.tools.analysis.callgraph import ProjectIndex
from repro.tools.analysis.catalog import ANALYSIS_RULES, scope_applies
from repro.tools.analysis.source import AnalysisConfig, Violation

__all__ = ["compute_return_summaries", "run_exactness_pass"]


def compute_return_summaries(index: ProjectIndex) -> dict[str, str]:
    """Fixpoint map ``qualname -> reason`` for float-returning functions.

    The reason string explains *why* the return value is an
    engine-introduced float, including the call chain when the introduction
    happens in a callee.
    """
    summary: dict[str, str] = {}
    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        if fn.returns_introduced:
            summary[qualname] = fn.return_reason or "returns an engine-introduced float"

    changed = True
    while changed:
        changed = False
        for qualname in sorted(index.functions):
            if qualname in summary:
                continue
            fn = index.functions[qualname]
            for dep in fn.return_call_deps:
                for target in index.resolve(fn, dep):
                    if target in summary:
                        callee = target.split(":", 1)[1]
                        summary[qualname] = (
                            f"returns the result of {callee}() "
                            f"[{summary[target]}]"
                        )
                        changed = True
                        break
                if qualname in summary:
                    break
    return summary


_SINK_CODES = {"cost": "DBP011", "payload": "DBP012"}


def run_exactness_pass(index: ProjectIndex, config: AnalysisConfig) -> list[Violation]:
    summaries = compute_return_summaries(index)
    violations: list[Violation] = []
    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        facts = index.modules[fn.module]
        for flow in fn.flows:
            code = _SINK_CODES[flow.sink]
            rule = ANALYSIS_RULES[code]
            if not config.rule_enabled(code):
                continue
            if not scope_applies(rule.scope, fn.module):
                continue
            noun = "cost sink" if flow.sink == "cost" else "checkpoint payload"
            if flow.introduced:
                reason = flow.reason
            else:
                reason = None
                for dep in flow.call_deps:
                    for target in index.resolve(fn, dep):
                        if target in summaries:
                            callee = target.split(":", 1)[1]
                            reason = (
                                f"call to {callee}() returns an engine-introduced "
                                f"float [{summaries[target]}]"
                            )
                            break
                    if reason is not None:
                        break
                if reason is None:
                    continue  # every callee is exact or external
            violations.append(
                Violation(
                    path=facts.path,
                    line=flow.loc.line,
                    col=flow.loc.col,
                    code=code,
                    rule=rule.name,
                    message=(
                        f"engine-introduced float reaches {noun} "
                        f"{flow.sink_name}: {reason}; keep the value int/Fraction "
                        f"(Fraction division, exact accumulators)"
                    ),
                    end_line=flow.loc.end_line,
                )
            )
    violations.sort(key=Violation.sort_key)
    return violations
