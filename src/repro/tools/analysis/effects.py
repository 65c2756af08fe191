"""Effect pass: the extractor's seeds, reported and closed (DBP001/002/005/009/013).

The per-file seeds are reported directly in engine scope: ``global-rng``
as DBP001, ``reads-clock`` as DBP002, ``performs-io`` as DBP009, and an
observer hook's own ``mutates-param:<name>`` seeds (its body, its lambdas
and the functions nested in it) as DBP005.  DBP013 closes the same seeds
over the call graph, so a fix to a seed reaches both.

Every function gets an *effect summary* — the set of ambient effects
observable by calling it: ``reads-clock``, ``performs-io``, ``global-rng``,
``mutates-global:<name>``, and ``mutates-param:<param>``.  Local seeds come
from extraction; this pass closes them over the call graph:

* Ambient effects (clock/io/rng/global mutation) propagate to every caller
  unconditionally.
* ``mutates-param`` propagates *through the argument mapping*: if callee
  ``g`` mutates its parameter ``xs`` and caller ``f`` passes its own
  parameter ``items`` in that position, then ``f`` mutates ``items``.
  Mutation of objects the caller created locally is invisible to *its*
  callers, which is exactly the right cut-off.
* A nested function's mutation of an enclosing function's parameter
  (``mutates-param`` named after that parameter) propagates to the
  encloser when it calls the nested function.

Each propagated effect carries a witness chain ("calls g() (line 12) →
time.time() (line 40)") so a DBP013 report names the full path from the
hook to the offending primitive — DBP005 only sees the hook body; DBP013
guarantees the property over everything reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tools.analysis.callgraph import ProjectIndex
from repro.tools.analysis.catalog import ANALYSIS_RULES, finding, scope_applies
from repro.tools.analysis.source import AnalysisConfig, Violation

__all__ = ["Witness", "compute_effect_summaries", "run_effects_pass"]

_AMBIENT = ("reads-clock", "performs-io", "global-rng")
_MAX_CHAIN = 8


@dataclass(frozen=True, slots=True)
class Witness:
    """Where an effect enters a function, and the chain that explains it."""

    line: int
    chain: tuple[str, ...]


def _short(qualname: str) -> str:
    return qualname.split(":", 1)[1]


def compute_effect_summaries(index: ProjectIndex) -> dict[str, dict[str, Witness]]:
    """Fixpoint ``qualname -> {effect -> witness}`` over the call graph."""
    summaries: dict[str, dict[str, Witness]] = {}
    for qualname in sorted(index.functions):
        fn = index.functions[qualname]
        local: dict[str, Witness] = {}
        for effect in fn.effects:
            local.setdefault(
                effect.effect,
                Witness(
                    line=effect.loc.line,
                    chain=(f"{effect.detail} (line {effect.loc.line})",),
                ),
            )
        summaries[qualname] = local

    changed = True
    while changed:
        changed = False
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            own = summaries[qualname]
            for site in fn.calls:
                targets = sorted(index.resolve(fn, site.ref))
                for target in targets:
                    callee = index.functions[target]
                    callee_effects = summaries[target]
                    for effect in sorted(callee_effects):
                        witness = callee_effects[effect]
                        step = f"calls {_short(target)}() (line {site.ref.loc.line})"
                        chain = (step, *witness.chain)[:_MAX_CHAIN]
                        if effect in _AMBIENT or effect.startswith("mutates-global:"):
                            if effect not in own:
                                own[effect] = Witness(site.ref.loc.line, chain)
                                changed = True
                            continue
                        if effect.startswith("mutates-param:"):
                            param = effect.split(":", 1)[1]
                            mapped = _map_param(fn, site, callee, param)
                            if mapped is None or mapped == "self":
                                continue
                            mapped_effect = f"mutates-param:{mapped}"
                            if mapped_effect not in own:
                                own[mapped_effect] = Witness(site.ref.loc.line, chain)
                                changed = True
    return summaries


def _map_param(fn, site, callee, param: str) -> str | None:
    """Which of the caller's params is passed as callee's ``param``, if any."""
    try:
        position = callee.params.index(param)
    except ValueError:
        # A parameter the nested callee closes over is the caller's own.
        return param if callee.qualname.startswith(fn.qualname + ".") else None
    offset = 1 if callee.params and callee.params[0] == "self" and site.ref.kind != "name" else 0
    for pos, caller_param in site.pos_params:
        if pos == position - offset:
            return caller_param
    for kw, caller_param in site.kw_params:
        if kw == param:
            return caller_param
    return None


_ROOT_LABEL = {"observer-hook": "observer hook", "choose-bin": "choose_bin implementation"}

#: Seed kind -> the rule reporting it, and the message tail.
_SEED_RULES = {
    "global-rng": (
        "DBP001",
        "uses the global RNG; draw from an explicitly seeded generator instead",
    ),
    "reads-clock": ("DBP002", "reads the wall clock inside the engine"),
    "performs-io": (
        "DBP009",
        "is a side channel in engine code; emit through observer hooks instead",
    ),
}


def run_effects_pass(
    index: ProjectIndex,
    config: AnalysisConfig,
    summaries: dict[str, dict[str, Witness]] | None = None,
) -> list[Violation]:
    if summaries is None:
        summaries = compute_effect_summaries(index)
    violations = _seed_reports(index, config)
    violations.extend(_hook_mutations(index, config))
    violations.extend(_impure_hooks(index, config, summaries))
    violations.sort(key=Violation.sort_key)
    return violations


def _seed_reports(index: ProjectIndex, config: AnalysisConfig) -> list[Violation]:
    """DBP001/DBP002/DBP009: every ambient seed of an engine module."""
    violations: list[Violation] = []
    for module in sorted(index.modules):
        facts = index.modules[module]
        seeds = [*facts.module_effects, *(e for fn in facts.functions for e in fn.effects)]
        for seed in seeds:
            if seed.effect not in _SEED_RULES:
                continue
            code, tail = _SEED_RULES[seed.effect]
            if config.rule_enabled(code) and scope_applies(
                ANALYSIS_RULES[code].scope, module
            ):
                violations.append(finding(facts.path, seed.loc, code, f"{seed.detail} {tail}"))
    return violations


def _hook_mutations(index: ProjectIndex, config: AnalysisConfig) -> list[Violation]:
    """DBP005: an observer hook's own writes to its arguments."""
    rule = ANALYSIS_RULES["DBP005"]
    if not config.rule_enabled(rule.code):
        return []
    violations: list[Violation] = []
    for qualname, kind in index.hook_roots():
        hook = index.functions[qualname]
        if kind != "observer-hook" or not scope_applies(rule.scope, hook.module):
            continue
        facts = index.modules[hook.module]
        nested = [fn for fn in facts.functions if fn.qualname.startswith(hook.qualname + ".")]
        for fn in [hook, *nested]:
            for seed in fn.effects:
                if not seed.effect.startswith("mutates-param:"):
                    continue
                param = seed.effect.split(":", 1)[1]
                if param not in hook.params:
                    continue
                if fn is not hook and param in fn.params:
                    continue  # the nested function's own parameter
                violations.append(
                    finding(
                        facts.path,
                        seed.loc,
                        rule.code,
                        f"observer hook {hook.name!r} mutates its argument "
                        f"{param!r} ({seed.detail}); hooks must not mutate "
                        "observed state",
                    )
                )
    return violations


def _impure_hooks(
    index: ProjectIndex,
    config: AnalysisConfig,
    summaries: dict[str, dict[str, Witness]],
) -> list[Violation]:
    """DBP013: hook roots whose closed effect summary is not empty."""
    rule = ANALYSIS_RULES["DBP013"]
    if not config.rule_enabled(rule.code):
        return []
    violations: list[Violation] = []
    for qualname, kind in index.hook_roots():
        fn = index.functions[qualname]
        if not scope_applies(rule.scope, fn.module):
            continue
        facts = index.modules[fn.module]
        effects = summaries.get(qualname, {})
        for effect in sorted(effects):
            if effect == "mutates-param:self":
                continue
            witness = effects[effect]
            violations.append(
                Violation(
                    path=facts.path,
                    line=witness.line,
                    col=fn.loc.col,
                    code=rule.code,
                    rule=rule.name,
                    message=(
                        f"{_ROOT_LABEL[kind]} {_short(qualname)}() is not "
                        f"transitively pure: {effect} via "
                        f"{' -> '.join(witness.chain)}"
                    ),
                    end_line=witness.line,
                )
            )
    return violations
