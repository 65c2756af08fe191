"""The rule catalogue (DBP001–DBP016), the passes and the scopes.

Each rule belongs to exactly one *pass* (selectable with ``--only``) and
carries a path scope, resolved by :func:`scope_applies` from the package
constants below:

* ``"engine"`` — the packages whose decisions must replay bit-for-bit
  (:data:`ENGINE_PACKAGES`).  Experiments may time themselves with
  ``perf_counter``; the engine may not.
* ``"exact"`` — the engine plus the layers whose artifacts feed
  exact-replay oracles (:data:`EXACT_PACKAGES`: metrics snapshots,
  checkpoints).
* ``"src"`` — every ``repro`` module but not the test suite.  Float ``==``
  on costs is a bug in library code, while tests legitimately assert exact
  costs of exactly-representable constructions.
* ``"all"`` — everywhere, tests included (hygiene rules).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tools.analysis.facts import Loc
from repro.tools.analysis.source import Violation

__all__ = [
    "ANALYSIS_RULES",
    "AnalysisRule",
    "ENGINE_PACKAGES",
    "EXACT_PACKAGES",
    "PASSES",
    "SCOPES",
    "all_codes",
    "codes_for_passes",
    "finding",
    "is_test_module",
    "iter_rules",
    "scope_applies",
]

#: The exactness-critical engine packages.
ENGINE_PACKAGES: tuple[str, ...] = ("repro.core", "repro.algorithms", "repro.cloud")

#: The engine plus the observability and resilience layers, whose artifacts
#: (metrics snapshots, checkpoints) feed exact-replay oracles.
EXACT_PACKAGES: tuple[str, ...] = ENGINE_PACKAGES + ("repro.obs", "repro.resilience")

SCOPES: tuple[str, ...] = ("engine", "exact", "src", "all")

#: Pass names in execution (and ``--only``) order.
PASSES: tuple[str, ...] = ("syntax", "exactness", "effects", "determinism")


def is_test_module(module: str) -> bool:
    first = module.split(".", 1)[0]
    last = module.rsplit(".", 1)[-1]
    return first in ("tests", "test") or last.startswith("test_")


def _in_packages(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def scope_applies(scope: str, module: str) -> bool:
    """Whether a rule of ``scope`` applies to the dotted ``module``."""
    if scope == "all":
        return True
    if scope == "src":
        return not is_test_module(module)
    if scope == "engine":
        return _in_packages(module, ENGINE_PACKAGES)
    if scope == "exact":
        return _in_packages(module, EXACT_PACKAGES)
    raise ValueError(f"unknown rule scope {scope!r}; options: {SCOPES}")


@dataclass(frozen=True, slots=True)
class AnalysisRule:
    """One rule: code, pass membership, scope, and prose."""

    code: str
    name: str
    pass_name: str
    scope: str
    summary: str
    #: Rationale and remediation, rendered into SARIF rule help and the docs.
    help: str


_RULES = (
    AnalysisRule(
        code="DBP001",
        name="unseeded-randomness",
        pass_name="effects",
        scope="engine",
        summary="Engine code must draw randomness from an explicitly seeded generator",
        help=(
            "Global-RNG calls (random.random(), random.seed(), np.random.rand()), "
            "names imported from the random module, and seedless generator "
            "construction (random.Random(), np.random.default_rng()) are "
            "nondeterministic: they break seeded FaultReport byte-stability "
            "and every exact-replay oracle.  Pass an explicit seed and thread "
            "the generator through.  Reports the extractor's global-rng seeds."
        ),
    ),
    AnalysisRule(
        code="DBP002",
        name="wall-clock-time",
        pass_name="effects",
        scope="engine",
        summary="Engine code must not read the wall clock; simulation time is the only clock",
        help=(
            "time.time()/perf_counter()/datetime.now() in the engine couples "
            "results to the host machine: bin-time accounting must depend "
            "only on trace timestamps so that every run replays bit-for-bit.  "
            "Benchmarks and experiment harnesses (outside the engine) may "
            "time themselves freely.  Reports the extractor's reads-clock seeds."
        ),
    ),
    AnalysisRule(
        code="DBP003",
        name="float-eq-on-cost",
        pass_name="syntax",
        scope="src",
        summary="Accumulated costs must not be compared with == / != in library code",
        help=(
            "Costs and bin-times are accumulated with float addition, which "
            "is order-sensitive; == on them silently encodes 'the summation "
            "orders happen to agree'.  Library code must compare with an "
            "explicit tolerance -- or, for the sanctioned exact-replay "
            "oracles, suppress with a justification naming the replay argument."
        ),
    ),
    AnalysisRule(
        code="DBP004",
        name="frozen-mutation",
        pass_name="syntax",
        scope="engine",
        summary=(
            "Frozen trace/item objects must not be mutated (or bypassed via "
            "object.__setattr__)"
        ),
        help=(
            "Items, arrivals, events and reports are frozen dataclasses "
            "because downstream accounting assumes they never change after "
            "validation.  object.__setattr__ outside __init__/__post_init__ "
            "and attribute stores on values annotated with a frozen class "
            "(defined anywhere in the analyzed project) defeat that guarantee "
            "without tripping the dataclass machinery visibly."
        ),
    ),
    AnalysisRule(
        code="DBP005",
        name="observer-purity",
        pass_name="effects",
        scope="engine",
        summary=(
            "Observer hooks may mutate only their own state, never the "
            "bins/items they observe"
        ),
        help=(
            "Telemetry and billing observers receive live engine objects.  A "
            "hook that mutates its bin/item argument changes packing "
            "decisions -- the run is no longer the algorithm's run, and "
            "telemetry-on vs telemetry-off produce different costs.  Hooks "
            "must treat every argument except self as read-only.  Reports the "
            "hook's own mutates-param seeds; DBP013 follows its calls."
        ),
    ),
    AnalysisRule(
        code="DBP006",
        name="mutable-default-arg",
        pass_name="syntax",
        scope="all",
        summary="Default argument values must be immutable",
        help=(
            "A mutable default is created once and shared across calls -- "
            "state leaks between supposedly independent simulations, the "
            "classic source of works-once-then-diverges bugs.  Default to "
            "None (or a tuple) and construct inside the function."
        ),
    ),
    AnalysisRule(
        code="DBP007",
        name="missing-slots-on-hot-dataclass",
        pass_name="syntax",
        scope="engine",
        summary="Engine dataclasses must declare slots=True (per-event allocations are hot)",
        help=(
            "Engine dataclasses are allocated per event (items, events, "
            "assignments) or hold per-bin state touched on every placement; "
            "a __dict__ per instance costs memory and lookup time at "
            "10^6-item scale, and an open __dict__ invites ad-hoc attribute "
            "injection that checkpoints would silently drop.  Base-class-free "
            "dataclasses in the engine must declare slots=True (subclassing "
            "dataclasses are exempt: slots interact with inherited __dict__)."
        ),
    ),
    AnalysisRule(
        code="DBP008",
        name="unjustified-suppression",
        pass_name="syntax",
        scope="all",
        summary="dbp: noqa comments must name rule codes and carry a justification",
        help=(
            "A suppression is a recorded decision to deviate from an "
            "invariant; without the code list and the one-line why, the next "
            "refactor cannot tell a sanctioned deviation from a silenced bug."
        ),
    ),
    AnalysisRule(
        code="DBP009",
        name="engine-side-channel-io",
        pass_name="effects",
        scope="engine",
        summary="Engine code must not print or log; observers are the only output channel",
        help=(
            "The engine reports through SimulationObserver hooks and returned "
            "results -- a structured, checkpointable, byte-stable channel.  "
            "print()/open()/logging/subprocess calls (and raw sys.stdout/"
            "stderr writes) in engine paths are a side channel: they "
            "interleave nondeterministically with artifact streams, cost wall "
            "time per event on hot paths, and cannot survive a "
            "checkpoint/resume.  Route diagnostics through an observer (see "
            "repro.obs) instead.  Reports the extractor's performs-io seeds."
        ),
    ),
    AnalysisRule(
        code="DBP010",
        name="raw-size-order-comparison",
        pass_name="syntax",
        scope="engine",
        summary="Engine code must compare sizes via the dominance helpers, not <//>",
        help=(
            "Sizes are vectors under dominance, a partial order: a > b is not "
            "the negation of a <= b (incomparable vectors answer False both "
            "ways), so a raw item.size > capacity silently accepts oversize "
            "items the moment a trace goes multi-dimensional.  Engine code "
            "must go through repro.core.resources.size_fits (or the "
            "scalarisation helpers when a ranking is wanted); only the "
            "dominance algebra itself (repro.core.resources) and the fit "
            "primitive (repro.core.bin) compare sizes directly."
        ),
    ),
    AnalysisRule(
        code="DBP011",
        name="float-contaminates-cost",
        pass_name="exactness",
        scope="exact",
        summary="No engine-introduced float may reach a billed-cost expression",
        help=(
            "A float literal, float() cast, math.* result, or int/int true "
            "division flowing into a cost accumulator forces the whole "
            "accumulation to float even when the trace is exact "
            "(int/Fraction), breaking the exact-replay guarantees behind "
            "Theorems 1-5.  Initialise accumulators with int 0, divide via "
            "Fraction, and keep floats out of cost arithmetic; the flow is "
            "tracked across call boundaries, so check the named callee when "
            "the message cites one."
        ),
    ),
    AnalysisRule(
        code="DBP012",
        name="float-contaminates-checkpoint",
        pass_name="exactness",
        scope="exact",
        summary="No engine-introduced float may reach a checkpoint or snapshot payload",
        help=(
            "Checkpoint payloads must round-trip the engine's numeric state "
            "exactly: a float introduced while building the payload means "
            "resumed runs diverge from uninterrupted ones.  Store the "
            "original int/Fraction values (the envelope encodes them "
            "losslessly) and leave any display rounding to readers."
        ),
    ),
    AnalysisRule(
        code="DBP013",
        name="impure-hook-reachability",
        pass_name="effects",
        scope="exact",
        summary=(
            "Observer hooks and choose_bin must be transitively pure "
            "(no clock/io/rng/argument mutation anywhere reachable)"
        ),
        help=(
            "DBP005 reports a hook's own argument mutations; this rule "
            "follows every call reachable from SimulationObserver hooks and "
            "choose_bin/choose_bin_indexed implementations and reports the "
            "call chain to any wall-clock read, global-RNG draw, stdout/"
            "logging side channel, or mutation of a hook argument.  Move the "
            "effect out of the hook's reach, or thread an injected "
            "clock/generator through."
        ),
    ),
    AnalysisRule(
        code="DBP014",
        name="unordered-iteration",
        pass_name="determinism",
        scope="src",
        summary="Library code must not iterate sets or directory listings unordered",
        help=(
            "set/frozenset iteration order depends on PYTHONHASHSEED for str "
            "elements, and os.listdir/Path.glob/iterdir order depends on the "
            "filesystem -- any of them feeding a loop, a serialized artifact, "
            "or an engine decision makes byte-stability a coincidence.  Wrap "
            "the iterable in sorted(); membership tests, len(), and "
            "sorted()/min()/max() consumption are fine."
        ),
    ),
    AnalysisRule(
        code="DBP015",
        name="worker-task-shared-state",
        pass_name="determinism",
        scope="src",
        summary=(
            "Parallel worker tasks must not write module globals or capture "
            "mutable state"
        ),
        help=(
            "Each pool worker runs in its own process: a task function that "
            "writes a module-level mutable (directly or via any callee), or "
            "a closure/lambda task capturing a mutable variable, operates on "
            "a silently diverging per-worker copy -- results then depend on "
            "task-to-worker placement.  Pass all state through task "
            "arguments and return values; the runner's merge machinery is "
            "the only cross-task channel."
        ),
    ),
    AnalysisRule(
        code="DBP016",
        name="engine-concurrency-import",
        pass_name="syntax",
        scope="engine",
        summary=(
            "Engine code must not import socket/thread/signal machinery; the "
            "live plane stays observer-side"
        ),
        help=(
            "The engine is single-threaded and deterministic by contract: the "
            "live observability plane (HTTP serving, handler threads, "
            "signal-driven post-mortems) consumes published snapshots on the "
            "observer side and must never leak inward.  A socket/thread/"
            "signal import in engine scope couples packing decisions to "
            "schedulers, sockets, and delivery timing -- exactly the "
            "nondeterminism the exact-replay oracles rule out.  Serve "
            "telemetry via repro.obs.live; shard work via repro.parallel."
        ),
    ),
)

ANALYSIS_RULES: dict[str, AnalysisRule] = {rule.code: rule for rule in _RULES}


def iter_rules() -> list[AnalysisRule]:
    return [ANALYSIS_RULES[code] for code in sorted(ANALYSIS_RULES)]


def all_codes() -> list[str]:
    return sorted(ANALYSIS_RULES)


def codes_for_passes(passes: tuple[str, ...]) -> frozenset[str]:
    return frozenset(
        rule.code for rule in ANALYSIS_RULES.values() if rule.pass_name in passes
    )


def finding(path: str, loc: Loc, code: str, message: str) -> Violation:
    """A :class:`Violation` of catalogued rule ``code`` at ``loc``."""
    return Violation(
        path=path,
        line=loc.line,
        col=loc.col,
        code=code,
        rule=ANALYSIS_RULES[code].name,
        message=message,
        end_line=loc.end_line,
    )
