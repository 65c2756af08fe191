"""Per-file fact extraction: the cacheable unit of the whole-program analysis.

One call to :func:`extract_module_facts` distills a parsed source file into
a :class:`ModuleFacts` value — functions with their call sites, local effect
seeds, exactness sink flows, class shapes, imports, mutable module globals,
unordered-iteration sites, and worker-dispatch sites.  Facts are plain
picklable dataclasses with **no AST nodes inside**, which is what makes the
content-hash summary cache (:mod:`repro.tools.analysis.cache`) sound: the
fixpoint passes consume facts only, so a file whose bytes are unchanged
contributes byte-identical facts without re-walking its AST.

Everything here is *local* to one file.  Names that cannot be resolved
within the file are recorded as unresolved :class:`CallRef` values; the
symbol table (:mod:`repro.tools.analysis.callgraph`) resolves them across
the project.

Extraction also runs the syntax pass's per-file checks (DBP003, DBP006,
DBP007, DBP008, DBP010, DBP016 and the local half of DBP004) and stores
their findings in the facts, so a warm run re-walks no AST for them
either.  Every call in the file is classified by one effect extractor
(:func:`_effect_for_call`): calls inside an extracted function body become
that function's seeds, everything else — module and class bodies,
decorators, defaults, import sites — becomes a module-level seed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Iterator

from repro.tools.analysis.source import SourceFile, Suppression

__all__ = [
    "CallRef",
    "CallSite",
    "ClassFacts",
    "DispatchSite",
    "FlowRecord",
    "FrozenMutation",
    "FunctionFacts",
    "IterationSite",
    "LocalEffect",
    "LocalFinding",
    "Loc",
    "ModuleFacts",
    "extract_module_facts",
]

#: Bump to invalidate every cached facts pickle (schema change).
FACTS_SCHEMA_VERSION = 5


# --------------------------------------------------------------------------
# Fact records


@dataclass(frozen=True, slots=True)
class Loc:
    """Source location (1-based line, 0-based column, ast conventions)."""

    line: int
    col: int
    end_line: int | None = None


@dataclass(frozen=True, slots=True)
class CallRef:
    """One (possibly unresolved) call target.

    ``kind`` describes the receiver shape:

    * ``"name"`` — bare name call ``f(...)``; ``resolved`` holds the local
      qualname when ``f`` is defined in this file.
    * ``"dotted"`` — module-attribute chain ``mod.f(...)``.
    * ``"self"`` — ``self.m(...)``: resolve through the enclosing class.
    * ``"self_attr"`` — ``self.x.m(...)``: resolve through the class-level
      annotation of attribute ``x``.
    * ``"method"`` — ``recv.m(...)`` on any other receiver;
      ``receiver_hint`` carries the annotation identifiers of the receiver
      when known (drives Protocol/ABC fan-out).
    """

    kind: str
    chain: tuple[str, ...]
    method: str
    receiver_hint: tuple[str, ...]
    resolved: str | None
    loc: Loc


@dataclass(frozen=True, slots=True)
class CallSite:
    """A call site plus the caller-parameter → callee-argument mapping.

    ``pos_params``/``kw_params`` record which of the *caller's* parameters
    are passed straight through as arguments — the channel along which
    mutates-argument effects propagate up the call graph.
    """

    ref: CallRef
    pos_params: tuple[tuple[int, str], ...]
    kw_params: tuple[tuple[str, str], ...]


@dataclass(frozen=True, slots=True)
class LocalEffect:
    """A directly-observable effect inside one function body."""

    effect: str  # reads-clock | performs-io | global-rng | mutates-param:<name> | mutates-global:<name>
    detail: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """A float-introduction (or possible one, via calls) reaching a sink.

    ``introduced`` means this file alone proves an inexact float reaches
    the sink; otherwise ``call_deps`` lists the calls whose return value
    being an engine-introduced float would complete the path (decided by
    the interprocedural fixpoint).
    """

    sink: str  # "cost" | "payload"
    sink_name: str
    introduced: bool
    reason: str
    call_deps: tuple[CallRef, ...]
    loc: Loc


@dataclass(frozen=True, slots=True)
class IterationSite:
    """An unordered iterable consumed in an order-sensitive position."""

    kind: str  # "set" | "listing"
    detail: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class DispatchSite:
    """A worker-dispatch call (``run_tasks``/``submit``/…) and its tasks."""

    api: str
    task_refs: tuple[CallRef, ...]
    #: ``(description, captured-name)`` for inline lambda tasks capturing a
    #: mutable variable from an enclosing scope.
    closure_captures: tuple[tuple[str, str], ...]
    loc: Loc


@dataclass(frozen=True, slots=True)
class LocalFinding:
    """A per-file check's finding, before scoping, selection and suppression."""

    code: str
    message: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class FrozenMutation:
    """An attribute store that is DBP004 if one of ``classes`` is frozen.

    ``target`` is ``"self"`` for a store on ``self`` outside the
    initialisers of class ``classes[0]``, else the annotated variable's name
    with ``classes`` its annotation identifiers.  Whether a class is frozen
    is decided over the whole project (:attr:`ModuleFacts.frozen_classes`).
    """

    target: str
    attr: str
    classes: tuple[str, ...]
    loc: Loc


@dataclass(frozen=True, slots=True)
class FunctionFacts:
    """Local summary of one function, method, or nested function."""

    qualname: str  # "module:fn", "module:Class.method", "module:fn.inner"
    module: str
    name: str
    klass: str | None
    loc: Loc
    params: tuple[str, ...]
    param_quals: tuple[tuple[str, str], ...]  # (param, int|fraction|float|unknown)
    effects: tuple[LocalEffect, ...]
    calls: tuple[CallSite, ...]
    flows: tuple[FlowRecord, ...]
    returns_introduced: bool
    return_reason: str
    return_call_deps: tuple[CallRef, ...]
    captured_mutables: tuple[str, ...]
    is_nested: bool


@dataclass(frozen=True, slots=True)
class ClassFacts:
    """Shape of one class: bases, methods, annotated attributes."""

    qualname: str  # "module:Class", "module:func.Class", "module:Outer.Inner"
    module: str
    name: str
    bases: tuple[str, ...]  # dotted base expressions as written
    methods: tuple[str, ...]
    attr_hints: tuple[tuple[str, tuple[str, ...]], ...]  # attr -> annotation ids
    loc: Loc


@dataclass(frozen=True, slots=True)
class ModuleFacts:
    """Everything the whole-program passes need from one source file."""

    module: str
    path: str
    functions: tuple[FunctionFacts, ...]
    classes: tuple[ClassFacts, ...]
    imports: tuple[tuple[str, str], ...]  # local alias -> dotted target
    mutable_globals: tuple[tuple[str, int], ...]  # name -> def line
    iteration_sites: tuple[IterationSite, ...]
    dispatch_sites: tuple[DispatchSite, ...]
    #: Effect seeds outside every extracted function body (import sites,
    #: module and class bodies, decorators, defaults, unextracted defs).
    module_effects: tuple[LocalEffect, ...]
    #: Syntax-pass findings (every code, any scope; filtered when reported).
    findings: tuple[LocalFinding, ...]
    frozen_mutations: tuple[FrozenMutation, ...]
    #: Names of frozen dataclasses and ``NamedTuple`` subclasses defined here.
    frozen_classes: tuple[str, ...]
    suppressions: dict[int, Suppression] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Shared helpers

_COST_NAME_RE = re.compile(
    r"(?:^|_)(?:costs?|bin_time|billed|lost_work|redispatch_work)(?:$|_)",
    re.IGNORECASE,
)
_PAYLOAD_NAME_RE = re.compile(r"(?:^|_)(?:payload|envelope)(?:$|_)", re.IGNORECASE)
_PAYLOAD_FN_NAMES = frozenset({"checkpoint_state"})
_PAYLOAD_FN_IN_CHECKPOINT_MODULES = frozenset({"to_json", "to_payload"})
_CHECKPOINT_MODULE_RE = re.compile(r"checkpoint|resilience")

_WALLCLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
    }
)
_WALLCLOCK_DT_FNS = frozenset({"now", "utcnow", "today"})
#: ``random``/``numpy.random`` attributes that never touch the global RNG.
_RNG_SEEDED_TYPES = frozenset(
    {"Generator", "SeedSequence", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}
)
#: Generator constructors: deterministic only when given a seed argument.
#: ``SystemRandom`` is not one: it ignores its seed and reads ``os.urandom``.
_RNG_SEEDABLE_CTORS = frozenset({"Random", "default_rng", "RandomState"})
_IO_BUILTINS = frozenset({"print", "input", "open", "breakpoint"})
_SUBPROCESS_FNS = frozenset({"run", "call", "Popen", "check_output", "check_call"})
_OS_IO_FNS = frozenset({"system", "popen"})

_MUTATOR_METHODS = frozenset(
    {
        "add",
        "remove",
        "force_close",
        "append",
        "appendleft",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "discard",
        "setdefault",
        "sort",
        "reverse",
    }
)

_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)

_SET_ANNOTATION_IDS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_SET_METHODS_RETURNING_SET = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_LISTING_ATTR_FNS = frozenset({"glob", "rglob", "iterdir", "scandir"})
_OS_LISTING_FNS = frozenset({"listdir", "scandir", "walk"})

#: Order-sensitive single-iterable consumers: ``list(s)`` materialises the
#: (unordered) order, while ``sorted(s)``/``len(s)``/``min(s)`` do not.
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "iter", "enumerate"})

_DISPATCH_APIS = frozenset(
    {
        "run_tasks",
        "submit",
        "apply_async",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)

_MATH_MODULES = frozenset({"math", "statistics", "cmath"})


def _loc(node: ast.AST) -> Loc:
    return Loc(
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        end_line=getattr(node, "end_lineno", None),
    )


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _annotation_names(ann: ast.expr | None) -> tuple[str, ...]:
    """Every identifier mentioned in an annotation (handles string forms)."""
    if ann is None:
        return ()
    names: list[str] = []
    for node in ast.walk(ann):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.extend(_IDENT_RE.findall(node.value))
    seen: dict[str, None] = {}
    for name in names:
        seen.setdefault(name)
    return tuple(seen)


def _qual_from_annotation(ann: ast.expr | None) -> str:
    names = set(_annotation_names(ann))
    if not names:
        return "unknown"
    if names == {"float"}:
        return "float"
    if names <= {"int", "bool"}:
        return "int"
    if names == {"Fraction"} or names == {"fractions", "Fraction"}:
        return "fraction"
    return "unknown"


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk_shallow(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs.

    A def that is itself one of ``stmts`` is skipped too: its body belongs
    to the nested function, not to the body being walked.
    """
    stack: list[ast.AST] = [stmt for stmt in stmts if not isinstance(stmt, _SCOPE_NODES)]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def _body_defs(stmts: list[ast.stmt], kinds: Any = _DEF_NODES) -> list[Any]:
    """The function defs (or, with ``kinds=ast.ClassDef``, the classes) of
    a body, in source order.

    Direct statements and defs inside the body's ``if``/``for``/``while``/
    ``with``/``try`` blocks alike; a def inside a nested def or class
    belongs to that scope instead.
    """
    defs = [stmt for stmt in stmts if isinstance(stmt, kinds)]
    for node in _walk_shallow(stmts):
        defs.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, kinds))
    return sorted(defs, key=lambda d: (d.lineno, d.col_offset))


class _Imports:
    """Module-alias bookkeeping for the effect and exactness seeds.

    Import statements that bind an effectful name are seeds themselves
    (``sites``): ``from random import shuffle`` binds the global RNG,
    ``from time import perf_counter`` a wall-clock reader, ``import
    logging`` a side channel.
    """

    __slots__ = (
        "random",
        "numpy",
        "numpy_random",
        "time",
        "datetime_mod",
        "datetime_cls",
        "math",
        "os",
        "subprocess",
        "logging",
        "from_time",
        "from_random",
        "from_math",
        "aliases",
        "sites",
    )

    def __init__(self, tree: ast.Module) -> None:
        self.random: set[str] = set()
        self.numpy: set[str] = set()
        self.numpy_random: set[str] = set()
        self.time: set[str] = set()
        self.datetime_mod: set[str] = set()
        self.datetime_cls: set[str] = set()
        self.math: set[str] = set()
        self.os: set[str] = set()
        self.subprocess: set[str] = set()
        self.logging: set[str] = set()
        self.from_time: set[str] = set()  # wall-clock fns imported by name
        self.from_random: set[str] = set()  # global-RNG fns imported by name
        self.from_math: set[str] = set()  # float-returning fns imported by name
        self.aliases: dict[str, str] = {}  # local name -> dotted target
        self.sites: list[LocalEffect] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else bound
                    self.aliases[bound] = target
                    base = alias.name
                    if base == "random":
                        self.random.add(bound)
                    elif base == "numpy":
                        self.numpy.add(bound)
                    elif base == "numpy.random":
                        (self.numpy_random if alias.asname else self.numpy).add(bound)
                    elif base == "time":
                        self.time.add(bound)
                    elif base == "datetime":
                        self.datetime_mod.add(bound)
                    elif base in _MATH_MODULES:
                        self.math.add(bound)
                    elif base == "os":
                        self.os.add(bound)
                    elif base == "subprocess":
                        self.subprocess.add(bound)
                    elif base == "logging" or base.startswith("logging."):
                        self.logging.add(bound)
                        self._site("performs-io", f"import {base}", node)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mod = node.module or ""
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{mod}.{alias.name}" if mod else alias.name
                    imported = f"from {mod} import {alias.name}"
                    if mod == "numpy" and alias.name == "random":
                        self.numpy_random.add(bound)
                    elif mod == "datetime" and alias.name in ("datetime", "date"):
                        self.datetime_cls.add(bound)
                    elif mod == "time" and alias.name in _WALLCLOCK_TIME_FNS:
                        self.from_time.add(bound)
                        self._site("reads-clock", imported, node)
                    elif mod == "random" and alias.name != "Random":
                        self.from_random.add(bound)
                        self._site("global-rng", imported, node)
                    elif mod in _MATH_MODULES:
                        self.from_math.add(bound)
                    elif mod == "logging" or mod.startswith("logging."):
                        self.logging.add(bound)
                        self._site("performs-io", imported, node)

    def _site(self, effect: str, detail: str, node: ast.AST) -> None:
        self.sites.append(LocalEffect(effect, detail, _loc(node)))


# --------------------------------------------------------------------------
# Effect seeds


def _rng_effect(node: ast.Call, dotted: str, attr: str) -> LocalEffect | None:
    """``random.<attr>()``/``numpy.random.<attr>()``: global RNG unless seeded."""
    if attr in _RNG_SEEDED_TYPES:
        return None
    if attr in _RNG_SEEDABLE_CTORS:
        if node.args or node.keywords:
            return None
        return LocalEffect("global-rng", f"{dotted}() without a seed", _loc(node))
    return LocalEffect("global-rng", f"{dotted}()", _loc(node))


def _effect_for_call(
    node: ast.Call, imports: _Imports, params: AbstractSet[str]
) -> LocalEffect | None:
    """The one effect classifier: clock reads, global-RNG use and side-channel I/O."""
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    parts = dotted.split(".")
    root = parts[0]
    # Wall clock.
    if len(parts) == 2 and root in imports.time and parts[1] in _WALLCLOCK_TIME_FNS:
        return LocalEffect("reads-clock", f"{dotted}()", _loc(node))
    if len(parts) == 1 and root in imports.from_time:
        return LocalEffect("reads-clock", f"{dotted}()", _loc(node))
    if (
        len(parts) == 2
        and root in imports.datetime_cls
        and parts[1] in _WALLCLOCK_DT_FNS
    ):
        return LocalEffect("reads-clock", f"{dotted}()", _loc(node))
    if (
        len(parts) == 3
        and root in imports.datetime_mod
        and parts[1] in ("datetime", "date")
        and parts[2] in _WALLCLOCK_DT_FNS
    ):
        return LocalEffect("reads-clock", f"{dotted}()", _loc(node))
    # Global RNG.
    if len(parts) == 2 and (root in imports.random or root in imports.numpy_random):
        return _rng_effect(node, dotted, parts[1])
    if len(parts) == 3 and root in imports.numpy and parts[1] == "random":
        return _rng_effect(node, dotted, parts[2])
    if len(parts) == 1 and root in imports.from_random:
        return LocalEffect("global-rng", f"{dotted}()", _loc(node))
    # Side-channel / ambient I/O.
    if len(parts) == 1 and root in _IO_BUILTINS and root not in params:
        return LocalEffect("performs-io", f"{root}()", _loc(node))
    if len(parts) == 2 and root in imports.os and parts[1] in _OS_IO_FNS:
        return LocalEffect("performs-io", f"{dotted}()", _loc(node))
    if len(parts) == 2 and root in imports.subprocess and parts[1] in _SUBPROCESS_FNS:
        return LocalEffect("performs-io", f"{dotted}()", _loc(node))
    if root in imports.logging:
        return LocalEffect("performs-io", f"{dotted}()", _loc(node))
    if dotted in (
        "sys.stdout.write",
        "sys.stderr.write",
        "sys.stdout.writelines",
        "sys.stderr.writelines",
    ):
        return LocalEffect("performs-io", f"{dotted}()", _loc(node))
    return None


def _walk_effect_scope(
    stmts: list[ast.stmt], bound: frozenset[str]
) -> Iterator[tuple[ast.AST, frozenset[str]]]:
    """:func:`_walk_shallow` that also enters lambda bodies.

    A lambda runs with its enclosing function's bindings, so its effects are
    the function's; its own parameters shadow ``bound`` inside its body.
    """
    stack: list[tuple[ast.AST, frozenset[str]]] = [
        (stmt, bound) for stmt in stmts if not isinstance(stmt, _SCOPE_NODES)
    ]
    while stack:
        node, names = stack.pop()
        yield node, names
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                own = {arg.arg for arg in _param_list(child.args)}
                stack.append((child.body, names - own))
                stack.extend(
                    (default, names)
                    for default in [*child.args.defaults, *child.args.kw_defaults]
                    if default is not None
                )
            elif not isinstance(child, _SCOPE_NODES):
                stack.append((child, names))


def _collect_effects(
    body: list[ast.stmt],
    shallow: list[ast.AST],
    imports: _Imports,
    params: set[str],
    module_mutables: set[str],
    closure: frozenset[str],
    covered: set[int],
) -> list[LocalEffect]:
    """Seeds of one function body; marks every call it classifies in ``covered``.

    ``closure`` holds the parameters of enclosing functions: a nested
    function mutating one of them mutates its encloser's argument, and the
    seed is named after that parameter.
    """
    effects: list[LocalEffect] = []
    declared_global: set[str] = set()
    local_names: set[str] = set()
    for node in shallow:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local_names.add(target.id)
    bound = frozenset(params) | (closure - local_names)

    def _mutation_target(
        target: ast.expr, node: ast.AST, verb: str, names: frozenset[str]
    ) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root is None:
            return
        if root in names and root != "self":
            effects.append(
                LocalEffect(f"mutates-param:{root}", f"{verb} {root}", _loc(node))
            )
        elif (
            root in module_mutables
            and root not in names
            and root not in local_names
        ):
            effects.append(
                LocalEffect(f"mutates-global:{root}", f"{verb} global {root}", _loc(node))
            )

    for node, names in _walk_effect_scope(body, bound):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                _mutation_target(target, node, "assigns into", names)
                if isinstance(target, ast.Name) and target.id in declared_global:
                    effects.append(
                        LocalEffect(
                            f"mutates-global:{target.id}",
                            f"rebinds global {target.id}",
                            _loc(node),
                        )
                    )
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            _mutation_target(node.target, node, "assigns into", names)
            if isinstance(node.target, ast.Name) and node.target.id in declared_global:
                effects.append(
                    LocalEffect(
                        f"mutates-global:{node.target.id}",
                        f"rebinds global {node.target.id}",
                        _loc(node),
                    )
                )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                _mutation_target(target, node, "deletes from", names)
        elif isinstance(node, ast.Call):
            covered.add(id(node))
            effect = _effect_for_call(node, imports, names)
            if effect is not None:
                effects.append(effect)
            if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATOR_METHODS:
                root = _root_name(node.func.value)
                if root is not None:
                    if root in names and root != "self":
                        effects.append(
                            LocalEffect(
                                f"mutates-param:{root}",
                                f".{node.func.attr}() on {root}",
                                _loc(node),
                            )
                        )
                    elif (
                        root in module_mutables
                        and root not in names
                        and root not in local_names
                    ):
                        effects.append(
                            LocalEffect(
                                f"mutates-global:{root}",
                                f".{node.func.attr}() on global {root}",
                                _loc(node),
                            )
                        )
    effects.sort(key=lambda e: (e.loc.line, e.loc.col, e.effect))
    return effects


# --------------------------------------------------------------------------
# Call-site collection


def _make_call_ref(
    node: ast.Call,
    local_defs: dict[str, str],
    param_hints: dict[str, tuple[str, ...]],
) -> CallRef | None:
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
        return CallRef(
            kind="name",
            chain=(name,),
            method=name,
            receiver_hint=(),
            resolved=local_defs.get(name),
            loc=_loc(node),
        )
    if isinstance(func, ast.Attribute):
        dotted = _dotted(func)
        if dotted is not None:
            parts = tuple(dotted.split("."))
            if parts[0] == "self" and len(parts) == 2:
                return CallRef(
                    kind="self",
                    chain=parts,
                    method=parts[-1],
                    receiver_hint=(),
                    resolved=None,
                    loc=_loc(node),
                )
            if parts[0] == "self" and len(parts) == 3:
                return CallRef(
                    kind="self_attr",
                    chain=parts,
                    method=parts[-1],
                    receiver_hint=(),
                    resolved=None,
                    loc=_loc(node),
                )
            if len(parts) == 2:
                hint = param_hints.get(parts[0], ())
                kind = "method" if hint else "dotted"
                return CallRef(
                    kind=kind,
                    chain=parts,
                    method=parts[-1],
                    receiver_hint=hint,
                    resolved=None,
                    loc=_loc(node),
                )
            return CallRef(
                kind="dotted",
                chain=parts,
                method=parts[-1],
                receiver_hint=(),
                resolved=None,
                loc=_loc(node),
            )
        # Receiver is an arbitrary expression: only the method name is known.
        return CallRef(
            kind="method",
            chain=(func.attr,),
            method=func.attr,
            receiver_hint=(),
            resolved=None,
            loc=_loc(node),
        )
    return None


def _collect_calls(
    shallow: list[ast.AST],
    params: set[str],
    local_defs: dict[str, str],
    param_hints: dict[str, tuple[str, ...]],
) -> list[CallSite]:
    sites: list[CallSite] = []
    for node in shallow:
        if not isinstance(node, ast.Call):
            continue
        ref = _make_call_ref(node, local_defs, param_hints)
        if ref is None:
            continue
        pos: list[tuple[int, str]] = []
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id in params:
                pos.append((index, arg.id))
        kws: list[tuple[str, str]] = []
        for kw in node.keywords:
            if (
                kw.arg is not None
                and isinstance(kw.value, ast.Name)
                and kw.value.id in params
            ):
                kws.append((kw.arg, kw.value.id))
        sites.append(CallSite(ref=ref, pos_params=tuple(pos), kw_params=tuple(kws)))
    sites.sort(key=lambda s: (s.ref.loc.line, s.ref.loc.col, s.ref.method))
    return sites


# --------------------------------------------------------------------------
# Exactness dataflow (local)


@dataclass(frozen=True, slots=True)
class _Val:
    kind: str  # "int" | "fraction" | "floati" | "other"
    reason: str = ""
    deps: tuple[CallRef, ...] = ()


_INT = _Val("int")
_FRACTION = _Val("fraction")
_OTHER = _Val("other")


def _merge_deps(*vals: _Val) -> tuple[CallRef, ...]:
    merged: list[CallRef] = []
    seen: set[tuple[int, int, tuple[str, ...]]] = set()
    for val in vals:
        for dep in val.deps:
            key = (dep.loc.line, dep.loc.col, dep.chain)
            if key not in seen:
                seen.add(key)
                merged.append(dep)
    return tuple(merged)


class _ExactnessScan:
    """Order-aware local scan tracking int/Fraction/float-introduced values.

    The scan runs over the body twice so loop-carried assignments settle;
    sink records are keyed by location, with the second (better-informed)
    pass overwriting the first.
    """

    def __init__(
        self,
        fn_name: str,
        module: str,
        param_quals: dict[str, str],
        imports: _Imports,
        local_defs: dict[str, str],
        param_hints: dict[str, tuple[str, ...]],
    ) -> None:
        self.fn_name = fn_name
        self.module = module
        self.imports = imports
        self.local_defs = local_defs
        self.param_hints = param_hints
        self.env: dict[str, _Val] = {}
        for param, qual in param_quals.items():
            if qual == "int":
                self.env[param] = _INT
            elif qual == "fraction":
                self.env[param] = _FRACTION
        self.flows: dict[tuple[str, str, int, int], FlowRecord] = {}
        self.returns_introduced = False
        self.return_reason = ""
        self.return_deps: list[CallRef] = []
        self._is_cost_fn = bool(_COST_NAME_RE.search(fn_name))
        self._is_payload_fn = fn_name in _PAYLOAD_FN_NAMES or (
            fn_name in _PAYLOAD_FN_IN_CHECKPOINT_MODULES
            and _CHECKPOINT_MODULE_RE.search(module) is not None
        )

    # -- expression evaluation

    def eval(self, node: ast.expr) -> _Val:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or isinstance(node.value, int):
                return _INT
            if isinstance(node.value, float):
                return _Val("floati", f"float literal {node.value!r}")
            if isinstance(node.value, complex):
                return _Val("floati", f"complex literal {node.value!r}")
            return _OTHER
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _OTHER)
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                return self.env.get(dotted, _OTHER)
            return _OTHER
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._combine(node.op, self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return _INT
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            a, b = self.eval(node.body), self.eval(node.orelse)
            if a.kind == "floati":
                return a
            if b.kind == "floati":
                return b
            if a.kind == b.kind and not a.deps and not b.deps:
                return a
            return _Val("other", deps=_merge_deps(a, b))
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            return _INT
        if isinstance(node, ast.NamedExpr):
            val = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = val
            return val
        return _OTHER

    def _eval_call(self, node: ast.Call) -> _Val:
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            name = parts[-1]
            root = parts[0]
            if dotted == "float":
                return _Val("floati", "float() cast")
            if name == "Fraction":
                return _FRACTION
            if dotted in ("int", "len", "id", "ord", "hash"):
                return _INT
            if dotted == "round" and len(node.args) == 1:
                return _INT
            if dotted == "abs" and node.args:
                return self.eval(node.args[0])
            if len(parts) == 2 and root in self.imports.math:
                return _Val("floati", f"{dotted}() returns float")
            if len(parts) == 1 and root in self.imports.from_math:
                return _Val("floati", f"{dotted}() returns float")
        ref = _make_call_ref(node, self.local_defs, self.param_hints)
        if ref is not None and ref.kind in ("name", "self", "self_attr", "method"):
            # Builtins and stdlib names resolve to nothing and drop out at
            # resolution time; project calls become fixpoint dependencies.
            return _Val("other", deps=(ref,))
        return _OTHER

    def _combine(self, op: ast.operator, left: _Val, right: _Val) -> _Val:
        if left.kind == "floati":
            return left
        if right.kind == "floati":
            return right
        deps = _merge_deps(left, right)
        if isinstance(op, ast.Div):
            if left.kind == "int" and right.kind == "int":
                return _Val("floati", "int/int true division")
            if {left.kind, right.kind} <= {"int", "fraction"}:
                return _FRACTION
            return _Val("other", deps=deps)
        if isinstance(op, (ast.FloorDiv, ast.Mod, ast.LShift, ast.RShift)):
            if left.kind == "int" and right.kind == "int":
                return _INT
            return _Val("other", deps=deps)
        if left.kind == "int" and right.kind == "int":
            return _INT
        if {left.kind, right.kind} <= {"int", "fraction"}:
            return _FRACTION
        return _Val("other", deps=deps)

    # -- sinks

    def _record(self, sink: str, sink_name: str, val: _Val, node: ast.AST) -> None:
        if val.kind != "floati" and not val.deps:
            return
        loc = _loc(node)
        record = FlowRecord(
            sink=sink,
            sink_name=sink_name,
            introduced=val.kind == "floati",
            reason=val.reason,
            call_deps=val.deps,
            loc=loc,
        )
        self.flows[(sink, sink_name, loc.line, loc.col)] = record

    def _target_name(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    def _check_sink_assign(self, target: ast.expr, val: _Val, node: ast.AST) -> None:
        name = self._target_name(target)
        if name is None:
            return
        if _COST_NAME_RE.search(name):
            self._record("cost", name, val, node)
        elif _PAYLOAD_NAME_RE.search(name):
            self._record("payload", name, val, node)

    def _store(self, target: ast.expr, val: _Val) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = val
        elif isinstance(target, ast.Attribute):
            dotted = _dotted(target)
            if dotted is not None:
                self.env[dotted] = val
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, _OTHER)

    # -- statement processing

    def run(self, body: list[ast.stmt]) -> None:
        for _ in range(2):
            self._block(body)

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            payload_dict = isinstance(stmt.value, ast.Dict)
            for target in stmt.targets:
                name = self._target_name(target)
                if payload_dict and name is not None and _PAYLOAD_NAME_RE.search(name):
                    self._check_payload_dict(stmt.value)
                else:
                    self._check_sink_assign(target, val, stmt)
                self._store(target, val)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                val = self.eval(stmt.value)
                if val.kind == "other" and not val.deps:
                    qual = _qual_from_annotation(stmt.annotation)
                    if qual == "int":
                        val = _INT
                    elif qual == "fraction":
                        val = _FRACTION
                self._check_sink_assign(stmt.target, val, stmt)
                self._store(stmt.target, val)
            return
        if isinstance(stmt, ast.AugAssign):
            current = self.eval(stmt.target)
            val = self._combine(stmt.op, current, self.eval(stmt.value))
            self._check_sink_assign(stmt.target, val, stmt)
            self._store(stmt.target, val)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if self._is_payload_fn and isinstance(stmt.value, ast.Dict):
                    self._check_payload_dict(stmt.value)
                    return
                val = self.eval(stmt.value)
                if val.kind == "floati":
                    self.returns_introduced = True
                    if not self.return_reason:
                        self.return_reason = val.reason
                for dep in val.deps:
                    self.return_deps.append(dep)
                if self._is_cost_fn:
                    self._record("cost", f"return of {self.fn_name}()", val, stmt)
                elif self._is_payload_fn:
                    self._record("payload", f"return of {self.fn_name}()", val, stmt)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._store(stmt.target, _OTHER)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        # Remaining statements (pass, raise, assert, import, …) carry no flow.

    def _check_payload_dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if value is None:
                continue
            val = self.eval(value)
            if isinstance(key, ast.Constant):
                label = repr(key.value)
            else:
                label = "<dynamic key>"
            self._record("payload", label, val, value)


# --------------------------------------------------------------------------
# Unordered-iteration sites (DBP014)


class _SetTracker(ast.NodeVisitor):
    """Finds unordered iterables consumed in order-sensitive positions."""

    def __init__(self, imports: _Imports) -> None:
        self.imports = imports
        self.sites: list[IterationSite] = []
        self._scopes: list[set[str]] = [set()]  # names known to be sets

    # -- scope handling

    def _visit_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        scope: set[str] = set()
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]:
            names = set(_annotation_names(arg.annotation))
            if names & _SET_ANNOTATION_IDS:
                scope.add(arg.arg)
        self._scopes.append(scope)
        for stmt in node.body:
            self.visit(stmt)
        self._scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope

    def _mark(self, name: str) -> None:
        self._scopes[-1].add(name)

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope for scope in reversed(self._scopes))

    # -- classification

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS_RETURNING_SET
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _listing_call(self, node: ast.expr) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] in self.imports.os
                and parts[1] in _OS_LISTING_FNS
            ):
                return f"{dotted}()"
        if isinstance(node.func, ast.Attribute) and node.func.attr in _LISTING_ATTR_FNS:
            return f".{node.func.attr}()"
        return None

    def _describe(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return f"set {node.id!r}"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set literal"
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                return f"{dotted}(...) result"
        if isinstance(node, ast.BinOp):
            return "set-algebra result"
        return "set value"

    def _check_iterable(self, node: ast.expr) -> None:
        listing = self._listing_call(node)
        if listing is not None:
            self.sites.append(
                IterationSite(kind="listing", detail=listing, loc=_loc(node))
            )
        elif self._is_set_expr(node):
            self.sites.append(
                IterationSite(kind="set", detail=self._describe(node), loc=_loc(node))
            )

    # -- order-sensitive consumers

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        if isinstance(node.target, ast.Name) and self._is_set_expr(node.iter):
            pass  # loop variable is an element, not a set
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Starred(self, node: ast.Starred) -> None:
        self._check_iterable(node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted in _ORDER_SENSITIVE_WRAPPERS and node.args:
            self._check_iterable(node.args[0])
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            self._check_iterable(node.args[0])
        self.generic_visit(node)

    # -- set-ness propagation

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._mark(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        names = set(_annotation_names(node.annotation))
        if names & _SET_ANNOTATION_IDS and isinstance(node.target, ast.Name):
            self._mark(node.target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._is_set_expr(node.value) and isinstance(node.target, ast.Name):
            self._mark(node.target.id)
        self.generic_visit(node)


# --------------------------------------------------------------------------
# Worker-dispatch sites (DBP015)


class _DispatchCollector(ast.NodeVisitor):
    """Collects ``run_tasks``/``submit``/… calls and their task references."""

    def __init__(self, local_defs: dict[str, str]) -> None:
        self.local_defs = local_defs
        self.sites: list[DispatchSite] = []
        #: name -> mutable-assigned, per enclosing function scope
        self._mutable_scopes: list[set[str]] = []
        self._nested_defs: list[dict[str, str]] = []

    def _visit_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        mutables: set[str] = set()
        nested: dict[str, str] = {}
        for stmt in _walk_shallow(node.body):
            if isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mutables.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if _is_mutable_value(stmt.value) and isinstance(stmt.target, ast.Name):
                    mutables.add(stmt.target.id)
        for stmt in _body_defs(node.body):
            nested[stmt.name] = stmt.name
        self._mutable_scopes.append(mutables)
        self._nested_defs.append(nested)
        self.generic_visit(node)
        self._nested_defs.pop()
        self._mutable_scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope

    def _enclosing_mutables(self) -> set[str]:
        merged: set[str] = set()
        for scope in self._mutable_scopes:
            merged |= scope
        return merged

    def _lambda_captures(self, node: ast.Lambda) -> list[str]:
        params = {
            arg.arg
            for arg in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
        }
        enclosing = self._enclosing_mutables()
        captured = []
        for inner in ast.walk(node.body):
            if isinstance(inner, ast.Name) and inner.id in enclosing and inner.id not in params:
                captured.append(inner.id)
        return sorted(set(captured))

    def _task_refs_from(
        self, node: ast.expr, refs: list[CallRef], captures: list[tuple[str, str]]
    ) -> None:
        if isinstance(node, ast.Name):
            resolved = self.local_defs.get(node.id)
            refs.append(
                CallRef(
                    kind="name",
                    chain=(node.id,),
                    method=node.id,
                    receiver_hint=(),
                    resolved=resolved,
                    loc=_loc(node),
                )
            )
        elif isinstance(node, ast.Lambda):
            for name in self._lambda_captures(node):
                captures.append(("lambda", name))
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                self._task_refs_from(elt, refs, captures)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            self._task_refs_from(node.elt, refs, captures)
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] == "partial":
                if node.args:
                    self._task_refs_from(node.args[0], refs, captures)
        elif isinstance(node, ast.Starred):
            self._task_refs_from(node.value, refs, captures)

    def visit_Call(self, node: ast.Call) -> None:
        api: str | None = None
        if isinstance(node.func, ast.Name) and node.func.id in _DISPATCH_APIS:
            api = node.func.id
        elif isinstance(node.func, ast.Attribute) and node.func.attr in (
            _DISPATCH_APIS | {"map"}
        ):
            # ``.map`` only counts on an attribute receiver (pool.map), the
            # builtin map() is harmless.
            api = node.func.attr
        if api is not None:
            refs: list[CallRef] = []
            captures: list[tuple[str, str]] = []
            for arg in node.args:
                self._task_refs_from(arg, refs, captures)
            for kw in node.keywords:
                self._task_refs_from(kw.value, refs, captures)
            if refs or captures:
                self.sites.append(
                    DispatchSite(
                        api=api,
                        task_refs=tuple(refs),
                        closure_captures=tuple(captures),
                        loc=_loc(node),
                    )
                )
        self.generic_visit(node)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        return dotted is not None and dotted.rsplit(".", 1)[-1] in _MUTABLE_CTORS
    return False


# --------------------------------------------------------------------------
# Per-file checks (the syntax pass)


#: Modules allowed to compare sizes directly: the dominance algebra itself
#: and the bin fit primitive it defines (DBP010).
_SIZE_COMPARE_ALLOWLIST = frozenset({"repro.core.resources", "repro.core.bin"})

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})

_CONCURRENCY_MODULES = frozenset(
    {
        "socket",
        "socketserver",
        "ssl",
        "http",
        "threading",
        "_thread",
        "concurrent",
        "multiprocessing",
        "signal",
        "selectors",
        "asyncio",
        "queue",
    }
)

_ORDER_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass``/``@dataclasses.dataclass`` decorator, if any."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _dotted(target) in ("dataclass", "dataclasses.dataclass"):
            return deco
    return None


def _decorator_keyword_true(deco: ast.expr, keyword: str) -> bool:
    if not isinstance(deco, ast.Call):
        return False
    for kw in deco.keywords:
        if kw.arg == keyword:
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _cost_operand(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and _COST_NAME_RE.search(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _COST_NAME_RE.search(node.attr):
        return node.attr
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted is not None and _COST_NAME_RE.search(dotted.rsplit(".", 1)[-1]):
            return dotted
    return None


class _LocalChecks(ast.NodeVisitor):
    """One walk running every per-file check of the syntax pass."""

    def __init__(self, module: str) -> None:
        self.findings: list[LocalFinding] = []
        self.frozen_mutations: list[FrozenMutation] = []
        self.frozen_classes: list[str] = []
        self._compare_sizes = module not in _SIZE_COMPARE_ALLOWLIST
        self._functions: list[str] = []
        self._classes: list[str] = []
        #: variable name -> annotation identifiers, per function scope
        self._annotations: list[dict[str, tuple[str, ...]]] = []

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(LocalFinding(code, message, _loc(node)))

    # -- scopes, DBP006 (mutable defaults), DBP007 (slots), frozen classes

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        deco = _dataclass_decorator(node)
        if deco is not None and _decorator_keyword_true(deco, "frozen"):
            self.frozen_classes.append(node.name)
        elif any(
            (_dotted(base) or "").rsplit(".", 1)[-1] == "NamedTuple" for base in node.bases
        ):
            self.frozen_classes.append(node.name)
        if deco is not None and not node.bases and not _decorator_keyword_true(deco, "slots"):
            self._add(
                "DBP007", node, f"dataclass {node.name!r} in an engine module lacks slots=True"
            )
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        args = node.args
        for default in [*args.defaults, *(d for d in args.kw_defaults if d is not None)]:
            if _is_mutable_value(default):
                where = getattr(node, "name", "<lambda>")
                self._add(
                    "DBP006",
                    default,
                    f"mutable default argument in {where!r}; use None (or a "
                    "tuple) and construct per call",
                )

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        args = node.args
        self._functions.append(node.name)
        self._annotations.append(
            {
                arg.arg: _annotation_names(arg.annotation)
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            }
        )
        self.generic_visit(node)
        self._annotations.pop()
        self._functions.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- DBP004 (frozen mutation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._annotations and isinstance(node.target, ast.Name):
            self._annotations[-1][node.target.id] = _annotation_names(node.annotation)
        self.generic_visit(node)

    def _in_init(self) -> bool:
        return bool(self._functions) and self._functions[-1] in _INIT_METHODS

    def _check_store(self, target: ast.expr, node: ast.AST) -> None:
        if not isinstance(target, ast.Attribute) or not isinstance(target.value, ast.Name):
            return
        name = target.value.id
        if name == "self":
            if self._classes and not self._in_init():
                self.frozen_mutations.append(
                    FrozenMutation("self", target.attr, (self._classes[-1],), _loc(node))
                )
            return
        for scope in reversed(self._annotations):
            if name in scope:
                if scope[name]:
                    self.frozen_mutations.append(
                        FrozenMutation(name, target.attr, scope[name], _loc(node))
                    )
                return

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _dotted(node.func) == "object.__setattr__" and not self._in_init():
            self._add(
                "DBP004",
                node,
                "object.__setattr__ outside __init__/__post_init__ bypasses "
                "frozen-dataclass protection",
            )
        self.generic_visit(node)

    # -- DBP003 (float == on costs), DBP010 (raw size order)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in operands:
                name = _cost_operand(operand)
                if name is not None:
                    self._add(
                        "DBP003",
                        node,
                        f"equality comparison on cost-like value {name!r}; use an "
                        "explicit tolerance, or suppress citing the exact-replay "
                        "argument",
                    )
                    break
        if self._compare_sizes and any(isinstance(op, _ORDER_OPS) for op in node.ops):
            if any(isinstance(side, ast.Attribute) and side.attr == "size" for side in operands):
                self._add(
                    "DBP010",
                    node,
                    "ordered comparison on a raw .size; use size_fits()/"
                    "oversize_dimension() or a scalarisation — dominance is "
                    "a partial order",
                )
        self.generic_visit(node)

    # -- DBP016 (concurrency imports)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".", 1)[0] in _CONCURRENCY_MODULES:
                self._add(
                    "DBP016",
                    node,
                    f"engine code imports {alias.name!r}, a concurrency/"
                    "network primitive; keep the live plane observer-side",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and (node.module or "").split(".", 1)[0] in _CONCURRENCY_MODULES:
            self._add(
                "DBP016",
                node,
                f"engine code imports from {node.module!r}, a concurrency/"
                "network primitive; keep the live plane observer-side",
            )


def _suppression_findings(suppressions: dict[int, Suppression]) -> list[LocalFinding]:
    """DBP008: every ``dbp: noqa`` without codes or without a justification."""
    found: list[LocalFinding] = []
    for suppression in suppressions.values():
        if suppression.well_formed:
            continue
        if not suppression.codes:
            message = (
                "dbp: noqa must name the suppressed rule codes, e.g. "
                "'# dbp: noqa[DBP003] -- why'"
            )
        else:
            message = (
                "dbp: noqa lacks a justification; append '-- <why this "
                "deviation is sound>'"
            )
        loc = Loc(line=suppression.line, col=0, end_line=suppression.line)
        found.append(LocalFinding("DBP008", message, loc))
    return found


# --------------------------------------------------------------------------
# Module extraction


def _param_list(args: ast.arguments) -> list[ast.arg]:
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    if args.vararg is not None:
        params.append(args.vararg)
    if args.kwarg is not None:
        params.append(args.kwarg)
    return params


def _captured_mutables(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    shallow: list[ast.AST],
    enclosing_mutables: set[str],
) -> tuple[str, ...]:
    params = {arg.arg for arg in _param_list(node.args)}
    local: set[str] = set()
    for inner in shallow:
        if isinstance(inner, ast.Assign):
            for target in inner.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
    captured: set[str] = set()
    for inner in shallow:
        if isinstance(inner, ast.Name):
            name = inner.id
            if name in enclosing_mutables and name not in params and name not in local:
                captured.add(name)
    return tuple(sorted(captured))


def extract_module_facts(src: SourceFile) -> ModuleFacts:
    """Distill one parsed file into its whole-program facts."""
    tree = src.tree
    imports = _Imports(tree)

    # -- module-level mutable globals
    mutable_globals: list[tuple[str, int]] = []

    def _scan_top(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign) and _is_mutable_value(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mutable_globals.append((target.id, stmt.lineno))
            elif (
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and _is_mutable_value(stmt.value)
                and isinstance(stmt.target, ast.Name)
            ):
                mutable_globals.append((stmt.target.id, stmt.lineno))
            elif isinstance(stmt, ast.If):
                _scan_top(stmt.body)
                _scan_top(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                _scan_top(stmt.body)
                for handler in stmt.handlers:
                    _scan_top(handler.body)
                _scan_top(stmt.orelse)
                _scan_top(stmt.finalbody)

    _scan_top(tree.body)
    module_mutable_names = {name for name, _ in mutable_globals}

    # -- classes and the function inventory (methods, nested functions)
    classes: list[ClassFacts] = []
    functions: list[FunctionFacts] = []
    #: ids of the call nodes classified as some function's effect seeds
    covered: set[int] = set()

    #: module-level defs and classes, for local name resolution
    local_defs: dict[str, str] = {}
    for stmt in _body_defs(tree.body):
        local_defs[stmt.name] = f"{src.module}:{stmt.name}"

    def _function_facts(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        klass: str | None,
        enclosing_mutables: set[str],
        scope_defs: dict[str, str],
        enclosing_params: frozenset[str] | None,
    ) -> None:
        """Facts of ``node``; ``enclosing_params`` is ``None`` unless it is nested."""
        params = [arg.arg for arg in _param_list(node.args)]
        param_set = set(params)
        param_quals = {
            arg.arg: _qual_from_annotation(arg.annotation)
            for arg in _param_list(node.args)
        }
        param_hints = {
            arg.arg: _annotation_names(arg.annotation)
            for arg in _param_list(node.args)
            if arg.annotation is not None
        }
        # One shallow walk of the body, shared by every collector below.
        shallow = list(_walk_shallow(node.body))
        # Local AnnAssign hints extend receiver-annotation knowledge.
        for inner in shallow:
            if isinstance(inner, ast.AnnAssign) and isinstance(inner.target, ast.Name):
                names = _annotation_names(inner.annotation)
                if names:
                    param_hints.setdefault(inner.target.id, names)

        # Nested defs are resolvable from this scope by bare name.
        nested = _body_defs(node.body)
        inner_defs = dict(scope_defs)
        for stmt in nested:
            inner_defs[stmt.name] = f"{qualname}.{stmt.name}"

        effects = _collect_effects(
            node.body,
            shallow,
            imports,
            param_set,
            module_mutable_names,
            enclosing_params or frozenset(),
            covered,
        )
        calls = _collect_calls(shallow, param_set, inner_defs, param_hints)

        scan = _ExactnessScan(
            node.name, src.module, param_quals, imports, inner_defs, param_hints
        )
        scan.run(node.body)
        flows = tuple(
            sorted(
                scan.flows.values(),
                key=lambda f: (f.loc.line, f.loc.col, f.sink, f.sink_name),
            )
        )

        # Deduplicate return deps.
        return_deps: list[CallRef] = []
        seen_deps: set[tuple[int, int, tuple[str, ...]]] = set()
        for dep in scan.return_deps:
            key = (dep.loc.line, dep.loc.col, dep.chain)
            if key not in seen_deps:
                seen_deps.add(key)
                return_deps.append(dep)

        functions.append(
            FunctionFacts(
                qualname=qualname,
                module=src.module,
                name=node.name,
                klass=klass,
                loc=_loc(node),
                params=tuple(params),
                param_quals=tuple(sorted(param_quals.items())),
                effects=tuple(effects),
                calls=tuple(calls),
                flows=flows,
                returns_introduced=scan.returns_introduced,
                return_reason=scan.return_reason,
                return_call_deps=tuple(return_deps),
                captured_mutables=_captured_mutables(node, shallow, enclosing_mutables),
                is_nested=enclosing_params is not None,
            )
        )

        # Recurse into nested functions with this scope's mutables added.
        own_mutables = set(enclosing_mutables)
        for inner in shallow:
            if isinstance(inner, ast.Assign) and _is_mutable_value(inner.value):
                for target in inner.targets:
                    if isinstance(target, ast.Name):
                        own_mutables.add(target.id)
        for stmt in nested:
            _function_facts(
                stmt,
                f"{qualname}.{stmt.name}",
                klass,
                own_mutables,
                inner_defs,
                (enclosing_params or frozenset()) | param_set,
            )
        # Classes defined in this body: ``{qualname}.Class``.
        path = qualname.split(":", 1)[1]
        for stmt in _body_defs(node.body, ast.ClassDef):
            _class_facts(stmt, f"{path}.{stmt.name}", inner_defs)

    def _class_facts(stmt: ast.ClassDef, path: str, scope_defs: dict[str, str]) -> None:
        """Facts of a class at ``module:path`` and of its methods.

        ``path`` is the class's dotted place in the module (``Class``,
        ``make.Class``, ``Outer.Inner``), which is also the ``klass`` its
        methods carry.
        """
        methods: list[str] = []
        attr_hints: list[tuple[str, tuple[str, ...]]] = []
        method_defs = _body_defs(stmt.body)
        for item in method_defs:
            methods.append(item.name)
            _function_facts(item, f"{src.module}:{path}.{item.name}", path, set(), scope_defs, None)
        for attr in stmt.body:
            if isinstance(attr, ast.AnnAssign) and isinstance(attr.target, ast.Name):
                names = _annotation_names(attr.annotation)
                if names:
                    attr_hints.append((attr.target.id, names))
        # ``self.x: T = ...`` inside __init__ also hints attribute types.
        for item in method_defs:
            for inner in _walk_shallow(item.body):
                if (
                    isinstance(inner, ast.AnnAssign)
                    and isinstance(inner.target, ast.Attribute)
                    and isinstance(inner.target.value, ast.Name)
                    and inner.target.value.id == "self"
                ):
                    names = _annotation_names(inner.annotation)
                    if names:
                        attr_hints.append((inner.target.attr, names))
        bases = tuple(dotted for base in stmt.bases if (dotted := _dotted(base)) is not None)
        classes.append(
            ClassFacts(
                qualname=f"{src.module}:{path}",
                module=src.module,
                name=stmt.name,
                bases=bases,
                methods=tuple(methods),
                attr_hints=tuple(attr_hints),
                loc=_loc(stmt),
            )
        )
        for inner_class in _body_defs(stmt.body, ast.ClassDef):
            _class_facts(inner_class, f"{path}.{inner_class.name}", scope_defs)

    for stmt in _body_defs(tree.body):
        _function_facts(stmt, f"{src.module}:{stmt.name}", None, set(), local_defs, None)
    # Classes at module level, in its ``if``/``try`` blocks too, and (from
    # ``_function_facts``) classes defined in function bodies.
    for stmt in _body_defs(tree.body, ast.ClassDef):
        _class_facts(stmt, stmt.name, local_defs)

    # -- every call no extracted function body classified: module seeds
    module_effects = list(imports.sites)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in covered:
            effect = _effect_for_call(node, imports, frozenset())
            if effect is not None:
                module_effects.append(effect)

    # -- unordered iteration and dispatch sites (whole file, scope-aware)
    tracker = _SetTracker(imports)
    tracker.visit(tree)
    dispatch = _DispatchCollector(local_defs)
    dispatch.visit(tree)
    checks = _LocalChecks(src.module)
    checks.visit(tree)
    findings = checks.findings + _suppression_findings(src.suppressions)

    return ModuleFacts(
        module=src.module,
        path=src.path,
        functions=tuple(sorted(functions, key=lambda f: f.qualname)),
        classes=tuple(sorted(classes, key=lambda c: c.qualname)),
        imports=tuple(sorted(imports.aliases.items())),
        mutable_globals=tuple(sorted(mutable_globals)),
        iteration_sites=tuple(
            sorted(tracker.sites, key=lambda s: (s.loc.line, s.loc.col, s.detail))
        ),
        dispatch_sites=tuple(
            sorted(dispatch.sites, key=lambda s: (s.loc.line, s.loc.col, s.api))
        ),
        module_effects=tuple(
            sorted(module_effects, key=lambda e: (e.loc.line, e.loc.col, e.effect))
        ),
        findings=tuple(
            sorted(findings, key=lambda f: (f.loc.line, f.loc.col, f.code))
        ),
        frozen_mutations=tuple(checks.frozen_mutations),
        frozen_classes=tuple(sorted(set(checks.frozen_classes))),
        suppressions=dict(src.suppressions),
    )
