"""Project symbol table and call-target resolution.

:class:`ProjectIndex` joins the per-file :class:`~repro.tools.analysis.facts.ModuleFacts`
into one whole-program view: functions by qualname, classes with their
project base-class closure, and :meth:`resolve` — the single place where a
local :class:`~repro.tools.analysis.facts.CallRef` becomes a set of
concrete target qualnames.

Resolution is deliberately *dispatch-aware*:

* ``self.m()`` resolves through the enclosing class's project MRO and then
  fans out to every override of ``m`` in transitive subclasses (the static
  type does not pin the dynamic one).
* ``recv.m()`` where ``recv``'s annotation names a project class (Protocol
  or ABC) fans out to the base implementation plus every project subclass
  override — this is how ``algo.choose_bin(...)`` reaches all registered
  algorithms.
* Un-hinted attribute calls fan out **only** for the well-known hook names
  (``on_*``, ``choose_bin``/``choose_bin_indexed``,
  ``checkpoint_state``/``restore_state``); anything else stays unresolved
  rather than polluting the graph with every same-named method.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.tools.analysis.facts import CallRef, ClassFacts, FunctionFacts, ModuleFacts

__all__ = ["ProjectIndex"]

_HOOK_NAME_RE = re.compile(
    r"^(?:on_[a-z0-9_]+|choose_bin|choose_bin_indexed|checkpoint_state|restore_state)$"
)


class ProjectIndex:
    """Whole-program symbol table over a set of module facts."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {}
        self.functions: dict[str, FunctionFacts] = {}
        self.classes: dict[str, ClassFacts] = {}
        #: simple class name -> class qualnames (usually one)
        self._class_by_name: dict[str, list[str]] = {}
        #: method name -> defining function qualnames (hook fan-out)
        self._methods_by_name: dict[str, list[str]] = {}
        #: alias maps per module
        self._imports: dict[str, dict[str, str]] = {}

        for facts in modules:
            self.modules[facts.module] = facts
            self._imports[facts.module] = dict(facts.imports)
            for fn in facts.functions:
                self.functions[fn.qualname] = fn
                if fn.klass is not None:
                    self._methods_by_name.setdefault(fn.name, []).append(fn.qualname)
            for klass in facts.classes:
                self.classes[klass.qualname] = klass
                self._class_by_name.setdefault(klass.name, []).append(klass.qualname)

        for bucket in self._methods_by_name.values():
            bucket.sort()
        for bucket in self._class_by_name.values():
            bucket.sort()

        #: direct project subclasses, then the transitive closure
        self._subclasses: dict[str, set[str]] = {q: set() for q in self.classes}
        for klass in self.classes.values():
            for base in klass.bases:
                base_q = self._resolve_class_name(klass.module, base)
                if base_q is not None:
                    self._subclasses.setdefault(base_q, set()).add(klass.qualname)
        self._transitive_subclasses: dict[str, frozenset[str]] = {}
        for qualname in self.classes:
            seen: set[str] = set()
            frontier = [qualname]
            while frontier:
                current = frontier.pop()
                for sub in self._subclasses.get(current, ()):
                    if sub not in seen:
                        seen.add(sub)
                        frontier.append(sub)
            self._transitive_subclasses[qualname] = frozenset(seen)

    # ------------------------------------------------------------------
    # Class machinery

    def _resolve_class_name(self, module: str, dotted: str) -> str | None:
        """Resolve a (possibly dotted) class expression seen in ``module``."""
        parts = dotted.split(".")
        aliases = self._imports.get(module, {})
        # Same-module class.
        candidate = f"{module}:{parts[-1]}"
        if len(parts) == 1 and candidate in self.classes:
            return candidate
        # Through an import alias: ``alias`` or ``alias.Class``.
        target = aliases.get(parts[0])
        if target is not None:
            full = ".".join([target, *parts[1:]])
            mod, _, name = full.rpartition(".")
            if f"{mod}:{name}" in self.classes:
                return f"{mod}:{name}"
            # ``from pkg import mod`` then ``mod.Class`` nests one deeper.
            if full.count(".") >= 1:
                mod2, _, name2 = full.rpartition(".")
                candidate2 = f"{mod2}:{name2}"
                if candidate2 in self.classes:
                    return candidate2
        # Fall back to the unique simple-name match.
        matches = self._class_by_name.get(parts[-1], [])
        if len(matches) == 1:
            return matches[0]
        return None

    def project_bases(self, class_qualname: str) -> Iterator[str]:
        """The project base-class chain (depth-first, no repeats)."""
        seen: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop(0)
            klass = self.classes.get(current)
            if klass is None:
                continue
            for base in klass.bases:
                base_q = self._resolve_class_name(klass.module, base)
                if base_q is not None and base_q not in seen:
                    seen.add(base_q)
                    yield base_q
                    frontier.append(base_q)

    def base_name_chain(self, class_qualname: str) -> list[str]:
        """All base names (project or external, simple names) transitively."""
        names: list[str] = []
        seen_q: set[str] = set()
        frontier = [class_qualname]
        while frontier:
            current = frontier.pop(0)
            if current in seen_q:
                continue
            seen_q.add(current)
            klass = self.classes.get(current)
            if klass is None:
                continue
            for base in klass.bases:
                names.append(base.split(".")[-1])
                base_q = self._resolve_class_name(klass.module, base)
                if base_q is not None:
                    frontier.append(base_q)
        return names

    def frozen_classes(self) -> frozenset[str]:
        """Names of frozen dataclasses and ``NamedTuple`` subclasses, project-wide."""
        return frozenset(
            name for facts in self.modules.values() for name in facts.frozen_classes
        )

    def is_observer_class(self, class_qualname: str) -> bool:
        """Whether the class transitively subclasses an ``*Observer`` base."""
        klass = self.classes.get(class_qualname)
        if klass is not None and klass.name.endswith("Observer"):
            return True
        return any(name.endswith("Observer") for name in self.base_name_chain(class_qualname))

    def _lookup_method(self, class_qualname: str, method: str) -> str | None:
        """Resolve a method through the project MRO (class then bases)."""
        klass = self.classes.get(class_qualname)
        if klass is None:
            return None
        if method in klass.methods:
            return f"{class_qualname}.{method}"
        for base_q in self.project_bases(class_qualname):
            base = self.classes[base_q]
            if method in base.methods:
                return f"{base_q}.{method}"
        return None

    def _method_with_overrides(self, class_qualname: str, method: str) -> list[str]:
        """The MRO resolution plus every subclass override (dynamic targets)."""
        targets: list[str] = []
        base = self._lookup_method(class_qualname, method)
        if base is not None:
            targets.append(base)
        for sub_q in sorted(self._transitive_subclasses.get(class_qualname, ())):
            sub = self.classes[sub_q]
            if method in sub.methods:
                targets.append(f"{sub_q}.{method}")
        seen: dict[str, None] = {}
        for target in targets:
            seen.setdefault(target)
        return [t for t in seen if t in self.functions]

    # ------------------------------------------------------------------
    # Call resolution

    def _resolve_imported_callable(self, module: str, chain: tuple[str, ...]) -> list[str]:
        """Resolve ``alias(...)`` / ``alias.attr(...)`` through imports."""
        aliases = self._imports.get(module, {})
        target = aliases.get(chain[0])
        if target is None:
            return []
        full = ".".join([target, *chain[1:]])
        mod, _, name = full.rpartition(".")
        # Function in a project module.
        if mod in self.modules and f"{mod}:{name}" in self.functions:
            return [f"{mod}:{name}"]
        # Class constructor -> __init__ (effects of construction).
        if f"{mod}:{name}" in self.classes:
            init = self._lookup_method(f"{mod}:{name}", "__init__")
            return [init] if init is not None else []
        # ``Class.method`` for an imported class (static/classmethod call).
        if len(chain) >= 2:
            head = ".".join([target, *chain[1:-1]])
            mod2, _, cls = head.rpartition(".")
            if f"{mod2}:{cls}" in self.classes:
                return self._method_with_overrides(f"{mod2}:{cls}", chain[-1])
        return []

    def _hint_classes(self, module: str, hint: tuple[str, ...]) -> list[str]:
        resolved: list[str] = []
        for name in hint:
            if name in ("Optional", "Union", "None", "Sequence", "list", "tuple"):
                continue
            class_q = self._resolve_class_name(module, name)
            if class_q is not None:
                resolved.append(class_q)
        return resolved

    def resolve(self, caller: FunctionFacts, ref: CallRef) -> list[str]:
        """All plausible concrete targets of ``ref`` made from ``caller``.

        Returns qualnames present in :attr:`functions`; an empty list means
        the call leaves the project (stdlib, builtins) or cannot be pinned
        down — the passes treat those as effect-free/exactness-neutral,
        which is why hook names get the conservative fan-out below.
        """
        if ref.resolved is not None and ref.resolved in self.functions:
            return [ref.resolved]

        if ref.kind == "name":
            # Same-module function not caught locally (e.g. defined later).
            candidate = f"{caller.module}:{ref.method}"
            if candidate in self.functions:
                return [candidate]
            return self._resolve_imported_callable(caller.module, ref.chain)

        if ref.kind == "dotted":
            return self._resolve_imported_callable(caller.module, ref.chain)

        if ref.kind == "self":
            if caller.klass is None:
                return []
            class_q = f"{caller.module}:{caller.klass}"
            return self._method_with_overrides(class_q, ref.method)

        if ref.kind == "self_attr":
            if caller.klass is None:
                return []
            klass = self.classes.get(f"{caller.module}:{caller.klass}")
            if klass is not None:
                attr = ref.chain[1]
                for name, hint in klass.attr_hints:
                    if name == attr:
                        targets: list[str] = []
                        for class_q in self._hint_classes(caller.module, hint):
                            targets.extend(
                                self._method_with_overrides(class_q, ref.method)
                            )
                        if targets:
                            return sorted(set(targets))
            # No annotation for the attribute: hooks still fan out.
            return self._hook_fanout(ref.method)

        if ref.kind == "method":
            if ref.receiver_hint:
                targets = []
                for class_q in self._hint_classes(caller.module, ref.receiver_hint):
                    targets.extend(self._method_with_overrides(class_q, ref.method))
                if targets:
                    return sorted(set(targets))
            return self._hook_fanout(ref.method)

        return []

    def resolve_name_in_module(self, module: str, name: str) -> list[str]:
        """Resolve a bare name seen in ``module`` without a caller context.

        Used for worker-task references (``run_tasks([task, ...])``), which
        are collected at module granularity: tries a module-level function,
        then a unique nested function, then the import table.
        """
        candidate = f"{module}:{name}"
        if candidate in self.functions:
            return [candidate]
        nested = sorted(
            q
            for q in self.functions
            if q.startswith(module + ":") and q.endswith("." + name)
        )
        if len(nested) == 1:
            return nested
        return self._resolve_imported_callable(module, (name,))

    def _hook_fanout(self, method: str) -> list[str]:
        if not _HOOK_NAME_RE.match(method):
            return []
        return list(self._methods_by_name.get(method, ()))

    # ------------------------------------------------------------------
    # Effect-pass roots

    def hook_roots(self) -> list[tuple[str, str]]:
        """``(qualname, kind)`` for every purity root.

        Roots are ``on_*`` methods of observer-like classes (kind
        ``"observer-hook"``) and ``choose_bin``/``choose_bin_indexed``
        implementations (kind ``"choose-bin"``).
        """
        roots: list[tuple[str, str]] = []
        for fn in self.functions.values():
            if fn.klass is None:
                continue
            class_q = f"{fn.module}:{fn.klass}"
            if fn.name in ("choose_bin", "choose_bin_indexed"):
                roots.append((fn.qualname, "choose-bin"))
            elif fn.name.startswith("on_") and self.is_observer_class(class_q):
                roots.append((fn.qualname, "observer-hook"))
        roots.sort()
        return roots
