"""Source files, findings and suppressions: what every pass reads and writes.

* :class:`AnalysisConfig` — rule selection (``select``/``ignore``) and the
  path components excluded from tree runs.
* :class:`SourceFile` / :func:`load_source_files` — sorted-order discovery
  and parsing; the dotted module name (:func:`module_name_for`) drives
  rule scoping.
* :class:`Suppression` / :func:`scan_suppressions` — ``# dbp: noqa[CODE]
  -- justification`` comments.  Suppressions are deliberately narrow: they
  name the exact rule codes being silenced and must carry a justification
  after ``--``.  A bare ``# dbp: noqa`` (no codes) or a code list without a
  justification is itself a finding (``DBP008``) and silences nothing.
* :class:`Violation` — one finding at one source location, whatever pass
  produced it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "DEFAULT_EXCLUDES",
    "AnalysisConfig",
    "SourceFile",
    "Suppression",
    "Violation",
    "apply_suppressions",
    "iter_python_files",
    "load_source_files",
    "module_name_for",
    "parse_source",
    "scan_suppressions",
]

#: Path components that are never analyzed by default (rule fixtures contain
#: violations on purpose; caches are not source).
DEFAULT_EXCLUDES: tuple[str, ...] = (
    "lint_fixtures",
    "analysis_fixtures",
    "__pycache__",
    ".git",
)


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Immutable run configuration.

    ``select``/``ignore`` filter by rule code after scoping; ``select`` of
    ``None`` (the default) means every catalogued rule.
    """

    exclude: tuple[str, ...] = DEFAULT_EXCLUDES
    select: frozenset[str] | None = None
    ignore: frozenset[str] = field(default_factory=frozenset)

    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    def is_excluded(self, path: Path) -> bool:
        parts = set(path.parts)
        return any(marker in parts for marker in self.exclude)


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name of a source file.

    ``src/repro/core/bin.py`` → ``repro.core.bin``;
    ``tests/test_simulator.py`` → ``tests.test_simulator``; anything else
    falls back to the stem.  The name only drives *scoping*, so a stable
    guess is all that is needed.
    """
    parts = list(path.parts)
    stem = path.stem
    for anchor in ("repro", "tests"):
        if anchor in parts:
            rel = parts[parts.index(anchor) : -1] + [stem]
            if rel[-1] == "__init__":
                rel = rel[:-1]
            return ".".join(rel)
    return stem


# --------------------------------------------------------------------------
# Findings


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding at one source location.

    ``line``/``col`` are 1-based line and 0-based column, matching CPython's
    :mod:`ast` conventions (and compiler ``file:line:col`` output).
    ``end_line`` is the last line of the offending statement — suppression
    comments anywhere in ``[line, end_line]`` apply.
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str
    end_line: int | None = None

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        """Human-readable one-liner: ``path:line:col: CODE message``."""
        return f"{self.location()}: {self.code} {self.message}"

    def as_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


# --------------------------------------------------------------------------
# Suppressions

#: Matches the whole suppression comment; ``codes`` and ``why`` may be absent.
_NOQA_RE = re.compile(
    r"#\s*dbp:\s*noqa"
    r"(?:\s*\[(?P<codes>[^\]]*)\])?"
    r"(?:\s*--\s*(?P<why>.*\S))?",
)

_CODE_RE = re.compile(r"^DBP\d{3}$")


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed suppression comment."""

    line: int
    codes: frozenset[str]
    justification: str

    @property
    def well_formed(self) -> bool:
        """Codes present and syntactically valid, justification non-empty."""
        return bool(self.codes) and bool(self.justification)

    def suppresses(self, code: str) -> bool:
        return self.well_formed and code in self.codes


def scan_suppressions(lines: list[str]) -> dict[int, Suppression]:
    """Parse every ``dbp: noqa`` comment; keyed by 1-based line number.

    Only real ``#`` comment tokens are scanned (via :mod:`tokenize`), so
    prose *about* the suppression syntax inside docstrings never registers.
    Malformed code tokens (not ``DBPnnn``) are dropped from ``codes``, which
    leaves the suppression inert — the original finding still fires, and
    ``DBP008`` points at the malformed comment.
    """
    found: dict[int, Suppression] = {}
    source = "\n".join(lines) + "\n"
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return found
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(tok.string)
        if match is None:
            continue
        raw_codes = match.group("codes") or ""
        codes = frozenset(
            token
            for token in (part.strip() for part in raw_codes.split(","))
            if _CODE_RE.fullmatch(token)
        )
        why = (match.group("why") or "").strip()
        lineno = tok.start[0]
        found[lineno] = Suppression(line=lineno, codes=codes, justification=why)
    return found


def apply_suppressions(
    violations: Iterable[Violation], suppressions: dict[int, Suppression]
) -> tuple[list[Violation], int]:
    """Drop findings whose ``[line, end_line]`` span holds a matching noqa."""
    kept: list[Violation] = []
    dropped = 0
    for violation in violations:
        end = violation.end_line or violation.line
        if any(
            lineno in suppressions and suppressions[lineno].suppresses(violation.code)
            for lineno in range(violation.line, end + 1)
        ):
            dropped += 1
        else:
            kept.append(violation)
    return kept, dropped


# --------------------------------------------------------------------------
# Loading


@dataclass(slots=True)
class SourceFile:
    """One parsed source file, ready for fact extraction."""

    path: str  # display path (as given on the command line)
    module: str  # dotted module name (drives scoping)
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression]


def parse_source(source: str, *, path: str, module: str) -> SourceFile:
    """Parse ``source`` into a :class:`SourceFile`; raises ``SyntaxError``."""
    return SourceFile(
        path=path,
        module=module,
        source=source,
        tree=ast.parse(source, filename=path),
        suppressions=scan_suppressions(source.splitlines()),
    )


def iter_python_files(paths: Sequence[Path], config: AnalysisConfig) -> Iterator[Path]:
    """Expand files/directories into the `.py` files to analyze, in sorted order."""
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not config.is_excluded(candidate):
                    yield candidate
        elif path.suffix == ".py" and not config.is_excluded(path):
            yield path


def load_source_files(
    paths: Sequence[str | Path], config: AnalysisConfig
) -> tuple[list[SourceFile], list[tuple[str, str]]]:
    """Load and parse every file under ``paths``.

    Returns the parsed files plus ``(path, message)`` pairs for files that
    could not be read or parsed — unparsable files are reported, never
    silently skipped.
    """
    loaded: list[SourceFile] = []
    errors: list[tuple[str, str]] = []
    for path in iter_python_files([Path(p) for p in paths], config):
        display = str(path)
        try:
            source = path.read_text(encoding="utf-8")
            loaded.append(
                parse_source(source, path=display, module=module_name_for(path))
            )
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append((display, str(exc)))
    return loaded, errors
