"""Committed baseline of sanctioned findings, with mandatory justifications.

Some findings are *correct but intended* — the exact-replay test oracles
deliberately compare float-typed legacy fields, for example.  Rather than
sprinkling inline ``noqa`` comments through code that is otherwise clean,
the analyzer accepts a committed JSON baseline (``analysis-baseline.json``
at the repository root).  Every entry MUST carry a human-written
justification: entries with an empty justification, or one still starting
with ``TODO`` (the placeholder ``--write-baseline`` emits), are a
configuration error (exit 2) — a baseline is a reviewed decision, not a
mute button.

An entry matches a finding by rule code, path suffix, and an optional
``contains`` substring of the message.  Matching is line-number-free on
purpose: baselines must survive unrelated edits to the file.  Entries that
match nothing are reported as *stale* so they get pruned, but do not fail
the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from repro.tools.analysis.source import Violation

__all__ = [
    "BaselineEntry",
    "BaselineError",
    "DEFAULT_BASELINE_NAME",
    "apply_baseline",
    "load_baseline",
    "render_baseline",
]

DEFAULT_BASELINE_NAME = "analysis-baseline.json"


class BaselineError(ValueError):
    """A malformed or unjustified baseline (a configuration error)."""


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One sanctioned finding."""

    code: str
    path: str  # posix path suffix, matched against the finding's path
    contains: str  # substring of the message ("" matches any)
    justification: str

    def matches(self, violation: Violation) -> bool:
        if violation.code != self.code:
            return False
        candidate = PurePosixPath(violation.path.replace("\\", "/"))
        suffix = PurePosixPath(self.path)
        if candidate != suffix and not str(candidate).endswith("/" + str(suffix)):
            return False
        return self.contains in violation.message


def load_baseline(path: str | Path) -> list[BaselineEntry]:
    """Parse and validate a baseline file.

    Raises :class:`BaselineError` on malformed JSON, missing fields, or a
    missing/placeholder justification.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise BaselineError(
            f"baseline {path} must be an object with an 'entries' list"
        )
    entries: list[BaselineEntry] = []
    for index, item in enumerate(raw["entries"]):
        if not isinstance(item, dict):
            raise BaselineError(f"baseline entry #{index} is not an object")
        missing = {"code", "path", "justification"} - set(item)
        if missing:
            raise BaselineError(
                f"baseline entry #{index} is missing {sorted(missing)}"
            )
        justification = str(item["justification"]).strip()
        if not justification or justification.upper().startswith("TODO"):
            raise BaselineError(
                f"baseline entry #{index} ({item['code']} {item['path']}) has "
                f"no real justification; every sanctioned finding must say why"
            )
        entries.append(
            BaselineEntry(
                code=str(item["code"]),
                path=str(item["path"]),
                contains=str(item.get("contains", "")),
                justification=justification,
            )
        )
    return entries


def apply_baseline(
    violations: list[Violation], entries: list[BaselineEntry]
) -> tuple[list[Violation], list[tuple[Violation, BaselineEntry]], list[BaselineEntry]]:
    """Split findings into (kept, baselined pairs, stale entries)."""
    kept: list[Violation] = []
    baselined: list[tuple[Violation, BaselineEntry]] = []
    used: set[int] = set()
    for violation in violations:
        match: BaselineEntry | None = None
        for position, entry in enumerate(entries):
            if entry.matches(violation):
                match = entry
                used.add(position)
                break
        if match is None:
            kept.append(violation)
        else:
            baselined.append((violation, match))
    stale = [entry for position, entry in enumerate(entries) if position not in used]
    return kept, baselined, stale


def render_baseline(violations: list[Violation]) -> str:
    """Serialize findings as a baseline skeleton (``--write-baseline``).

    Justifications are emitted as ``TODO`` placeholders that the loader
    rejects, forcing a human to replace each one before the baseline is
    usable.
    """
    entries = [
        {
            "code": v.code,
            "path": PurePosixPath(v.path.replace("\\", "/")).as_posix(),
            "contains": v.message[:60],
            "justification": "TODO: explain why this finding is sanctioned",
        }
        for v in violations
    ]
    return json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n"
