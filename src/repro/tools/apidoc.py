"""API reference generation from the package's own docstrings.

Walks every ``repro`` submodule, collects the module summary and the first
docstring line of each ``__all__`` entry, and renders ``docs/API.md``.  A
sync test regenerates the document and diffs it against the committed
copy, so the reference cannot rot silently::

    python -m repro.tools.apidoc --check   # exit 1 when out of date
    python -m repro.tools.apidoc --write   # refresh docs/API.md
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

__all__ = ["iter_public_modules", "render_api_markdown", "main"]

#: Modules skipped in the reference.  The static checker is public API
#: (tests and CI call it); apidoc itself stays out of its own output.
_SKIP_PREFIXES = ("repro.tools.apidoc",)


def iter_public_modules() -> list[str]:
    """Dotted names of every documented repro submodule, sorted."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.startswith(_SKIP_PREFIXES):
            continue
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        names.append(info.name)
    return sorted(names)


def _first_line(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    return doc.strip().splitlines()[0].rstrip(".")


def render_api_markdown() -> str:
    """Render the full API reference as markdown."""
    lines = [
        "# API reference",
        "",
        "Generated from docstrings by `python -m repro.tools.apidoc --write`;",
        "`tests/test_apidoc.py` keeps it in sync.  One row per `__all__` entry.",
        "",
    ]
    for name in iter_public_modules():
        module = importlib.import_module(name)
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(_first_line(module.__doc__) + ".")
        exported = getattr(module, "__all__", None)
        if exported:
            lines.append("")
            lines.append("| Name | Kind | Summary |")
            lines.append("|---|---|---|")
            for symbol in exported:
                obj = getattr(module, symbol, None)
                if inspect.isclass(obj):
                    kind = "class"
                elif callable(obj):
                    kind = "function"
                elif isinstance(obj, type(sys)):
                    kind = "module"
                else:
                    kind = "constant"
                summary = _first_line(getattr(obj, "__doc__", None)) if obj is not None else ""
                # Constants inherit their type's docstring; suppress the noise.
                if kind == "constant":
                    summary = ""
                summary = summary.replace("|", "\\|")  # keep the table intact
                lines.append(f"| `{symbol}` | {kind} | {summary} |")
        lines.append("")
    return "\n".join(lines)


def default_output_path() -> Path:
    return Path(__file__).resolve().parents[3] / "docs" / "API.md"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    path = default_output_path()
    rendered = render_api_markdown()
    if "--write" in argv:
        path.write_text(rendered)
        print(f"wrote {path}")
        return 0
    if "--check" in argv:
        if not path.exists() or path.read_text() != rendered:
            print(f"{path} is out of date; run python -m repro.tools.apidoc --write")
            return 1
        print(f"{path} is up to date")
        return 0
    print(rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
