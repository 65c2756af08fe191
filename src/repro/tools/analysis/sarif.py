"""SARIF 2.1.0 serialization of an analysis report.

The document is a pure function of the report: keys are emitted sorted and
the text is built with a fixed indent, so two runs producing the same
findings produce byte-identical SARIF (tested, and diffed in CI between a
cold and a warm cached run).  Baselined findings are *included* as results
carrying a ``suppressions`` entry of kind ``"external"`` with the
baseline's justification — SARIF viewers show them greyed-out rather than
losing them entirely.
"""

from __future__ import annotations

import json
from pathlib import PurePosixPath

from repro.tools.analysis.baseline import BaselineEntry
from repro.tools.analysis.catalog import iter_rules
from repro.tools.analysis.engine import AnalysisReport
from repro.tools.analysis.source import Violation

__all__ = ["sarif_document", "to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)
_TOOL_NAME = "dbp-analysis"
_TOOL_VERSION = "1.0.0"


def _rule_index() -> dict[str, int]:
    return {rule.code: position for position, rule in enumerate(iter_rules())}


def _result(
    violation: Violation,
    indices: dict[str, int],
    entry: BaselineEntry | None,
) -> dict[str, object]:
    uri = PurePosixPath(violation.path.replace("\\", "/")).as_posix()
    region: dict[str, object] = {
        "startLine": violation.line,
        "startColumn": violation.col + 1,
    }
    if violation.end_line is not None:
        region["endLine"] = violation.end_line
    result: dict[str, object] = {
        "ruleId": violation.code,
        "ruleIndex": indices[violation.code],
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": region,
                }
            }
        ],
    }
    if entry is not None:
        result["suppressions"] = [
            {"kind": "external", "justification": entry.justification}
        ]
    return result


def sarif_document(report: AnalysisReport) -> dict[str, object]:
    """The report as a SARIF 2.1.0 object (plain dicts/lists)."""
    indices = _rule_index()
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "help": {"text": rule.help},
            "defaultConfiguration": {"level": "error"},
            "properties": {"pass": rule.pass_name, "scope": rule.scope},
        }
        for rule in iter_rules()
    ]
    results = [_result(v, indices, None) for v in report.violations]
    results.extend(_result(v, indices, entry) for v, entry in report.baselined)
    results.sort(
        key=lambda r: (
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],  # type: ignore[index]
            r["locations"][0]["physicalLocation"]["region"]["startLine"],  # type: ignore[index]
            r["ruleId"],
        )
    )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "version": _TOOL_VERSION,
                        "informationUri": "https://example.invalid/dbp-analysis",
                        "rules": rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


def to_sarif(report: AnalysisReport) -> str:
    """Byte-stable SARIF text (sorted keys, fixed indent, trailing newline)."""
    return json.dumps(sarif_document(report), indent=2, sort_keys=True) + "\n"
