"""SARIF 2.1.0 output tests: schema shape and byte-stability.

The SARIF document must carry the full rule catalogue as driver metadata,
one result per finding with a physical location, baselined findings as
externally-suppressed results with their justification — and two runs over
the same sources must serialize to byte-identical text (CI uploads the
artifact and diffs cold vs warm cached runs).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.tools.analysis import (
    SCOPES,
    BaselineEntry,
    all_codes,
    analyze_sources,
    sarif_document,
    to_sarif,
)
from repro.tools.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

ENGINE_MODULE = "repro.core.fx_sarif"


def _report(baseline=()):
    source = (FIXTURES / "determinism_tp.py").read_text(encoding="utf-8")
    return analyze_sources({ENGINE_MODULE: source}, baseline=list(baseline))


class TestShape:
    def test_top_level_envelope(self):
        doc = sarif_document(_report())
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        assert len(doc["runs"]) == 1

    def test_driver_rules_carry_metadata(self):
        doc = sarif_document(_report())
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [rule["id"] for rule in rules] == all_codes()
        for rule in rules:
            assert rule["name"]
            assert rule["shortDescription"]["text"]
            assert rule["help"]["text"]
            assert rule["defaultConfiguration"] == {"level": "error"}
            assert rule["properties"]["pass"]
            assert rule["properties"]["scope"] in SCOPES

    def test_results_reference_rules_and_locations(self):
        doc = sarif_document(_report())
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        results = doc["runs"][0]["results"]
        assert results, "fixture produced no results"
        for result in results:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] == "error"
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            uri = location["artifactLocation"]["uri"]
            assert "\\" not in uri and uri.endswith(".py")
            region = location["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            assert "suppressions" not in result

    def test_baselined_findings_become_external_suppressions(self):
        entry = BaselineEntry(
            code="DBP014",
            path=f"{ENGINE_MODULE.replace('.', '/')}.py",
            contains="",
            justification="sanctioned for the fixture",
        )
        doc = sarif_document(_report(baseline=[entry]))
        results = doc["runs"][0]["results"]
        suppressed = [r for r in results if "suppressions" in r]
        open_results = [r for r in results if "suppressions" not in r]
        assert suppressed and open_results
        assert {r["ruleId"] for r in suppressed} == {"DBP014"}
        for result in suppressed:
            assert result["suppressions"] == [
                {"kind": "external", "justification": "sanctioned for the fixture"}
            ]


    def test_per_file_finding_carries_rule_metadata_and_baselines(self):
        source = "def same(total_cost, other):\n    return total_cost == other\n"
        module = "repro.experiments.fx_eq"
        doc = sarif_document(analyze_sources({module: source}))
        run = doc["runs"][0]
        [result] = run["results"]
        assert result["ruleId"] == "DBP003"
        (component,) = run["tool"].values()  # the tool's one component
        rule = component["rules"][result["ruleIndex"]]
        assert rule["id"] == "DBP003"
        assert rule["name"] == "float-eq-on-cost"
        assert "tolerance" in rule["help"]["text"]
        assert rule["properties"] == {"pass": "syntax", "scope": "src"}
        entry = BaselineEntry(
            code="DBP003",
            path="repro/experiments/fx_eq.py",
            contains="total_cost",
            justification="exact-replay oracle for the fixture",
        )
        report = analyze_sources({module: source}, baseline=[entry])
        assert report.ok and report.violations == []
        [result] = sarif_document(report)["runs"][0]["results"]
        assert result["suppressions"] == [
            {"kind": "external", "justification": "exact-replay oracle for the fixture"}
        ]


class TestByteStability:
    def test_repeat_serialization_is_byte_identical(self):
        assert to_sarif(_report()) == to_sarif(_report())

    def test_text_is_deterministic_json(self):
        text = to_sarif(_report())
        assert text.endswith("\n")
        # Round-trip through json with the same settings reproduces it.
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_cli_sarif_runs_are_byte_identical(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "def order_matters(tags: set):\n    return [t for t in tags]\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        cmd = [
            sys.executable,
            "-m",
            "repro.tools.analysis",
            str(tmp_path / "bad.py"),
            "--no-baseline",
            "--format",
            "sarif",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        first = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert first.returncode == second.returncode == 1
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["version"] == "2.1.0"
