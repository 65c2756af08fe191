"""Tests for the whole-program rules of the static checker (DBP011–DBP015).

Same fixture convention as ``tests/test_lint.py``: deliberate-violation
fixtures live under ``tests/analysis_fixtures/`` (excluded from tree runs),
lines that must fire carry ``# DBPnnn`` markers, and each pass is asserted
to fire on exactly the marked lines — plus a true-negative fixture per pass
that must stay silent.  The fixtures are checked against DBP011–DBP015
only: a per-file rule may fire on them without being their subject
(``effects_tp.py``'s ``time.time()`` helper is a true DBP002 finding).  The
shipped tree itself must analyze clean modulo the committed, justified
baseline.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.analysis import (
    ANALYSIS_RULES,
    SCOPES,
    BaselineEntry,
    BaselineError,
    FactsCache,
    PASSES,
    all_codes,
    analyze_paths,
    analyze_sources,
    iter_rules,
    load_baseline,
    render_baseline,
)
from repro.tools.analysis.catalog import codes_for_passes

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

_MARKER = re.compile(r"#\s*(DBP\d{3})\b")

ENGINE_MODULE = "repro.core.fx_mod"

#: The rule family the analysis fixtures are checked against.
ANALYSIS_CODES = frozenset(f"DBP{i:03d}" for i in range(11, 16))


def fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def marked_lines(source: str, code: str) -> set[int]:
    lines = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _MARKER.search(text)
        if match is not None and match.group(1) == code:
            lines.add(lineno)
    return lines


def analyze_fixture(name: str, module: str = ENGINE_MODULE):
    report = analyze_sources({module: fixture_source(name)})
    assert not report.errors, report.errors
    return report


# ---------------------------------------------------------------------------
# Catalogue


class TestCatalog:
    def test_codes_continue_the_lint_range(self):
        assert all_codes() == [f"DBP{i:03d}" for i in range(1, 17)]
        assert codes_for_passes(("exactness", "effects", "determinism")) >= ANALYSIS_CODES

    def test_rules_carry_pass_scope_and_prose(self):
        for rule in iter_rules():
            assert rule.pass_name in PASSES
            assert rule.scope in SCOPES
            assert re.fullmatch(r"[a-z][a-z0-9-]*", rule.name)
            assert rule.summary
            assert rule.help

    def test_every_pass_owns_at_least_one_code(self):
        for pass_name in PASSES:
            assert codes_for_passes((pass_name,))

    def test_registry_keyed_by_code(self):
        for code, rule in ANALYSIS_RULES.items():
            assert rule.code == code


# ---------------------------------------------------------------------------
# Fixtures: true positives fire exactly on marked lines, true negatives stay silent


TP_CASES = [
    ("exactness_tp.py", ["DBP011", "DBP012"]),
    ("effects_tp.py", ["DBP013"]),
    ("determinism_tp.py", ["DBP014", "DBP015"]),
]

TN_CASES = ["exactness_tn.py", "effects_tn.py", "determinism_tn.py"]


class TestFixtures:
    @pytest.mark.parametrize(
        "fixture,code",
        [(f, c) for f, codes in TP_CASES for c in codes],
    )
    def test_rule_fires_exactly_on_marked_lines(self, fixture, code):
        source = fixture_source(fixture)
        expected = marked_lines(source, code)
        assert expected, f"fixture {fixture} has no {code} markers"
        report = analyze_fixture(fixture)
        fired = {v.line for v in report.violations if v.code == code}
        assert fired == expected

    @pytest.mark.parametrize("fixture", [f for f, _ in TP_CASES])
    def test_no_stray_findings(self, fixture):
        source = fixture_source(fixture)
        report = analyze_fixture(fixture)
        for violation in report.violations:
            if violation.code not in ANALYSIS_CODES:
                continue
            assert violation.line in marked_lines(source, violation.code), (
                f"unexpected {violation.code} at line {violation.line} "
                f"in {fixture}: {violation.message}"
            )

    @pytest.mark.parametrize("fixture", TN_CASES)
    def test_true_negatives_stay_silent(self, fixture):
        report = analyze_fixture(fixture)
        found = [v for v in report.violations if v.code in ANALYSIS_CODES]
        assert found == [], [(v.code, v.line, v.message) for v in found]


# ---------------------------------------------------------------------------
# Interprocedural behaviour across modules


class TestInterprocedural:
    def test_float_return_tracked_across_modules(self):
        report = analyze_sources(
            {
                "repro.core.fx_caller": (
                    "from repro.core.fx_rates import rate\n"
                    "\n"
                    "\n"
                    "def compute(n: int):\n"
                    "    cost = rate() * n\n"
                    "    return cost\n"
                ),
                "repro.core.fx_rates": "def rate():\n    return 0.5\n",
            }
        )
        assert [(v.code, v.path, v.line) for v in report.violations] == [
            ("DBP011", "repro/core/fx_caller.py", 5)
        ]
        assert "rate()" in report.violations[0].message

    def test_effect_chain_crosses_modules_with_witness(self):
        report = analyze_sources(
            {
                "repro.core.fx_obs": (
                    "from repro.core.fx_util import stamp\n"
                    "\n"
                    "\n"
                    "class SimulationObserver:\n"
                    "    pass\n"
                    "\n"
                    "\n"
                    "class T(SimulationObserver):\n"
                    "    def on_arrival(self, t, item, bin):\n"
                    "        self.last = stamp()\n"
                    "\n"
                ),
                "repro.core.fx_util": (
                    "import time\n"
                    "\n"
                    "\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
            }
        )
        findings = [v for v in report.violations if v.code == "DBP013"]
        assert len(findings) == 1
        assert findings[0].path == "repro/core/fx_obs.py"
        assert findings[0].line == 10
        assert "reads-clock" in findings[0].message
        assert "stamp()" in findings[0].message
        assert "time.time()" in findings[0].message

    def test_annotated_receiver_fans_out_to_overrides(self):
        # ``algo: Base`` dispatches to the base AND every project subclass.
        report = analyze_sources(
            {
                "repro.core.fx_proto": (
                    "class Base:\n"
                    "    def rate(self):\n"
                    "        return 0\n"
                    "\n"
                    "\n"
                    "class Drifting(Base):\n"
                    "    def rate(self):\n"
                    "        return 0.5\n"
                    "\n"
                    "\n"
                    "def drive(algo: Base):\n"
                    "    cost = algo.rate()\n"
                    "    return cost\n"
                ),
            }
        )
        assert [(v.code, v.line) for v in report.violations] == [("DBP011", 12)]

    def test_scope_excludes_non_exact_packages(self):
        # The same exactness violation outside the exact packages is silent.
        source = "def lost_work_cost(n: int):\n    return n / 2\n"
        exact = analyze_sources({"repro.core.fx_s": source})
        outside = analyze_sources({"repro.experiments.fx_s": source})
        assert [v.code for v in exact.violations] == ["DBP011"]
        assert outside.violations == []

    def test_only_restricts_passes(self):
        sources = {
            ENGINE_MODULE: fixture_source("determinism_tp.py"),
            "repro.core.fx_exact": fixture_source("exactness_tp.py"),
        }
        exact_only = analyze_sources(sources, passes=("exactness",))
        assert exact_only.passes_run == ("exactness",)
        assert {v.code for v in exact_only.violations} <= {"DBP011", "DBP012"}
        det_only = analyze_sources(sources, passes=("determinism",))
        assert {v.code for v in det_only.violations} <= {"DBP014", "DBP015"}


# ---------------------------------------------------------------------------
# Suppressions and baseline


class TestSuppressions:
    def test_inline_noqa_applies_to_analysis_codes(self):
        source = (
            "def order_matters(tags: set):\n"
            "    return [t for t in tags]  "
            "# dbp: noqa[DBP014] -- order provably irrelevant here\n"
        )
        report = analyze_sources({ENGINE_MODULE: source})
        assert report.violations == []
        assert report.suppressed == 1

    def test_noqa_for_other_code_does_not_apply(self):
        source = (
            "def order_matters(tags: set):\n"
            "    return [t for t in tags]  # dbp: noqa[DBP011] -- wrong code\n"
        )
        report = analyze_sources({ENGINE_MODULE: source})
        assert [v.code for v in report.violations] == ["DBP014"]


class TestBaseline:
    SOURCE = "def lost_work_cost(n: int):\n    return n / 2\n"

    def test_matching_entry_silences_and_records(self):
        entry = BaselineEntry(
            code="DBP011",
            path="repro/core/fx_b.py",
            contains="lost_work_cost",
            justification="deliberate display ratio",
        )
        report = analyze_sources({"repro.core.fx_b": self.SOURCE}, baseline=[entry])
        assert report.ok
        assert report.violations == []
        assert [(v.code, e.justification) for v, e in report.baselined] == [
            ("DBP011", "deliberate display ratio")
        ]
        assert report.stale_baseline == []

    def test_stale_entries_are_reported_not_fatal(self):
        entry = BaselineEntry(
            code="DBP012",
            path="nowhere.py",
            contains="",
            justification="obsolete",
        )
        report = analyze_sources({"repro.core.fx_b": self.SOURCE}, baseline=[entry])
        assert [v.code for v in report.violations] == ["DBP011"]
        assert report.stale_baseline == [entry]

    def test_loader_rejects_todo_and_empty_justifications(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "code": "DBP011",
                            "path": "x.py",
                            "justification": "TODO: explain why",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(bad)
        bad.write_text(
            json.dumps({"entries": [{"code": "DBP011", "path": "x.py", "justification": "  "}]}),
            encoding="utf-8",
        )
        with pytest.raises(BaselineError):
            load_baseline(bad)

    def test_loader_rejects_malformed_documents(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(BaselineError, match="JSON"):
            load_baseline(path)
        path.write_text(json.dumps([1, 2]), encoding="utf-8")
        with pytest.raises(BaselineError, match="entries"):
            load_baseline(path)
        path.write_text(json.dumps({"entries": [{"code": "DBP011"}]}), encoding="utf-8")
        with pytest.raises(BaselineError, match="missing"):
            load_baseline(path)

    def test_render_baseline_skeleton_is_rejected_until_edited(self, tmp_path):
        report = analyze_sources({"repro.core.fx_b": self.SOURCE})
        skeleton = tmp_path / "baseline.json"
        skeleton.write_text(render_baseline(report.violations), encoding="utf-8")
        with pytest.raises(BaselineError):
            load_baseline(skeleton)


# ---------------------------------------------------------------------------
# The shipped tree is clean modulo the committed baseline


class TestShippedTree:
    def test_src_analyzes_clean_modulo_baseline(self):
        baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
        report = analyze_paths([REPO_ROOT / "src"], baseline=baseline)
        assert report.errors == []
        assert report.violations == [], [
            (v.code, v.location(), v.message) for v in report.violations
        ]
        # The baseline is exercised (no dead entries, no mute-everything).
        assert report.baselined, "committed baseline matched nothing"
        assert report.stale_baseline == []
        for _, entry in report.baselined:
            assert entry.justification
            assert not entry.justification.upper().startswith("TODO")


# ---------------------------------------------------------------------------
# Facts cache


CACHED_SOURCE = (
    "def order_matters(tags: set):\n"
    "    return [t for t in tags]\n"
)


class TestCache:
    def _tree(self, tmp_path: Path) -> Path:
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text(CACHED_SOURCE, encoding="utf-8")
        return tree

    def test_cold_then_warm_runs_are_identical(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([tree], cache=FactsCache(cache_dir))
        warm = analyze_paths([tree], cache=FactsCache(cache_dir))
        assert cold.cache_hits == 0 and cold.cache_misses == 1
        assert warm.cache_hits == 1 and warm.cache_misses == 0
        assert cold.as_json() == warm.as_json()
        assert [v.code for v in warm.violations] == ["DBP014"]
        # Cache telemetry must not leak into the JSON (byte-stability).
        assert "cache_hits" not in json.dumps(cold.as_json())

    def test_key_tracks_content_and_module(self):
        key = FactsCache.key("repro.core.mod", CACHED_SOURCE)
        assert key == FactsCache.key("repro.core.mod", CACHED_SOURCE)
        assert key != FactsCache.key("repro.core.other", CACHED_SOURCE)
        assert key != FactsCache.key("repro.core.mod", CACHED_SOURCE + "#\n")

    def test_corrupt_entries_degrade_to_cold(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        analyze_paths([tree], cache=FactsCache(cache_dir))
        for entry in cache_dir.iterdir():
            entry.write_bytes(b"garbage")
        report = analyze_paths([tree], cache=FactsCache(cache_dir))
        assert report.cache_hits == 0 and report.cache_misses == 1
        assert [v.code for v in report.violations] == ["DBP014"]

    def test_per_file_findings_survive_the_cache(self, tmp_path):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text(
            "def remember(seen={}):\n"
            "    return seen\n"
            "\n"
            "\n"
            "def same(total_cost, other):\n"
            "    return total_cost == other  # dbp: noqa\n",
            encoding="utf-8",
        )
        cache_dir = tmp_path / "cache"
        cold = analyze_paths([tree], cache=FactsCache(cache_dir))
        warm = analyze_paths([tree], cache=FactsCache(cache_dir))
        assert warm.cache_hits == 1 and warm.cache_misses == 0
        assert [(v.code, v.line) for v in cold.violations] == [
            ("DBP006", 1),
            ("DBP008", 6),
            ("DBP003", 6),
        ]
        assert warm.violations == cold.violations
        assert warm.as_json() == cold.as_json()

    def test_warm_run_reports_this_runs_paths(self, tmp_path, monkeypatch):
        # The cache key is path-free, so the same file reached through
        # another path must not report the path of the run that cached it.
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        analyze_paths([tree], cache=FactsCache(cache_dir))
        monkeypatch.chdir(tmp_path)
        warm = analyze_paths([Path("proj")], cache=FactsCache(cache_dir))
        assert warm.cache_hits == 1
        assert [v.path for v in warm.violations] == [str(Path("proj") / "mod.py")]

    def test_edited_file_misses_and_reanalyzes(self, tmp_path):
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        analyze_paths([tree], cache=FactsCache(cache_dir))
        (tree / "mod.py").write_text(
            CACHED_SOURCE.replace("in tags", "in sorted(tags)"), encoding="utf-8"
        )
        report = analyze_paths([tree], cache=FactsCache(cache_dir))
        assert report.cache_misses == 1
        assert report.violations == []


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
    )


class TestCLI:
    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in all_codes():
            assert code in proc.stdout

    def test_list_passes(self):
        proc = run_cli("--list-passes")
        assert proc.returncode == 0
        assert proc.stdout.split() == list(PASSES)

    def test_unknown_pass_is_usage_error(self):
        proc = run_cli("src", "--only", "nonsense")
        assert proc.returncode == 2

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        proc = run_cli(str(tmp_path), "--no-cache", "--no-baseline")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_findings_exit_one_with_json(self, tmp_path):
        (tmp_path / "bad.py").write_text(CACHED_SOURCE, encoding="utf-8")
        proc = run_cli(str(tmp_path), "--no-cache", "--no-baseline", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert payload["statistics"] == {"DBP014": 1}

    def test_bad_baseline_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{broken", encoding="utf-8")
        proc = run_cli(str(tmp_path), "--no-cache", "--baseline", str(baseline))
        assert proc.returncode == 2
        assert "baseline error" in proc.stderr

    def test_write_baseline_skeleton(self, tmp_path):
        (tmp_path / "bad.py").write_text(CACHED_SOURCE, encoding="utf-8")
        out = tmp_path / "skeleton.json"
        proc = run_cli(str(tmp_path), "--no-cache", "--write-baseline", str(out))
        assert proc.returncode == 0
        skeleton = json.loads(out.read_text(encoding="utf-8"))
        assert skeleton["entries"][0]["code"] == "DBP014"
        assert skeleton["entries"][0]["justification"].startswith("TODO")

    def test_cold_and_warm_json_runs_are_byte_identical(self, tmp_path):
        (tmp_path / "bad.py").write_text(CACHED_SOURCE, encoding="utf-8")
        cache_dir = tmp_path / "cache"
        common = (
            str(tmp_path / "bad.py"),
            "--no-baseline",
            "--format",
            "json",
            "--cache-dir",
            str(cache_dir),
        )
        cold = run_cli(*common)
        warm = run_cli(*common)
        assert cold.returncode == warm.returncode == 1
        assert cold.stdout == warm.stdout
