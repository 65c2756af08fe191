"""Tests for the per-file rules of the static checker (DBP001–DBP010, DBP016).

Each rule is exercised against a fixture under ``tests/lint_fixtures/``;
lines that must fire carry a ``# DBPnnn`` marker comment, and the test
asserts the rule fires on exactly the marked lines — no misses, no false
positives of the same rule family elsewhere in the fixture.  Fixtures are
analyzed via :func:`analyze_sources` under a fake engine module name (the
directory itself is excluded from tree runs so the deliberate violations
never pollute the repo-wide run).  The whole-program rules DBP011–DBP015
are ``tests/test_analysis.py``'s subject; a lint fixture may trip them
(``dbp005_observer.py``'s hooks are impure for DBP013 too), which is why
the family split below exists.
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
    AnalysisConfig,
    all_codes,
    analyze_paths,
    analyze_sources,
    iter_rules,
    load_baseline,
    module_name_for,
    scan_suppressions,
    scope_applies,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: Marker comments on lines where the fixture's rule must fire.
_MARKER = re.compile(r"#\s*(DBP\d{3})\b")

ENGINE_MODULE = "repro.core.fixture"

#: The rule family the lint fixtures are checked against.
LINT_CODES = frozenset(f"DBP{i:03d}" for i in [*range(1, 11), 16])


def fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def marked_lines(source: str, code: str) -> set[int]:
    """1-based lines carrying a ``# <code>`` marker comment."""
    lines = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _MARKER.search(text)
        if match is not None and match.group(1) == code:
            lines.add(lineno)
    return lines


def analyze(source: str, module: str = ENGINE_MODULE, config: AnalysisConfig | None = None):
    report = analyze_sources({module: source}, config)
    assert not report.errors, report.errors
    return report


def lines_fired(source: str, code: str, module: str = ENGINE_MODULE) -> set[int]:
    return {v.line for v in analyze(source, module).violations if v.code == code}


# ---------------------------------------------------------------------------
# Rule catalogue


class TestRegistry:
    def test_rules_have_stable_codes(self):
        assert all_codes() == [f"DBP{i:03d}" for i in range(1, 17)]

    def test_rules_carry_scope_name_summary_and_doc(self):
        for rule in iter_rules():
            assert rule.scope in SCOPES
            assert re.fullmatch(r"[a-z][a-z0-9-]*", rule.name)
            assert rule.summary
            assert rule.help, f"{rule.code} has no rationale"

    def test_registry_is_keyed_by_code(self):
        for code, rule in ANALYSIS_RULES.items():
            assert rule.code == code


# ---------------------------------------------------------------------------
# Each rule fires exactly on its fixture's marked lines


FIXTURE_CASES = [
    ("dbp001_randomness.py", "DBP001"),
    ("dbp002_wallclock.py", "DBP002"),
    ("dbp003_float_eq.py", "DBP003"),
    ("dbp004_frozen_mutation.py", "DBP004"),
    ("dbp005_observer.py", "DBP005"),
    ("dbp006_mutable_default.py", "DBP006"),
    ("dbp007_slots.py", "DBP007"),
    ("dbp009_engine_io.py", "DBP009"),
    ("dbp010_size_compare.py", "DBP010"),
    ("dbp016_engine_concurrency.py", "DBP016"),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("fixture,code", FIXTURE_CASES)
    def test_rule_fires_exactly_on_marked_lines(self, fixture, code):
        source = fixture_source(fixture)
        expected = marked_lines(source, code)
        assert expected, f"fixture {fixture} has no {code} markers"
        assert lines_fired(source, code) == expected

    @pytest.mark.parametrize("fixture,code", FIXTURE_CASES)
    def test_no_stray_violations_of_other_engine_rules(self, fixture, code):
        # A fixture may only trip its own rule plus explicitly marked or
        # suppressed others of its family; anything else is a false positive.
        source = fixture_source(fixture)
        for violation in analyze(source).violations:
            if violation.code not in LINT_CODES:
                continue
            assert violation.line in marked_lines(source, violation.code), (
                f"unexpected {violation.code} at line {violation.line} "
                f"in {fixture}: {violation.message}"
            )

    def test_clean_engine_fixture_is_clean(self):
        report = analyze(fixture_source("clean_engine.py"))
        assert report.ok
        assert report.suppressed == 0


class TestSuppressionHygiene:
    def test_dbp008_fires_on_malformed_noqa(self):
        source = fixture_source("dbp008_noqa.py")
        report = analyze(source)
        by_code = {}
        for v in report.violations:
            by_code.setdefault(v.code, set()).add(v.line)
        bare = source.splitlines().index("    return total_cost == expected  # dbp: noqa") + 1
        # Three malformed suppressions: bare, unjustified, bad code token.
        assert len(by_code["DBP008"]) == 3
        assert bare in by_code["DBP008"]
        # Malformed suppressions do NOT silence the underlying violation...
        assert by_code["DBP003"] == by_code["DBP008"]
        # ...while the well-formed one does.
        assert report.suppressed == 1

    def test_scan_suppressions_parses_codes_and_justification(self):
        sup = scan_suppressions(
            ["x = 1  # dbp: noqa[DBP003, DBP004] -- replay oracle"]
        )[1]
        assert sup.codes == {"DBP003", "DBP004"}
        assert sup.justification == "replay oracle"
        assert sup.well_formed
        assert sup.suppresses("DBP003") and sup.suppresses("DBP004")
        assert not sup.suppresses("DBP001")

    def test_docstring_prose_is_not_a_suppression(self):
        sup = scan_suppressions(['"""Use # dbp: noqa[DBP003] -- why to suppress."""'])
        assert sup == {}

    def test_suppression_applies_across_multiline_statement(self):
        source = (
            "total_cost = 1.0\n"
            "ok = (\n"
            "    total_cost\n"
            "    == 1.0  # dbp: noqa[DBP003] -- exact by construction\n"
            ")\n"
        )
        report = analyze(source)
        assert not [v for v in report.violations if v.code == "DBP003"]
        assert report.suppressed == 1

    def test_suppression_for_wrong_code_does_not_apply(self):
        source = "total_cost = 1.0\nok = total_cost == 1.0  # dbp: noqa[DBP001] -- wrong code\n"
        report = analyze(source)
        assert [v for v in report.violations if v.code == "DBP003"]


# ---------------------------------------------------------------------------
# Rules that need more than one file, and what the one effect extractor adds


OBSERVER_BASE = "class SimulationObserver:\n    pass\n"


def codes_at(report, code: str) -> list[tuple[str, int]]:
    return [(v.path, v.line) for v in report.violations if v.code == code]


class TestWholeProgram:
    def test_dbp004_resolves_frozen_classes_across_modules(self):
        records = (
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Snapshot:\n"
            "    value: int\n"
        )
        touch = (
            "from repro.core.fx_records import Snapshot\n"
            "\n"
            "\n"
            "def touch(record: Snapshot) -> None:\n"
            "    record.value = 1\n"
        )
        alone = analyze_sources({"repro.core.fx_touch": touch})
        assert codes_at(alone, "DBP004") == []
        both = analyze_sources({"repro.core.fx_records": records, "repro.core.fx_touch": touch})
        assert codes_at(both, "DBP004") == [("repro/core/fx_touch.py", 5)]
        assert "'record'" in both.violations[0].message

    @pytest.mark.parametrize(
        "block, trailer",
        [
            ("if opened:", ""),
            ("for _ in range(1):", ""),
            ("while opened:", ""),
            ("with self.lock:", ""),
            ("try:", "        except KeyError:\n            pass\n"),
        ],
    )
    def test_def_inside_a_block_is_a_call_graph_node(self, block, trailer):
        # A def nested in a compound statement had no facts of its own, so
        # a hook's call into it reached nothing and DBP013 stayed silent.
        source = (
            "import time\n"
            "\n"
            + OBSERVER_BASE
            + "\n"
            "class Stamper(SimulationObserver):\n"
            "    def on_arrival(self, now, item, bin, opened):\n"
            f"        {block}\n"
            "            def stamp():\n"
            "                return time.time()  # DBP002\n"
            "            self.at = stamp()\n"
            + trailer
        )
        report = analyze(source)
        assert lines_fired(source, "DBP002") == marked_lines(source, "DBP002")
        impure = [v for v in report.violations if v.code == "DBP013"]
        assert [v.line for v in impure] == [11]
        assert "reads-clock" in impure[0].message

    @pytest.mark.parametrize(
        "header, trailer",
        [
            ("def make():", "    return Stamper\n"),
            ("if True:", ""),
            ("try:", "except KeyError:\n    pass\n"),
            ("class Outer:", ""),
        ],
    )
    def test_class_inside_a_body_is_a_call_graph_node(self, header, trailer):
        # Only classes that were direct statements of the module had method
        # facts, so a hook of a class nested in a function, a block or
        # another class was no purity root and DBP013 stayed silent.
        source = (
            "import time\n"
            "\n"
            + OBSERVER_BASE
            + "\n"
            f"{header}\n"
            "    class Stamper(SimulationObserver):\n"
            "        def on_arrival(self, now, item, bin, opened):\n"
            "            self.at = time.time()  # DBP002\n"
            + trailer
        )
        report = analyze(source)
        assert lines_fired(source, "DBP002") == marked_lines(source, "DBP002")
        impure = [v for v in report.violations if v.code == "DBP013"]
        assert [v.line for v in impure] == sorted(marked_lines(source, "DBP002"))
        assert "Stamper.on_arrival() is not transitively pure: reads-clock" in impure[0].message

    def test_random_seed_is_a_global_rng_seed(self):
        # The linter flagged random.seed; the effect seeds did not.
        source = (
            "import random\n"
            "\n"
            + OBSERVER_BASE
            + "\n"
            "class Reseeding(SimulationObserver):\n"
            "    def on_arrival(self, time, item, bin, opened):\n"
            "        random.seed(7)  # DBP001\n"
        )
        report = analyze(source)
        assert lines_fired(source, "DBP001") == marked_lines(source, "DBP001")
        impure = [v for v in report.violations if v.code == "DBP013"]
        assert [v.line for v in impure] == sorted(marked_lines(source, "DBP001"))
        assert "global-rng" in impure[0].message

    def test_system_random_is_never_seeded(self):
        # SystemRandom ignores its seed argument and reads os.urandom.
        source = (
            "import random\n"
            "from random import SystemRandom  # DBP001\n"
            "\n"
            + OBSERVER_BASE
            + "\n"
            "class Jitter(SimulationObserver):\n"
            "    def on_arrival(self, time, item, bin, opened):\n"
            "        self.x = random.SystemRandom(7).random()  # DBP001\n"
            "        self.y = SystemRandom(7).random()  # DBP001\n"
        )
        report = analyze(source)
        assert lines_fired(source, "DBP001") == marked_lines(source, "DBP001")
        # DBP013 reports a hook once, at its first impure line.
        impure = [v for v in report.violations if v.code == "DBP013"]
        assert [v.line for v in impure] == [sorted(marked_lines(source, "DBP001"))[1]]
        assert "global-rng via random.SystemRandom()" in impure[0].message

    def test_seedless_construction_reaches_dbp013(self):
        source = (
            "import numpy as np\n"
            "\n"
            + OBSERVER_BASE
            + "\n"
            "class Jitter(SimulationObserver):\n"
            "    def on_arrival(self, time, item, bin, opened):\n"
            "        self.rng = np.random.default_rng()  # DBP001\n"
        )
        report = analyze(source)
        assert lines_fired(source, "DBP001") == marked_lines(source, "DBP001")
        impure = [v.line for v in report.violations if v.code == "DBP013"]
        assert impure == sorted(marked_lines(source, "DBP001"))

    def test_ambient_io_seeds_are_engine_side_channels(self):
        # open(), input(), os.system and subprocess were performs-io seeds
        # for DBP013 only; DBP009 now reports them too.
        source = (
            "import os\n"
            "import subprocess\n"
            "\n"
            "\n"
            "def dump(path, text):\n"
            "    with open(path, 'w') as handle:  # DBP009\n"
            "        handle.write(text)\n"
            "    os.system('sync')  # DBP009\n"
            "    subprocess.run(['true'])  # DBP009\n"
            "    return input()  # DBP009\n"
        )
        found = [v.line for v in analyze(source).violations if v.code == "DBP009"]
        # Every call is classified once: a seed is never reported twice.
        assert sorted(found) == sorted(marked_lines(source, "DBP009"))

    def test_logging_submodule_names_are_side_channels_for_dbp013(self):
        # ``from logging.handlers import …`` was a DBP009 import for the
        # linter only; its names are now performs-io seeds DBP013 follows.
        source = (
            "from logging.handlers import MemoryHandler  # DBP009\n"
            "\n"
            + OBSERVER_BASE
            + "\n"
            "class Buffering(SimulationObserver):\n"
            "    def on_arrival(self, time, item, bin, opened):\n"
            "        self.handler = MemoryHandler(16)  # DBP009\n"
        )
        report = analyze(source)
        assert lines_fired(source, "DBP009") == marked_lines(source, "DBP009")
        impure = [v for v in report.violations if v.code == "DBP013"]
        assert [v.line for v in impure] == [max(marked_lines(source, "DBP009"))]
        assert "performs-io" in impure[0].message

    def test_calls_of_imported_clock_and_rng_names_fire(self):
        # The linter flagged only the import line of a from-imported name.
        source = (
            "from random import shuffle  # DBP001\n"
            "from time import perf_counter  # DBP002\n"
            "\n"
            "\n"
            "def stamp(items):\n"
            "    shuffle(items)  # DBP001\n"
            "    return perf_counter()  # DBP002\n"
        )
        assert lines_fired(source, "DBP001") == marked_lines(source, "DBP001")
        assert lines_fired(source, "DBP002") == marked_lines(source, "DBP002")

    def test_class_body_and_default_seeds_fire(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "class Clocked:\n"
            "    started = time.time()  # DBP002\n"
            "\n"
            "    def at(self, now=time.monotonic()):  # DBP002\n"
            "        return now\n"
        )
        assert lines_fired(source, "DBP002") == marked_lines(source, "DBP002")

    def test_popitem_is_a_mutator(self):
        source = (
            OBSERVER_BASE
            + "\n"
            "class Draining(SimulationObserver):\n"
            "    def on_departure(self, time, item, bin, closed):\n"
            "        bin.labels.popitem()  # DBP005\n"
        )
        assert lines_fired(source, "DBP005") == marked_lines(source, "DBP005")

    def test_observer_through_a_project_base_is_checked(self):
        # The linter matched only direct ``*Observer`` bases.
        source = (
            OBSERVER_BASE
            + "\n"
            "class Tracer(SimulationObserver):\n"
            "    pass\n"
            "\n"
            "class RingTracer(Tracer):\n"
            "    def on_arrival(self, time, item, bin, opened):\n"
            "        bin.label = 'ring'  # DBP005\n"
            "\n"
            "class AuditObserver(Tracer):\n"
            "    def on_departure(self, time, item, bin, closed):\n"
            "        item.tag = None  # DBP005\n"
        )
        assert lines_fired(source, "DBP005") == marked_lines(source, "DBP005")

    def test_hook_variadic_parameters_are_arguments(self):
        source = (
            OBSERVER_BASE
            + "\n"
            "class Forwarding(SimulationObserver):\n"
            "    def on_arrival(self, *args, **details):\n"
            "        details.clear()  # DBP005\n"
        )
        assert lines_fired(source, "DBP005") == marked_lines(source, "DBP005")

    def test_nested_functions_and_lambdas_of_a_hook_are_its_body(self):
        source = (
            OBSERVER_BASE
            + "\n"
            "class Deferred(SimulationObserver):\n"
            "    def on_arrival(self, time, item, bin, opened):\n"
            "        def relabel():\n"
            "            bin.label = 'seen'  # DBP005\n"
            "        def own(bin):\n"
            "            bin.label = 'fine: its own parameter'\n"
            "        self.later = lambda: bin.items.clear()  # DBP005\n"
            "        relabel()\n"
        )
        assert lines_fired(source, "DBP005") == marked_lines(source, "DBP005")
        # A closure write reaches DBP013 through the call of the nested function.
        called = source.replace("        self.later = lambda: bin.items.clear()  # DBP005\n", "")
        impure = [v.message for v in analyze(called).violations if v.code == "DBP013"]
        assert len(impure) == 1
        assert "mutates-param:bin via calls Deferred.on_arrival.relabel()" in impure[0]


# ---------------------------------------------------------------------------
# Path scoping


class TestScoping:
    def test_engine_rules_skip_test_modules(self):
        source = fixture_source("dbp001_randomness.py")
        assert lines_fired(source, "DBP001", module="tests.test_workloads") == set()

    def test_engine_rules_skip_non_engine_src(self):
        source = fixture_source("dbp002_wallclock.py")
        assert lines_fired(source, "DBP002", module="repro.experiments.timing") == set()

    def test_engine_io_rule_skips_cli_and_tools(self):
        source = fixture_source("dbp009_engine_io.py")
        assert lines_fired(source, "DBP009", module="repro.cli") == set()
        assert lines_fired(source, "DBP009", module="repro.tools.analysis.cli") == set()

    def test_size_compare_rule_allowlists_dominance_algebra(self):
        source = fixture_source("dbp010_size_compare.py")
        assert lines_fired(source, "DBP010", module="repro.core.resources") == set()
        assert lines_fired(source, "DBP010", module="repro.core.bin") == set()
        assert lines_fired(source, "DBP010", module="repro.opt.offline") == set()

    def test_concurrency_rule_skips_observer_and_parallel_side(self):
        source = fixture_source("dbp016_engine_concurrency.py")
        assert lines_fired(source, "DBP016", module="repro.obs.live") == set()
        assert lines_fired(source, "DBP016", module="repro.parallel.pool") == set()
        assert lines_fired(source, "DBP016", module="repro.cloud.fleet") != set()

    def test_src_rules_cover_experiments_but_not_tests(self):
        source = fixture_source("dbp003_float_eq.py")
        assert lines_fired(source, "DBP003", module="repro.experiments.ratios") != set()
        assert lines_fired(source, "DBP003", module="tests.test_costs") == set()

    def test_all_rules_cover_tests(self):
        source = fixture_source("dbp006_mutable_default.py")
        assert lines_fired(source, "DBP006", module="tests.test_helpers") != set()

    def test_module_name_for_anchors_on_package_roots(self):
        assert module_name_for(Path("src/repro/core/bin.py")) == "repro.core.bin"
        assert module_name_for(Path("src/repro/core/__init__.py")) == "repro.core"
        assert module_name_for(Path("tests/test_simulator.py")) == "tests.test_simulator"
        assert module_name_for(Path("scratch.py")) == "scratch"

    def test_scope_applies_matrix(self):
        assert scope_applies("engine", "repro.core.bin")
        assert scope_applies("engine", "repro.cloud")
        assert not scope_applies("engine", "repro.corelib.x")
        assert not scope_applies("engine", "repro.opt.fluid")
        assert not scope_applies("engine", "repro.obs.metrics")
        assert scope_applies("exact", "repro.obs.metrics")
        assert scope_applies("exact", "repro.resilience.store")
        assert scope_applies("exact", "repro.core.bin")
        assert not scope_applies("exact", "repro.opt.fluid")
        assert scope_applies("src", "repro.opt.fluid")
        assert not scope_applies("src", "tests.test_opt")
        assert scope_applies("all", "tests.test_opt")
        with pytest.raises(ValueError):
            scope_applies("bogus", "repro.core.bin")

    def test_select_and_ignore_filter_rules(self):
        source = fixture_source("dbp006_mutable_default.py")
        only = analyze(source, config=AnalysisConfig(select=frozenset({"DBP001"})))
        assert only.ok
        ignored = analyze(source, config=AnalysisConfig(ignore=frozenset({"DBP006"})))
        assert not [v for v in ignored.violations if v.code == "DBP006"]


# ---------------------------------------------------------------------------
# The shipped tree is clean (the self-check CI runs)


class TestShippedTree:
    def test_src_and_tests_lint_clean(self):
        baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
        report = analyze_paths([REPO_ROOT / "src", REPO_ROOT / "tests"], baseline=baseline)
        assert report.files_checked > 100
        assert not report.errors, report.errors
        assert report.violations == [], "\n".join(v.render() for v in report.violations)
        # The sanctioned exact-replay/exact-resume suppressions, and
        # nothing more (3 replay oracles + 2 resilience resume oracles).
        assert report.suppressed == 5
        assert [v.code for v, _ in report.baselined] == ["DBP011", "DBP011"]
        assert report.stale_baseline == []

    def test_fixture_directory_is_excluded_from_tree_lint(self):
        report = analyze_paths([FIXTURES])
        assert report.files_checked == 0


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.tools.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


class TestCLI:
    def test_clean_tree_exits_zero(self):
        proc = run_cli("src", "tests", "--no-cache")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s), 2 baselined, 5 suppressed" in proc.stdout

    def test_violations_exit_one_with_locations(self, tmp_path):
        fixture = str(FIXTURES / "dbp006_mutable_default.py")
        proc = run_cli(fixture, "--select", "DBP006", "--no-cache")
        assert proc.returncode == 0  # fixtures are excluded from tree runs
        bad = tmp_path / "bad.py"
        bad.write_text("def f(history=[]):\n    return history\n", encoding="utf-8")
        proc = run_cli(str(bad), "--select", "DBP006", "--no-cache", "--no-baseline")
        assert proc.returncode == 1
        assert f"{bad}:1:15: DBP006" in proc.stdout

    def test_json_format_is_parseable(self):
        proc = run_cli("src/repro/tools/analysis", "--format", "json", "--no-cache")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["files_checked"] >= 6

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in all_codes():
            assert code in proc.stdout

    def test_unknown_code_is_usage_error(self):
        proc = run_cli("src", "--select", "DBP999")
        assert proc.returncode == 2

    def test_missing_path_is_usage_error(self):
        proc = run_cli("no/such/dir")
        assert proc.returncode == 2
