"""The coverage ratchet: package grouping of pytest-cov reports and the gate."""

from __future__ import annotations

import json
from pathlib import Path

from repro.tools.coverage_gate import (
    GATED_PACKAGES,
    check_report,
    main,
    package_percents,
)


def _report(algorithms_pct, core_pct):
    def entry(covered, statements):
        return {"summary": {"covered_lines": covered, "num_statements": statements}}

    return {
        "files": {
            "src/repro/algorithms/a.py": entry(algorithms_pct, 100),
            "src/repro/core/b.py": entry(core_pct, 100),
            "src/repro/renting/ignored.py": entry(0, 100),
        }
    }


def test_package_percents_groups_by_gated_package():
    percents = package_percents(_report(80, 90))
    assert percents == {"repro.algorithms": 80.0, "repro.core": 90.0}
    assert set(percents) == set(GATED_PACKAGES)


def test_package_percents_accepts_pytest_cov_style_keys():
    report = {
        "files": {
            "/ci/work/src/repro/core/bin.py": {
                "summary": {"covered_lines": 50, "num_statements": 100}
            }
        }
    }
    assert package_percents(report)["repro.core"] == 50.0


def test_check_report_fails_only_on_a_drop():
    baseline = {"packages": {"repro.algorithms": 75.0, "repro.core": 85.0}}
    assert check_report(_report(80, 90), baseline) == []
    failures = check_report(_report(70, 90), baseline)
    assert len(failures) == 1 and "repro.algorithms" in failures[0]
    failures = check_report(_report(70, 80), baseline)
    assert len(failures) == 2


def test_update_then_check_round_trip(tmp_path, capsys):
    report_path = tmp_path / "coverage.json"
    report_path.write_text(json.dumps(_report(80, 90)))
    baseline_path = tmp_path / "baseline.json"
    assert (
        main(
            [
                "update",
                str(report_path),
                "--baseline",
                str(baseline_path),
                "--margin",
                "2",
            ]
        )
        == 0
    )
    floors = json.loads(baseline_path.read_text())["packages"]
    assert floors == {"repro.algorithms": 78.0, "repro.core": 88.0}
    assert main(["check", str(report_path), "--baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    # Dropped coverage fails the gate with a diagnostic.
    report_path.write_text(json.dumps(_report(60, 90)))
    assert main(["check", str(report_path), "--baseline", str(baseline_path)]) == 1
    assert "dropped below" in capsys.readouterr().err


def test_committed_baseline_gates_both_engine_packages():
    baseline = json.loads(
        (Path(__file__).parent.parent / "coverage-baseline.json").read_text()
    )
    assert set(baseline["packages"]) == set(GATED_PACKAGES)
    for package, floor in baseline["packages"].items():
        assert 0 < floor < 100, (package, floor)
