"""Chaos campaign harness: deterministic scenario grids, byte-stable
reports at any worker count, total corruption detection, and the CLI
entry point's exit-code contract.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import experiment_info, get_experiment
from repro.resilience import ChaosCampaignConfig, build_scenarios, run_campaign


def _small_config(**overrides):
    params = dict(
        seed=5,
        n_items=80,
        checkpoint_every=16,
        crash_points=(2,),
        corruption_modes=("bitflip", "truncate", "empty"),
        traces=("scalar",),
        include_worker_kill=False,
    )
    params.update(overrides)
    return ChaosCampaignConfig(**params)


class TestScenarioGrid:
    def test_specs_are_ordered_and_labelled(self):
        specs = build_scenarios(_small_config())
        assert [s["scenario"] for s in specs] == [f"s{i:03d}" for i in range(len(specs))]
        assert [s["kind"] for s in specs] == ["crash", "corrupt", "corrupt", "corrupt"]

    def test_worker_kill_scenario_is_last(self):
        specs = build_scenarios(_small_config(include_worker_kill=True))
        assert specs[-1]["kind"] == "worker-kill"

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_items=0),
            dict(crash_points=(0,)),
            dict(corruption_modes=("gamma-ray",)),
            dict(traces=("tensor",)),
        ],
    )
    def test_config_validation(self, overrides):
        with pytest.raises(ValueError):
            _small_config(**overrides)


class TestCampaignInvariants:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(_small_config())

    def test_all_scenarios_pass(self, report):
        assert report.all_pass
        assert report.totals["failed"] == 0

    def test_every_corruption_detected(self, report):
        assert report.totals["corruptions_injected"] == 3
        assert report.totals["corruptions_detected"] == 3

    def test_every_resume_exact(self, report):
        assert report.totals["exact_resumes"] == report.totals["scenarios"]

    def test_crashes_were_actually_injected(self, report):
        assert report.totals["crashes_injected"] > 0

    def test_report_is_byte_stable_across_runs(self, report):
        assert run_campaign(_small_config()).to_json() == report.to_json()

    def test_report_is_byte_stable_across_worker_counts(self, report):
        assert run_campaign(_small_config(), workers=2).to_json() == report.to_json()

    def test_report_json_is_canonical(self, report):
        payload = json.loads(report.to_json())
        assert payload["manifest"]["kind"] == "chaos-campaign"
        assert payload["config"]["seed"] == 5
        assert len(payload["rows"]) == payload["totals"]["scenarios"]


class TestChaosExperiment:
    def test_registered_and_deterministic(self):
        # Determinism is catalogue-wide: tests/test_parallel_differential.py
        # byte-compares every experiment's serial and sharded results.
        assert experiment_info("chaos")["name"] == "chaos"

    def test_experiment_claims_hold(self):
        result = get_experiment("chaos")(n_items=80)
        assert result.all_claims_hold
        assert result.table.rows


class TestChaosCli:
    def test_cli_reports_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--seed",
                "5",
                "--items",
                "80",
                "--no-worker-kill",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "0 failed" in captured
        payload = json.loads(out.read_text())
        assert payload["totals"]["failed"] == 0
