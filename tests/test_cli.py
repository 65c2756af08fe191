"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.obs import LiveMetricsServer, scrape


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "thm1-anyfit", "--precision", "6", "--strict"])
        assert args.experiment == "thm1-anyfit"
        assert args.precision == 6
        assert args.strict


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm1-anyfit" in out
        assert "cloud-gaming" in out

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "first-fit" in out and "modified-first-fit" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "bounds-sandwich"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "OPT_total" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "definitely-not-real"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "run: unknown experiment 'definitely-not-real'; known: "
        )
        assert "thm1-anyfit" in captured.err
        assert captured.err.count("\n") == 1


class TestInputErrors:
    """A bad name or path on the command line exits 2 with one stderr line
    and no traceback; exit 1 stays reserved for a failed claim or replay."""

    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "day.json"
        assert main(["generate", "--kind", "poisson", "--seed", "3",
                     "--horizon", "30", "--out", str(path)]) == 0
        return path

    @staticmethod
    def _rejected(capsys, argv, message):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{argv[0]}: {message}")
        return captured.err

    def test_run_with_serve_metrics_rejects_unknown_experiment(self, capsys):
        self._rejected(capsys, ["run", "nope", "--serve-metrics"],
                       "unknown experiment 'nope'")

    def test_report_rejects_unknown_experiment(self, capsys):
        self._rejected(capsys, ["report", "bounds-sandwich", "nope"],
                       "unknown experiment 'nope'")

    def test_dispatch_rejects_unknown_algorithm_in_a_list(self, trace, capsys):
        err = self._rejected(
            capsys, ["dispatch", str(trace), "--algorithm", "first-fit,nope"],
            "unknown algorithm 'nope'",
        )
        assert "best-fit" in err

    def test_viz_rejects_unknown_algorithm(self, trace, capsys):
        self._rejected(capsys, ["viz", str(trace), "--algorithm", "nope"],
                       "unknown algorithm 'nope'")

    @pytest.mark.parametrize("command", ["dispatch", "viz"])
    def test_missing_trace(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.json"
        self._rejected(capsys, [command, str(missing)],
                       f"cannot read trace {missing}: No such file or directory")

    @pytest.mark.parametrize("command", ["dispatch", "viz"])
    @pytest.mark.parametrize(
        "document, reason",
        [
            ("not json", "JSONDecodeError"),
            ('{"name": "t"}', "KeyError"),
            ('{"items": [{"id": 1, "arrival": 2, "departure": 1, "size": 0.5}]}',
             "InvalidIntervalError"),
        ],
        ids=["not-json", "no-items", "bad-interval"],
    )
    def test_invalid_trace(self, tmp_path, capsys, command, document, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        self._rejected(capsys, [command, str(bad)], f"invalid trace {bad}: {reason}")

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("dispatch", ["--capacity", "0"], "--capacity must be positive, got 0.0"),
            ("dispatch", ["--rate", "0"], "--rate must be positive, got 0.0"),
            ("dispatch", ["--quantum", "-5"], "--quantum must be positive, got -5.0"),
            ("dispatch", ["--capacity", "nan"], "--capacity must be positive, got nan"),
            ("viz", ["--capacity", "-1"], "--capacity must be positive, got -1.0"),
        ],
    )
    def test_non_positive_option(self, trace, capsys, command, options, message):
        self._rejected(capsys, [command, str(trace), *options], message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--rate", "0"], "--rate must be positive, got 0.0"),
            (["generate", "--kind", "poisson", "--rate", "-1"],
             "--rate must be positive, got -1.0"),
            (["generate", "--horizon", "-5"], "--horizon must be positive, got -5.0"),
            (["generate", "--kind", "bursts", "--horizon", "0"],
             "--horizon must be positive, got 0.0"),
            (["viz", "{trace}", "--width", "0"], "--width must be at least 4, got 0"),
            (["viz", "{trace}", "--max-bins", "-1"], "--max-bins must be at least 0, got -1"),
            (["run", "fleet-mix", "--precision", "-1"],
             "--precision must be at least 0, got -1"),
            (["report", "fleet-mix", "--precision", "-1"],
             "--precision must be at least 0, got -1"),
            (["chaos", "--items", "0"], "--items must be at least 1, got 0"),
        ],
        ids=["rate-0", "poisson-rate-negative", "horizon-negative", "bursts-horizon-0",
             "viz-width-0", "viz-max-bins-negative", "run-precision-negative",
             "report-precision-negative", "chaos-items-0"],
    )
    def test_out_of_range_number(self, trace, tmp_path, capsys, argv, message):
        out = tmp_path / "out.json"
        argv = [arg.format(trace=trace) for arg in argv]
        if argv[0] == "generate":
            argv += ["--out", str(out)]
        self._rejected(capsys, argv, message)
        assert not out.exists()

    def test_zero_precision_is_accepted(self, capsys):
        assert main(["run", "fleet-mix", "--precision", "0"]) == 0

    @pytest.mark.parametrize(
        "command, options",
        [
            ("dispatch", []),
            ("dispatch", ["--algorithm", "first-fit,best-fit", "--workers", "2"]),
            ("dispatch", ["--migration-factor", "1"]),
            ("viz", []),
        ],
        ids=["dispatch", "dispatch-sharded", "dispatch-migrating", "viz"],
    )
    def test_oversize_item(self, trace, capsys, command, options):
        err = self._rejected(
            capsys, [command, str(trace), "--capacity", "0.3", *options], "item '"
        )
        assert "exceeding bin capacity 0.3" in err


class TestServeMetrics:
    def test_parser_port_forms(self):
        parser = build_parser()
        assert parser.parse_args(["dispatch", "t.json"]).serve_metrics is None
        assert (
            parser.parse_args(["dispatch", "t.json", "--serve-metrics"]).serve_metrics
            == 0
        )
        assert (
            parser.parse_args(
                ["dispatch", "t.json", "--serve-metrics", "9100"]
            ).serve_metrics
            == 9100
        )
        assert parser.parse_args(["run", "all", "--serve-metrics"]).serve_metrics == 0
        assert parser.parse_args(["chaos", "--serve-metrics"]).serve_metrics == 0

    def test_dispatch_live_scrape_byte_equals_artifact(self, tmp_path, capsys):
        trace = tmp_path / "day.json"
        obs = tmp_path / "obs"
        assert main(["generate", "--kind", "poisson", "--seed", "3",
                     "--horizon", "120", "--out", str(trace)]) == 0
        assert main(["dispatch", str(trace), "--algorithm", "best-fit",
                     "--serve-metrics", "--metrics", str(obs)]) == 0
        live = (obs / "metrics.live.prom").read_bytes()
        assert live == (obs / "metrics.prom").read_bytes()
        assert b"dbp_events_processed_total" in live
        assert "metrics_live_prom written to" in capsys.readouterr().out

    def test_dispatch_serve_metrics_rejects_algorithm_lists(self, tmp_path, capsys):
        trace = tmp_path / "day.json"
        assert main(["generate", "--kind", "poisson", "--seed", "3",
                     "--horizon", "60", "--out", str(trace)]) == 0
        code = main(["dispatch", str(trace), "--algorithm", "first-fit,best-fit",
                     "--serve-metrics"])
        assert code == 2

    def test_run_serves_fleet_aggregate(self, capsys, monkeypatch):
        # Scrape the endpoint each time the run publishes, so the test sees
        # what a client is served, not just the exit code.
        served: list[str] = []
        publish = LiveMetricsServer.publish

        def publish_and_scrape(self, prom, json_body):
            publish(self, prom, json_body)
            served.append(scrape(self.port).decode())

        monkeypatch.setattr(LiveMetricsServer, "publish", publish_and_scrape)
        assert main(["run", "bounds-sandwich", "--serve-metrics"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert served == [
            "# HELP dbp_claims_checked_total Paper claims evaluated\n"
            "# TYPE dbp_claims_checked_total counter\n"
            "dbp_claims_checked_total 2\n"
            "# HELP dbp_claims_failed_total Paper claims that FAILED\n"
            "# TYPE dbp_claims_failed_total counter\n"
            "dbp_claims_failed_total 0\n"
            "# HELP dbp_experiment_rows_total Table rows produced by experiments\n"
            "# TYPE dbp_experiment_rows_total counter\n"
            "dbp_experiment_rows_total 4\n"
            "# HELP dbp_experiments_completed_total Experiments completed\n"
            "# TYPE dbp_experiments_completed_total counter\n"
            "dbp_experiments_completed_total 1\n"
        ]


class TestMigratingDispatch:
    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "day.json"
        assert main(["generate", "--kind", "poisson", "--seed", "3",
                     "--horizon", "50", "--rate", "2", "--out", str(path)]) == 0
        return path

    def test_dispatch_migrates(self, trace, capsys):
        capsys.readouterr()
        assert main(["dispatch", str(trace), "--migration-factor", "1"]) == 0
        out = capsys.readouterr().out
        assert "migrations" in out and "beta           1.0" in out

    @pytest.mark.parametrize("beta", ["-1", "nan"])
    def test_dispatch_rejects_invalid_migration_factor(self, trace, capsys, beta):
        capsys.readouterr()
        assert main(["dispatch", str(trace), "--migration-factor", beta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--migration-factor must be >= 0" in captured.err


class TestObservedMigratingDispatch:
    """``--migration-factor`` keeps its repacker when observers are attached,
    and the trace the observed run writes replays its moves exactly."""

    def test_traced_run_migrates_and_verifies(self, tmp_path, capsys):
        trace = tmp_path / "day.json"
        assert main(["generate", "--kind", "poisson", "--seed", "3",
                     "--horizon", "50", "--rate", "2", "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["dispatch", str(trace), "--migration-factor", "1"]) == 0
        plain = capsys.readouterr().out.splitlines()
        out_trace = tmp_path / "t.jsonl"
        assert main(["dispatch", str(trace), "--migration-factor", "1",
                     "--trace-out", str(out_trace), "--metrics", str(tmp_path / "d")]) == 0
        observed = capsys.readouterr().out.splitlines()
        (migrations,) = [line for line in observed if line.startswith("migrations ")]
        assert int(migrations.split()[1]) > 0
        # The report matches the unobserved run's, then names the artifacts.
        assert observed[: len(plain)] == plain
        assert main(["verify-trace", str(out_trace)]) == 0
