"""Tests for `repro.obs.session`, run manifests, and the CLI obs surface."""

import io
import json

import pytest

from repro import FirstFit
from repro.cli import main
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    ObservationSession,
    build_manifest,
    observe_stream,
    verify_trace,
)
from repro.workloads import Clipped, Exponential, Uniform
from repro.workloads.generators import stream_trace

WORKLOAD = dict(
    arrival_rate=5.0,
    duration=Clipped(Exponential(20.0), 3.0, 70.0),
    size=Uniform(0.2, 0.6),
    n_items=200,
    seed=13,
)


def fresh_stream():
    return stream_trace(**WORKLOAD)


class TestManifest:
    def test_byte_stable_by_default(self):
        kw = dict(algorithm="first-fit", seed=3, workload={"n": 10})
        assert build_manifest(**kw).to_json() == build_manifest(**kw).to_json()

    def test_layout(self):
        manifest = build_manifest(
            algorithm="best-fit", capacity=2, cost_rate=3, seed=9,
            workload={"rate": 5.0}, extra={"note": "x"},
        )
        data = json.loads(manifest.to_json())
        assert data == {
            "schema": 1,
            "algorithm": "best-fit",
            "capacity": 2,
            "cost_rate": 3,
            "seed": 9,
            "workload": {"rate": 5.0},
            "extra": {"note": "x"},
        }

    def test_environment_block_is_opt_in(self):
        plain = build_manifest(algorithm="a").to_dict()
        assert "environment" not in plain
        env = build_manifest(algorithm="a", environment=True).to_dict()
        assert set(env["environment"]) == {"python", "implementation", "platform"}


class TestObservationSession:
    def test_observer_order_is_metrics_then_tracer(self):
        session = ObservationSession(FirstFit(), trace=io.StringIO())
        assert session.observers == (session.metrics, session.tracer)

    def test_metrics_off_trace_off_yields_no_observers(self):
        session = ObservationSession(FirstFit(), metrics=False)
        assert session.observers == ()
        # nothing to instrument either: the algorithm passes through untouched
        assert session.instrumented is session.algorithm

    def test_profile_only_still_instruments(self):
        session = ObservationSession(FirstFit(), metrics=False, profile=True)
        assert session.observers == ()
        assert session.instrumented is not session.algorithm
        assert session.profiler is not None

    def test_shared_registry_is_used(self):
        reg = MetricsRegistry()
        session = ObservationSession(FirstFit(), registry=reg)
        assert session.registry is reg


class TestObserveStream:
    def test_returns_summary_and_finished_session(self):
        sink = io.StringIO()
        summary, session = observe_stream(fresh_stream(), FirstFit(), trace=sink)
        assert session.summary == summary
        assert verify_trace(sink.getvalue().splitlines()) == summary
        assert session.registry["dbp_sessions_started_total"].value == summary.num_items

    def test_registry_passthrough(self):
        reg = MetricsRegistry()
        observe_stream(fresh_stream(), FirstFit(), registry=reg)
        assert reg["dbp_sessions_started_total"].value == WORKLOAD["n_items"]

    def test_profiled_run_times_event_loop_and_fit_queries(self):
        summary, session = observe_stream(
            fresh_stream(), FirstFit(), profile=True, clock=ManualClock(tick=0.001)
        )
        assert session.profiler is not None
        assert session.profiler.phases() == ["event_loop", "fit_query"]
        assert (
            session.profiler.registry["prof_fit_query_seconds"].count
            == summary.num_items
        )

    def test_resume_produces_identical_metrics_and_trace(self):
        """Acceptance: resumed snapshots and traces equal uninterrupted ones."""
        checkpoints = []
        full_sink = io.StringIO()
        full_summary, full_session = observe_stream(
            fresh_stream(),
            FirstFit(),
            trace=full_sink,
            checkpoint_every=150,
            on_checkpoint=checkpoints.append,
        )
        assert len(checkpoints) >= 2
        cp = checkpoints[1]

        resumed_sink = io.StringIO()
        resumed_session = ObservationSession(FirstFit(), trace=resumed_sink)
        resumed_summary, _ = observe_stream(
            fresh_stream(),
            resumed_session.algorithm,
            session=resumed_session,
            checkpoint_every=150,
            on_checkpoint=lambda _c: None,
            resume_from=cp,
        )
        assert resumed_summary == full_summary
        assert resumed_session.registry.to_json() == full_session.registry.to_json()
        tracer_state = cp.observers[1]
        full_lines = full_sink.getvalue().splitlines(keepends=True)
        prefix = "".join(full_lines[: tracer_state["records"]])
        assert prefix + resumed_sink.getvalue() == full_sink.getvalue()


class TestArtifacts:
    def test_export_set(self, tmp_path):
        sink = io.StringIO()
        _, session = observe_stream(fresh_stream(), FirstFit(), trace=sink, seed=13)
        written = session.write_artifacts(tmp_path / "obs")
        assert set(written) == {"manifest", "metrics_json", "metrics_prom"}
        metrics = json.loads((tmp_path / "obs" / "metrics.json").read_text())
        assert metrics == session.registry.snapshot()
        manifest = json.loads((tmp_path / "obs" / "manifest.json").read_text())
        assert manifest["seed"] == 13
        prom = (tmp_path / "obs" / "metrics.prom").read_text()
        assert "# TYPE dbp_open_bins gauge" in prom

    def test_profile_artifact_only_when_profiling(self, tmp_path):
        _, session = observe_stream(
            fresh_stream(), FirstFit(), profile=True, clock=ManualClock(tick=0.001)
        )
        written = session.write_artifacts(tmp_path)
        assert "profile" in written
        report = json.loads((tmp_path / "profile.json").read_text())
        assert "event_loop" in report and "fit_query" in report

    def test_artifacts_are_byte_stable_across_runs(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            _, session = observe_stream(fresh_stream(), FirstFit(), seed=13)
            session.write_artifacts(tmp_path / run)
            outputs.append(
                (
                    (tmp_path / run / "metrics.json").read_bytes(),
                    (tmp_path / run / "metrics.prom").read_bytes(),
                    (tmp_path / run / "manifest.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "day.json"
    assert main(["generate", "--kind", "gaming", "--seed", "7",
                 "--horizon", "90", "--out", str(path)]) == 0
    return path


class TestCLI:
    def test_dispatch_with_observability(self, tmp_path, trace_file, capsys):
        trace_out = tmp_path / "run.trace.jsonl"
        metrics_dir = tmp_path / "obs"
        code = main([
            "dispatch", str(trace_file),
            "--trace-out", str(trace_out),
            "--metrics", str(metrics_dir),
            "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert trace_out.exists()
        assert (metrics_dir / "metrics.json").exists()
        assert (metrics_dir / "manifest.json").exists()
        assert (metrics_dir / "profile.json").exists()
        assert "trace" in out

    def test_verify_trace_accepts_a_good_trace(self, tmp_path, trace_file, capsys):
        trace_out = tmp_path / "run.trace.jsonl"
        assert main(["dispatch", str(trace_file), "--trace-out", str(trace_out)]) == 0
        capsys.readouterr()
        assert main(["verify-trace", str(trace_out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_trace_rejects_a_tampered_trace(self, tmp_path, trace_file, capsys):
        trace_out = tmp_path / "run.trace.jsonl"
        assert main(["dispatch", str(trace_file), "--trace-out", str(trace_out)]) == 0
        lines = trace_out.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["kind"] == "close":
                record["t"] += 1.0
                lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":"))
                break
        trace_out.write_text("\n".join(lines) + "\n")
        assert main(["verify-trace", str(trace_out)]) == 1

    def test_verify_trace_missing_file_is_an_error(self, tmp_path, capsys):
        # A path that cannot be read is a usage error (2), not a failed replay (1).
        missing = tmp_path / "nope.jsonl"
        assert main(["verify-trace", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"verify-trace: cannot read trace {missing}: No such file or directory\n"
        )

    def test_dispatch_observed_runs_are_deterministic(self, tmp_path, trace_file):
        digests = []
        for run in ("a", "b"):
            trace_out = tmp_path / f"{run}.jsonl"
            metrics_dir = tmp_path / run
            assert main(["dispatch", str(trace_file),
                         "--trace-out", str(trace_out),
                         "--metrics", str(metrics_dir)]) == 0
            digests.append(
                (trace_out.read_bytes(), (metrics_dir / "metrics.json").read_bytes())
            )
        assert digests[0] == digests[1]
