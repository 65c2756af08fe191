"""Tests for the generate/dispatch/viz CLI subcommands."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def trace_json(tmp_path):
    path = tmp_path / "trace.json"
    assert (
        main(["generate", "--kind", "poisson", "--rate", "1.0", "--horizon", "120",
              "--seed", "5", "--out", str(path)])
        == 0
    )
    return path


class TestGenerate:
    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["generate", "--kind", "poisson", "--horizon", "60",
                     "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["items"]
        out = capsys.readouterr().out
        assert "wrote" in out and "mu" in out

    def test_csv_output(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert main(["generate", "--kind", "bursts", "--rate", "0.5", "--horizon", "90",
                     "--out", str(path)]) == 0
        assert path.read_text().startswith("id,arrival,departure,size,tag")

    def test_gaming_kind(self, tmp_path):
        path = tmp_path / "g.json"
        assert main(["generate", "--kind", "gaming", "--horizon", "240",
                     "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert all("tag" in item for item in data["items"])

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            main(["generate", "--kind", "poisson", "--seed", "9", "--horizon", "60",
                  "--out", str(p)])
        assert a.read_text() == b.read_text()


class TestDispatch:
    def test_report_printed(self, trace_json, capsys):
        assert main(["dispatch", str(trace_json), "--algorithm", "best-fit"]) == 0
        out = capsys.readouterr().out
        assert "servers" in out and "cost(cont)" in out

    def test_quantum_raises_bill(self, trace_json, capsys):
        main(["dispatch", str(trace_json)])
        cont = capsys.readouterr().out
        main(["dispatch", str(trace_json), "--quantum", "60"])
        billed = capsys.readouterr().out

        def read(block, key):
            for line in block.splitlines():
                if line.startswith(key):
                    return float(line.split()[-1])
            raise KeyError(key)

        assert read(billed, "cost(billed)") >= read(cont, "cost(billed)")

    def test_unknown_algorithm(self, trace_json, capsys):
        assert main(["dispatch", str(trace_json), "--algorithm", "magic-fit"]) == 2
        assert capsys.readouterr().err.startswith(
            "dispatch: unknown algorithm 'magic-fit'; known: "
        )


class TestViz:
    def test_timeline_rendered(self, trace_json, capsys):
        assert main(["viz", str(trace_json), "--width", "32", "--max-bins", "4"]) == 0
        out = capsys.readouterr().out
        assert "bin " in out
        assert "load" in out
        assert "cost" in out

    def test_csv_roundtrip_via_viz(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(["generate", "--kind", "poisson", "--horizon", "60", "--out", str(path)])
        capsys.readouterr()
        assert main(["viz", str(path)]) == 0
        assert "first-fit" in capsys.readouterr().out
