"""Tests for the API-reference generator and its sync contract."""

from repro.tools.apidoc import (
    default_output_path,
    iter_public_modules,
    main,
    render_api_markdown,
)


class TestGeneration:
    def test_modules_enumerated(self):
        modules = iter_public_modules()
        assert "repro" in modules
        assert "repro.core.simulator" in modules
        assert "repro.experiments.registry" in modules
        # The static checker is public API; apidoc itself stays out.
        assert "repro.tools.analysis" in modules
        assert not any(m.startswith("repro.tools.lint") for m in modules)
        assert not any(m.startswith("repro.tools.apidoc") for m in modules)
        assert modules == sorted(modules)

    def test_render_contains_key_entries(self):
        md = render_api_markdown()
        assert "## `repro.core.simulator`" in md
        assert "| `simulate` | function |" in md
        assert "| `FirstFit` | class |" in md
        # Pipes in docstrings must be escaped so tables stay intact.
        assert "<x1\\|_y1" in md


class TestSyncContract:
    def test_committed_api_md_is_current(self):
        """docs/API.md must match a fresh render (the --check contract)."""
        path = default_output_path()
        assert path.exists(), "docs/API.md missing; run python -m repro.tools.apidoc --write"
        assert path.read_text() == render_api_markdown(), (
            "docs/API.md is stale; run python -m repro.tools.apidoc --write"
        )

    def test_check_mode(self, capsys):
        assert main(["--check"]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_write_mode_idempotent(self, capsys):
        before = default_output_path().read_text()
        assert main(["--write"]) == 0
        assert default_output_path().read_text() == before
