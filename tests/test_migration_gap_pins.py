"""Pinned rows for the migration-gap experiment's FFD-rebuild comparison.

``tests/data/migration_gap_legacy.json`` holds the rows of the retired
blind-FF vs repack-at-every-event-FFD table.  The one migration-gap table
carries the same measurements in its ``ff_cost``, ``ffd_repack`` and
``opt_lb`` columns, so the pin checks them value for value, and checks
that each pinned gap is ``ff_cost / ffd_repack``.  The file is not
regenerated: the numbers it pins must not move.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import get_experiment

PIN = Path(__file__).parent / "data" / "migration_gap_legacy.json"

#: Columns the pin shares with the one table.
SHARED = ["rate", "seed", "items", "ff_cost", "ffd_repack", "opt_lb"]


@pytest.fixture(scope="module")
def pinned():
    (experiment,) = json.loads(PIN.read_text())["experiments"]
    return experiment


@pytest.fixture(scope="module")
def result():
    return get_experiment("migration-gap")()


def test_legacy_rows_byte_equal_committed_pin(pinned, result):
    headers = pinned["headers"]
    table = [dict(zip(result.table.headers, row)) for row in result.table.rows]
    assert len(table) == len(pinned["rows"])
    for pinned_row, row in zip(pinned["rows"], table):
        expected = dict(zip(headers, pinned_row))
        assert json.dumps([row[h] for h in SHARED]) == json.dumps(
            [expected[h] for h in SHARED]
        )


def test_legacy_gap_is_ff_cost_over_ffd_repack(pinned):
    headers = pinned["headers"]
    for pinned_row in pinned["rows"]:
        row = dict(zip(headers, pinned_row))
        assert row["migration_gap"] == row["ff_cost"] / row["ffd_repack"]


def test_legacy_pin_has_the_pre_repacker_schema():
    payload = json.loads(PIN.read_text())
    (experiment,) = payload["experiments"]
    assert experiment["headers"] == [
        "rate",
        "seed",
        "items",
        "ff_cost",
        "ffd_repack",
        "opt_lb",
        "migration_gap",
    ]


def test_default_path_uses_bounded_migration_columns(pinned, result):
    assert "bounded_repack" in result.table.headers
    assert "migrations" in result.table.headers
    assert "ffd_repack" in result.table.headers
    assert result.all_claims_hold, [str(c) for c in result.checks]
    # The pinned table's sanity claim is still checked, on the one table.
    assert pinned["checks"][-1]["claim"] in [c.claim for c in result.checks]
    migrations = result.table.column("migrations")
    assert any(m > 0 for m in migrations), "default path never migrated"
