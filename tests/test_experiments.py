"""Integration tests: every registered experiment runs (small parameters)
and all paper claims PASS."""

import pytest

from repro.experiments import (
    available_experiments,
    experiment_info,
    get_experiment,
)
from repro.experiments.registry import ClaimCheck, ExperimentResult


EXPECTED = {
    "thm1-anyfit",
    "thm2-bestfit",
    "thm3-large-items",
    "thm4-small-items",
    "thm5-general-ff",
    "mff",
    "cloud-gaming",
    "bounds-sandwich",
    "constrained-dbp",
    "clairvoyance-gap",
    "classic-dbp",
    "migration-gap",
    "offline-gaps",
    "fleet-mix",
    "flash-crowd",
    "capacity-cap",
    "prediction-noise",
    "anomalies",
    "observability",
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert EXPECTED <= set(available_experiments())

    def test_info(self):
        info = experiment_info("thm1-anyfit")
        assert "Theorem 1" in info["display"]

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("nope")


class TestClaimCheck:
    def test_str_pass_fail(self):
        assert str(ClaimCheck(claim="c", holds=True)).startswith("[PASS]")
        assert str(ClaimCheck(claim="c", holds=False, detail="why")).endswith("— why")


# Small-parameter runs: each must complete and uphold every claim.


def _assert_experiment(result: ExperimentResult):
    assert result.table.rows, "experiment produced no rows"
    assert result.all_claims_hold, [str(c) for c in result.checks if not c.holds]
    rendered = result.render()
    assert result.title in rendered
    assert "[PASS]" in rendered


def test_thm1_small():
    _assert_experiment(get_experiment("thm1-anyfit")(ks=(2, 6), mus=(3,)))


def test_thm1_one_algorithm_gives_one_row_per_k():
    from repro.algorithms import WorstFit

    result = get_experiment("thm1-anyfit")(ks=(2, 5, 10), mus=(4,), algorithms=[WorstFit()])
    _assert_experiment(result)
    assert len(result.table.rows) == 3


@pytest.mark.parametrize(
    "name, params",
    [
        ("cloud-gaming", {"seeds": (0,), "horizon": 12 * 60.0}),
        ("thm3-large-items", {"ks": (2, 4), "arrival_rates": (1.0,), "seeds": (0,)}),
        ("thm4-small-items", {"ks": (4,), "arrival_rates": (4.0,), "horizon": 60.0, "seeds": (0,)}),
        # Two seeds: the rank-disagreement claim needs enough algorithm
        # pairs on enough traces to show.
        ("classic-dbp", {"seeds": (0, 1), "horizon": 100.0}),
    ],
)
def test_between_the_small_and_the_default_parameters(name, params):
    _assert_experiment(get_experiment(name)(**params))


def test_thm2_small():
    _assert_experiment(get_experiment("thm2-bestfit")(ks=(3, 5), mu=3))


def test_thm3_small():
    _assert_experiment(
        get_experiment("thm3-large-items")(
            ks=(2, 4), arrival_rates=(1.0,), horizon=60.0, seeds=(0,)
        )
    )


def test_thm4_small():
    _assert_experiment(
        get_experiment("thm4-small-items")(
            ks=(2, 4), arrival_rates=(3.0,), horizon=50.0, seeds=(0,)
        )
    )


def test_thm5_small():
    _assert_experiment(get_experiment("thm5-general-ff")(seeds=(0,)))


def test_mff_small():
    _assert_experiment(get_experiment("mff")(seeds=(0, 1), k_ablation=(4, 8)))


def test_cloud_gaming_small():
    _assert_experiment(get_experiment("cloud-gaming")(seeds=(0,), horizon=8 * 60.0))


def test_bounds_sandwich_small():
    _assert_experiment(get_experiment("bounds-sandwich")(seeds=(0, 1), horizon=40.0))


def test_constrained_dbp_small():
    _assert_experiment(
        get_experiment("constrained-dbp")(
            num_zones=3, seeds=(0,), horizon=4 * 60.0, arrival_rate=0.3
        )
    )


def test_clairvoyance_gap_small():
    _assert_experiment(
        get_experiment("clairvoyance-gap")(
            mu_levels=(2.0, 20.0), seeds=(0, 1), horizon=80.0
        )
    )


def test_classic_dbp_small():
    _assert_experiment(get_experiment("classic-dbp")(seeds=(0, 1), horizon=80.0))


def test_migration_gap_small():
    _assert_experiment(
        get_experiment("migration-gap")(rates=(0.5, 6.0), seeds=(0, 1), horizon=80.0)
    )


def test_offline_gaps_small():
    _assert_experiment(get_experiment("offline-gaps")(seeds=(0, 1), num_items_target=8))


def test_fleet_mix_small():
    _assert_experiment(get_experiment("fleet-mix")(seeds=(0,), horizon=8 * 60.0))


def test_anomalies_small():
    _assert_experiment(get_experiment("anomalies")(seeds=tuple(range(6))))


def test_prediction_noise_small():
    _assert_experiment(
        get_experiment("prediction-noise")(sigmas=(0.0, 2.0), seeds=(0, 1), horizon=80.0)
    )


def test_capacity_cap_small():
    _assert_experiment(
        get_experiment("capacity-cap")(caps=(4, 12, 500), seeds=(0,), horizon=6 * 60.0)
    )


def test_flash_crowd_small():
    _assert_experiment(
        get_experiment("flash-crowd")(
            burst_factors=(1.0, 8.0), seeds=(0, 1), horizon=200.0
        )
    )


def test_observability_small():
    _assert_experiment(get_experiment("observability")(n_items=150, seed=1))
