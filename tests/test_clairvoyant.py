"""Tests for departure-aware (clairvoyant) packing."""

import pytest
from hypothesis import given, settings

from repro import FirstFit, make_items, simulate
from repro.clairvoyant import DurationAlignedFit, MinExpandFit, simulate_clairvoyant
from repro.opt.lower_bounds import opt_total_lower_bound
from tests.conftest import exact_items


class TestOracle:
    def test_unbound_oracle_is_loud(self):
        items = make_items([(0, 5, 0.5)])
        with pytest.raises(RuntimeError, match="oracle"):
            simulate(items, MinExpandFit())

    def test_bound_oracle_runs(self):
        items = make_items([(0, 5, 0.5), (1, 3, 0.4)])
        result = simulate_clairvoyant(items, MinExpandFit(), check=True)
        assert result.num_bins_used == 1


class TestMinExpand:
    def test_prefers_bin_it_extends_least(self):
        # Two open bins: one ends at t=10, one at t=4.  A new item ending
        # at 11 extends the first by 1, the second by 7 -> picks the first.
        items = make_items(
            [(0, 10, 0.6), (0, 4, 0.6), (1, 11, 0.3)], prefix="h"
        )
        result = simulate_clairvoyant(items, MinExpandFit())
        assert result.bin_of("h-2").index == result.bin_of("h-0").index

    def test_zero_extension_beats_any_positive(self):
        # Item ends at 3: fits under the bin ending at 10 with 0 extension.
        items = make_items([(0, 10, 0.6), (0, 4, 0.6), (1, 3, 0.3)], prefix="h")
        result = simulate_clairvoyant(items, MinExpandFit())
        assert result.bin_of("h-2").index == result.bin_of("h-0").index


class TestDurationAligned:
    def test_prefers_similar_departure(self):
        # Bins ending at 10 and 4; item ends at 5 -> closer to 4.
        items = make_items([(0, 10, 0.6), (0, 4, 0.6), (1, 5, 0.3)], prefix="h")
        result = simulate_clairvoyant(items, DurationAlignedFit())
        assert result.bin_of("h-2").index == result.bin_of("h-1").index

    def test_is_any_fit(self):
        # Never opens a new bin while one fits.
        items = make_items([(0, 10, 0.5), (1, 2, 0.5)], prefix="h")
        result = simulate_clairvoyant(items, DurationAlignedFit())
        assert result.num_bins_used == 1


class TestClairvoyanceAdvantage:
    def test_blind_ff_pins_a_short_bin_open(self):
        """The canonical win: a long item lands in the soon-to-close bin
        under blind FF (pinning it open), while both aware policies route
        it to the long-horizon bin."""
        items = make_items(
            [
                (0, 2, 0.6),   # bin0, would close at 2
                (0, 12, 0.6),  # bin1, open till 12 regardless
                (1, 12, 0.3),  # fits both; placement decides bin0's fate
            ],
            prefix="h",
        )
        blind = simulate(items, FirstFit())
        assert blind.bin_of("h-2").index == 0  # earliest bin
        assert blind.total_cost() == 12 + 12

        for algo_cls in (MinExpandFit, DurationAlignedFit):
            aware = simulate_clairvoyant(items, algo_cls())
            assert aware.bin_of("h-2").index == 1
            assert aware.total_cost() == 2 + 12

    def test_mixed_lifetime_waves(self):
        """Repeated waves of the pattern above compound the advantage."""
        triples = []
        for w in range(5):
            t = 20 * w
            triples += [(t, t + 2, 0.6), (t, t + 12, 0.6), (t + 1, t + 12, 0.3)]
        items = make_items(triples, prefix="w")
        blind = simulate(items, FirstFit())
        aware = simulate_clairvoyant(items, MinExpandFit())
        assert float(aware.total_cost()) < float(blind.total_cost())


@given(exact_items())
@settings(max_examples=40, deadline=None)
def test_clairvoyant_respects_opt_lower_bound(items):
    for algo_cls in (MinExpandFit, DurationAlignedFit):
        result = simulate_clairvoyant(items, algo_cls(), check=True)
        assert result.total_cost() >= opt_total_lower_bound(items)


@given(exact_items())
@settings(max_examples=30, deadline=None)
def test_clairvoyant_never_opens_when_fit_exists(items):
    """Both policies are Any Fit members."""
    result = simulate_clairvoyant(items, MinExpandFit())
    # Reconstruct: whenever a bin was opened, no *earlier-opened* bin that
    # was still open had room (later-indexed bins did not yet exist at the
    # opening instant — indices follow opening order).
    for target in result.bins:
        t_open, first_id = target.assignments[0]
        first = result.item_by_id(first_id)
        for other in result.bins:
            if other.index >= target.index:
                continue
            if not (other.opened_at <= t_open < other.closed_at):
                continue
            level = sum(
                it.size
                for it in result.items_in_bin(other.index)
                if it.arrival <= t_open < it.departure
            )
            assert level + first.size > result.capacity


def test_knowing_departures_does_not_hurt_on_a_gaming_day(gaming_trace_day):
    blind = simulate(gaming_trace_day.items, FirstFit())
    aware = simulate_clairvoyant(gaming_trace_day.items, MinExpandFit())
    assert float(aware.total_cost()) <= float(blind.total_cost()) * 1.02
