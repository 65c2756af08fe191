"""Tests for trace profiling and synthesis."""

import numpy as np
import pytest

from repro import FirstFit, Item, simulate
from repro.workloads import (
    Trace,
    profile_trace,
    synthesize_trace,
)


class TestProfiling:
    def test_minimum_items(self):
        with pytest.raises(ValueError, match="at least 2"):
            profile_trace(Trace.from_items([Item(arrival=0, departure=1, size=0.5)]))

    def test_rate_and_durations(self):
        items = [
            Item(arrival=float(i), departure=float(i) + 2.0, size=0.5, item_id=f"i{i}")
            for i in range(11)
        ]
        p = profile_trace(Trace.from_items(items))
        assert p.arrival_rate == pytest.approx(1.1)  # 11 items over 10 time units
        assert p.duration_min == p.duration_max == 2.0
        assert p.mu_bound == 1.0

    def test_simultaneous_arrivals_burst(self):
        items = [
            Item(arrival=0.0, departure=1.0 + i, size=0.25, item_id=f"b{i}")
            for i in range(4)
        ]
        p = profile_trace(Trace.from_items(items))
        assert p.horizon == 1.0  # nominal window, no zero-division
        assert p.arrival_rate == 4.0

    def test_discrete_size_mix_preserved(self, gaming_trace):
        p = profile_trace(gaming_trace)
        observed = sorted({float(it.size) for it in gaming_trace})
        assert list(p.sizes.values) == observed

    def test_quantile_binning_for_continuous_sizes(self):
        rng = np.random.default_rng(0)
        items = [
            Item(arrival=float(i) * 0.1, departure=float(i) * 0.1 + 1.0,
                 size=float(s), item_id=f"c{i}")
            for i, s in enumerate(rng.uniform(0.1, 0.9, size=300))
        ]
        p = profile_trace(Trace.from_items(items))
        assert len(p.sizes.values) <= 20


class TestSynthesis:
    def test_clone_statistics_close(self, gaming_trace):
        p = profile_trace(gaming_trace)
        clone = synthesize_trace(p, seed=4)
        # Item count within Poisson noise, mean duration/size within 15%.
        assert abs(len(clone) - len(gaming_trace)) < 4 * np.sqrt(len(gaming_trace))
        obs_dur = np.mean([float(it.length) for it in gaming_trace])
        syn_dur = np.mean([float(it.length) for it in clone])
        assert syn_dur == pytest.approx(obs_dur, rel=0.15)
        obs_sz = np.mean([float(it.size) for it in gaming_trace])
        syn_sz = np.mean([float(it.size) for it in clone])
        assert syn_sz == pytest.approx(obs_sz, rel=0.15)

    def test_mu_never_exceeds_profile_bound(self, gaming_trace):
        p = profile_trace(gaming_trace)
        clone = synthesize_trace(p, seed=7)
        assert float(clone.mu) <= p.mu_bound + 1e-9

    def test_packing_cost_comparable(self, gaming_trace):
        """The clone should stress the dispatcher like the original."""
        p = profile_trace(gaming_trace)
        clone = synthesize_trace(p, seed=11)
        orig = float(simulate(gaming_trace.items, FirstFit()).total_cost())
        syn = float(simulate(clone.items, FirstFit()).total_cost())
        assert 0.5 < syn / orig < 2.0

    def test_extended_horizon(self, gaming_trace):
        p = profile_trace(gaming_trace)
        longer = synthesize_trace(p, seed=2, horizon=p.horizon * 3)
        assert len(longer) > 2 * len(gaming_trace)

    def test_deterministic(self, gaming_trace):
        p = profile_trace(gaming_trace)
        a = synthesize_trace(p, seed=3)
        b = synthesize_trace(p, seed=3)
        assert [it.arrival for it in a] == [it.arrival for it in b]
