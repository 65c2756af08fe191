"""Tests for removal-anomaly detection."""

from hypothesis import given, settings

from repro import FirstFit, make_items, simulate
from repro.analysis.anomalies import find_removal_anomalies
from repro.opt.lower_bounds import opt_total_lower_bound
from repro.workloads import Clipped, Exponential, Uniform, generate_trace
from tests.conftest import exact_items


class TestFinder:
    def test_tiny_traces_have_no_anomalies(self):
        assert find_removal_anomalies([], FirstFit) == []
        assert find_removal_anomalies(make_items([(0, 1, 0.5)]), FirstFit) == []

    def test_known_anomalous_trace(self):
        """seed 0 of the experiment workload carries an anomaly (pinned)."""
        trace = generate_trace(
            arrival_rate=2.0,
            horizon=30.0,
            duration=Clipped(Exponential(3.0), 1.0, 8.0),
            size=Uniform(0.2, 0.7),
            seed=0,
        )
        anomalies = find_removal_anomalies(list(trace.items), FirstFit, stop_after=1)
        assert anomalies
        a = anomalies[0]
        assert a.increase > 0
        assert a.relative_increase > 0
        # Re-verify by hand: rerunning without that item really costs more.
        items = [it for it in trace.items if it.item_id != a.item_id]
        assert simulate(items, FirstFit()).total_cost() == a.reduced_trace_cost

    def test_stop_after_caps(self):
        trace = generate_trace(
            arrival_rate=3.0,
            horizon=30.0,
            duration=Clipped(Exponential(3.0), 1.0, 8.0),
            size=Uniform(0.2, 0.7),
            seed=1,
        )
        all_found = find_removal_anomalies(list(trace.items), FirstFit)
        if len(all_found) > 1:
            capped = find_removal_anomalies(list(trace.items), FirstFit, stop_after=1)
            assert len(capped) == 1

    def test_monotone_instance_has_none(self):
        # Disjoint-in-time unit items: removal always just removes cost.
        items = make_items([(3 * i, 3 * i + 1, 0.5) for i in range(6)])
        assert find_removal_anomalies(items, FirstFit) == []


@given(exact_items(max_items=10, max_time=10))
@settings(max_examples=25, deadline=None)
def test_opt_lower_bound_monotone_under_removal(items):
    """The benchmark anomalies are measured against is itself monotone."""
    if len(items) < 2:
        return
    base = opt_total_lower_bound(items)
    for i in range(len(items)):
        reduced = items[:i] + items[i + 1 :]
        assert opt_total_lower_bound(reduced) <= base
