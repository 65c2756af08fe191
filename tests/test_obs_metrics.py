"""Tests for the deterministic metrics registry (`repro.obs.metrics`)."""

import json
from fractions import Fraction

import pytest

from repro.obs import (
    LATENCY_SECONDS_BUCKETS,
    PROBE_BUCKETS,
    SIZE_FRACTION_BUCKETS,
    TIME_BUCKETS,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("hits_total")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_cannot_decrease(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(MetricError):
            c.inc(-1)


class TestGauge:
    def test_tracks_value_and_peak(self):
        g = MetricsRegistry().gauge("level")
        g.inc(3)
        g.inc(2)
        g.dec(4)
        assert g.value == 1
        assert g.peak == 5

    def test_dec_never_lowers_peak(self):
        g = MetricsRegistry().gauge("level")
        g.set(7)
        g.dec(7)
        assert g.value == 0
        assert g.peak == 7

    def test_set_below_peak_keeps_peak(self):
        g = MetricsRegistry().gauge("level")
        g.set(9)
        g.set(2)
        assert (g.value, g.peak) == (2, 9)


class TestHistogram:
    def test_observations_land_in_half_open_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 10.0, 99.0):
            h.observe(v)
        # bisect_left: a value equal to a bound lands in that bound's bucket
        assert h.counts == (2, 1, 1, 1)
        assert h.count == 5
        assert h.sum == pytest.approx(113.5)

    def test_rejects_empty_and_non_increasing_schemes(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("a", buckets=())
        with pytest.raises(MetricError):
            reg.histogram("b", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(MetricError):
            reg.histogram("c", buckets=(5.0, 1.0))

    def test_bundled_schemes_are_strictly_increasing(self):
        for scheme in (
            SIZE_FRACTION_BUCKETS,
            TIME_BUCKETS,
            LATENCY_SECONDS_BUCKETS,
            PROBE_BUCKETS,
        ):
            assert list(scheme) == sorted(set(scheme))


class TestRegistry:
    def test_getters_are_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        assert reg.gauge("g") is reg.gauge("g")
        h = reg.histogram("h", buckets=(1.0, 2.0))
        assert reg.histogram("h", buckets=(1.0, 2.0)) is h
        assert len(reg) == 3
        assert reg.names() == ["g", "h", "n"]

    def test_kind_clash_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")
        with pytest.raises(MetricError):
            reg.histogram("x", buckets=(1.0,))
        reg.histogram("h", buckets=(1.0,))
        with pytest.raises(MetricError):
            reg.counter("h")

    def test_bucket_scheme_clash_is_an_error(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            reg.histogram("h", buckets=(1.0, 3.0))

    @pytest.mark.parametrize("bad", ["Upper", "1x", "with-dash", "", "dotted.name"])
    def test_name_validation(self, bad):
        with pytest.raises(MetricError):
            MetricsRegistry().counter(bad)

    def test_contains_and_getitem(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        assert "n" in reg and "m" not in reg
        assert reg["n"] is c


class TestExports:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", "Operations").inc(3)
        g = reg.gauge("depth", "Queue depth")
        g.inc(2)
        g.inc(3)
        g.dec(4)
        h = reg.histogram("size", "Sizes", buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(0.75)
        h.observe(2.0)
        return reg

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["ops_total"] == 3
        assert snap["gauges"]["depth"] == {"peak": 5, "value": 1}
        assert snap["histograms"]["size"] == {
            "buckets": [0.5, 1.0],
            "counts": [1, 1, 1],
            "count": 3,
            "sum": 3.0,
        }

    def test_to_json_is_byte_stable_and_canonical(self):
        reg = self._populated()
        text = reg.to_json()
        assert text == reg.to_json()
        assert ": " not in text and ", " not in text
        assert json.loads(text) == reg.snapshot()

    def test_prometheus_rendering(self):
        prom = self._populated().to_prometheus()
        lines = prom.splitlines()
        assert "# HELP ops_total Operations" in lines
        assert "# TYPE ops_total counter" in lines
        assert "ops_total 3" in lines
        assert "depth 1" in lines
        assert "depth_peak 5" in lines
        # histogram ladder is cumulative and ends with +Inf == count
        assert 'size_bucket{le="0.5"} 1' in lines
        assert 'size_bucket{le="1"} 2' in lines
        assert 'size_bucket{le="+Inf"} 3' in lines
        assert "size_sum 3" in lines
        assert "size_count 3" in lines
        assert prom.endswith("\n")

    def test_prometheus_number_formatting(self):
        reg = MetricsRegistry()
        reg.counter("whole").inc(2.0)
        reg.counter("frac").inc(2.5)
        prom = reg.to_prometheus()
        assert "whole 2\n" in prom
        assert "frac 2.5\n" in prom

    def test_exact_values_export_as_floats(self):
        reg = MetricsRegistry()
        reg.gauge("t").set(Fraction(7, 2))
        reg.histogram("share", buckets=(0.5, 1.0)).observe(Fraction(1, 3))
        snap = reg.snapshot()
        assert snap["gauges"]["t"]["value"] == Fraction(7, 2)  # exact in memory
        assert snap["histograms"]["share"]["sum"] == Fraction(1, 3)
        exported = json.loads(reg.to_json())
        assert exported["gauges"]["t"] == {"peak": 3.5, "value": 3.5}
        assert exported["histograms"]["share"]["sum"] == 1 / 3
        prom = reg.to_prometheus()
        assert "t 3.5\n" in prom
        assert f"share_sum {1 / 3!r}\n" in prom


class TestCheckpointing:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(7)
        g = reg.gauge("g")
        g.inc(4)
        g.dec(1)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        return reg

    def test_round_trip_restores_every_instrument(self):
        src = self._registry()
        state = json.loads(json.dumps(src.checkpoint_state()))  # survives JSON
        dst = MetricsRegistry()
        dst.counter("n")
        dst.gauge("g")
        dst.histogram("h", buckets=(1.0, 2.0))
        dst.restore_state(state)
        assert dst.to_json() == src.to_json()

    def test_restore_into_missing_metric_is_an_error(self):
        state = self._registry().checkpoint_state()
        with pytest.raises(MetricError):
            MetricsRegistry().restore_state(state)

    def test_restore_into_wrong_kind_is_an_error(self):
        state = self._registry().checkpoint_state()
        dst = MetricsRegistry()
        dst.gauge("n")  # was a counter
        dst.gauge("g")
        dst.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            dst.restore_state(state)

    def test_restore_with_changed_bucket_scheme_is_an_error(self):
        state = self._registry().checkpoint_state()
        dst = MetricsRegistry()
        dst.counter("n")
        dst.gauge("g")
        dst.histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(MetricError):
            dst.restore_state(state)
