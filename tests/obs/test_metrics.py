"""Tests for the metrics registry and its instruments."""

import re
from pathlib import Path

import pytest

from repro.obs.metrics import (
    MetricsError,
    MetricsRegistry,
    NullMetricsRegistry,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A literal metric name at an instrument-factory call, or at one of the
#: ``_count(name)`` wrappers of ``ServeApp`` / ``ArtifactCache``.
INSTRUMENTED_NAME = re.compile(
    r'(?:\.(?:counter|gauge|histogram)|\b_count)\(\s*"([^"]+)"'
)


def test_every_instrumented_name_is_documented():
    """Every metric name instrumented in src/ has a row in OBSERVABILITY.md.

    Whole-word match: ``cache.hit`` in the text does not document
    ``cache.hits``.
    """
    doc = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    names = {
        name
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for name in INSTRUMENTED_NAME.findall(path.read_text(encoding="utf-8"))
    }
    assert len(names) > 20, "the scan no longer finds the instrumented names"
    missing = [
        name
        for name in sorted(names)
        if not re.search(re.escape(name) + r"(?![A-Za-z0-9_.\-])", doc)
    ]
    assert missing == [], f"metrics missing from docs/OBSERVABILITY.md: {missing}"


class TestCounter:
    def test_increments_accumulate(self):
        counter = MetricsRegistry().counter("cache.hit")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricsError, match="cannot decrease"):
            MetricsRegistry().counter("cache.hit").inc(-1)

    def test_float_amounts_allowed(self):
        counter = MetricsRegistry().counter("executor.busy_s")
        counter.inc(0.25)
        counter.inc(0.75)
        assert counter.value == pytest.approx(1.0)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("executor.utilization")
        gauge.set(0.4)
        gauge.set(0.9)
        assert gauge.value == pytest.approx(0.9)

    def test_unset_gauge_is_none(self):
        assert MetricsRegistry().gauge("x").value is None


class TestHistogram:
    def test_summary_statistics_exact(self):
        hist = MetricsRegistry().histogram("unit_wall_s")
        for value in (0.5, 1.5, 4.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.min == pytest.approx(0.5)
        assert hist.max == pytest.approx(4.0)
        assert hist.mean == pytest.approx(2.0)

    def test_empty_histogram_mean_is_none(self):
        assert MetricsRegistry().histogram("x").mean is None

    def test_power_of_two_bucketing(self):
        hist = MetricsRegistry().histogram("x")
        hist.observe(0.3)  # exponent -1
        hist.observe(0.4)  # exponent -1
        hist.observe(3.0)  # exponent 2
        assert sum(hist.buckets.values()) == 3
        assert len(hist.buckets) == 2


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("a")

    def test_invalid_name_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("")
        with pytest.raises(MetricsError):
            MetricsRegistry().counter(" padded ")

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.counter("a.count").inc(1)
        registry.gauge("util").set(0.5)
        registry.histogram("wall").observe(1.0)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a.count", "b.count"]
        assert snap["gauges"] == {"util": 0.5}
        assert snap["histograms"]["wall"]["count"] == 1

    def test_snapshot_is_byte_stable(self):
        import json

        def build():
            registry = MetricsRegistry()
            registry.counter("z").inc(3)
            registry.gauge("a").set(1.5)
            return json.dumps(registry.snapshot(), sort_keys=True)

        assert build() == build()


class TestNullRegistry:
    def test_all_operations_absorbed(self):
        registry = NullMetricsRegistry()
        registry.counter("a").inc(5)
        registry.gauge("b").set(1.0)
        registry.histogram("c").observe(2.0)
        assert registry.counter("a").value == 0
        assert registry.histogram("c").count == 0

    def test_shared_instrument_no_allocation_per_name(self):
        registry = NullMetricsRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.counter("a") is registry.histogram("c")
