"""Unit tests for statistics collection."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import Histogram, Stats, geomean


def test_counter_bump_and_default_zero():
    stats = Stats()
    assert stats.get("core0.loads") == 0
    stats.bump("core0.loads")
    stats.bump("core0.loads", 4)
    assert stats.get("core0.loads") == 5


def test_histogram_summary():
    hist = Histogram()
    for v in [10, 20, 30]:
        hist.add(v)
    assert hist.count == 3
    assert hist.mean == 20
    assert hist.min == 10
    assert hist.max == 30
    assert hist.total == 60


def test_histogram_summary_only_mode():
    # A histogram keeps the running summary and no per-sample list.
    hist = Histogram()
    hist.add(5)
    assert not hasattr(hist, "samples")
    assert (hist.count, hist.total, hist.min, hist.max) == (1, 5, 5, 5)
    assert hist.mean == 5


def test_empty_histogram_mean_is_zero():
    assert Histogram().mean == 0.0


def test_stats_observe_and_histogram_accessor():
    stats = Stats()
    stats.observe("lat", 100)
    stats.observe("lat", 300)
    assert stats.histogram("lat").mean == 200
    # accessor creates on demand
    assert stats.histogram("other").count == 0


def test_scoped_stats_prefixes_keys():
    stats = Stats()
    core = stats.scoped("core1")
    core.bump("loads", 3)
    core.observe("load_latency", 42)
    assert stats.get("core1.loads") == 3
    assert stats.histogram("core1.load_latency").mean == 42
    assert core.get("loads") == 3


def test_snapshot_merges_counters_and_histograms():
    stats = Stats()
    stats.bump("a", 2)
    stats.observe("b", 10)
    snap = stats.snapshot()
    assert snap["a"] == 2
    assert snap["b.mean"] == 10
    assert snap["b.count"] == 1


def test_geomean_known_value():
    assert geomean([1, 4]) == pytest.approx(2.0)
    assert geomean([2, 2, 2]) == pytest.approx(2.0)


def test_geomean_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([1.0, -2.0])


@given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
def test_geomean_bounded_by_min_and_max(values):
    g = geomean(values)
    assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)


@given(st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=30),
       st.floats(min_value=0.1, max_value=10))
def test_geomean_scales_linearly(values, k):
    scaled = geomean([v * k for v in values])
    assert scaled == pytest.approx(geomean(values) * k, rel=1e-6)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
def test_histogram_mean_matches_reference(values):
    hist = Histogram()
    for v in values:
        hist.add(v)
    assert hist.mean == pytest.approx(sum(values) / len(values))
    assert hist.min == min(values)
    assert hist.max == max(values)
    assert not math.isinf(hist.mean)
