"""Unit tests for counters, gauges, histograms and snapshots."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    format_key,
    metric_key,
    parse_key,
)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
def test_metric_key_sorts_and_stringifies_labels():
    assert metric_key("a.b", {"z": 1, "a": True}) == (
        "a.b", (("a", "True"), ("z", "1")),
    )


def test_format_parse_round_trip():
    key = metric_key("rdb.statements", {"kind": "insert", "table": "people"})
    assert parse_key(format_key(key)) == key
    assert parse_key("bare.name") == ("bare.name", ())
    assert format_key(("bare.name", ())) == "bare.name"


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------
def test_counter_is_monotone():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_gauge_set_and_add():
    gauge = MetricsRegistry().gauge("g")
    gauge.set(3)
    gauge.add(-1.5)
    assert gauge.value == 1.5


def test_registry_get_or_create_returns_same_handle():
    registry = MetricsRegistry()
    assert registry.counter("c", a=1) is registry.counter("c", a=1)
    assert registry.counter("c", a=1) is not registry.counter("c", a=2)
    assert registry.histogram("h") is registry.histogram("h")
    assert len(registry) == 3
    assert registry.names() == {"c", "h"}


def test_histogram_buckets_and_stats():
    h = Histogram(bounds=(0.1, 1.0))
    for value in (0.05, 0.1, 0.5, 2.0):
        h.observe(value)
    # bisect_left on inclusive upper edges: 0.05->b0, 0.1->b0, 0.5->b1,
    # 2.0 -> overflow.
    assert h.counts == [2, 1, 1]
    assert h.count == 4
    assert h.sum == pytest.approx(2.65)
    assert h.min == 0.05 and h.max == 2.0
    assert h.mean == pytest.approx(2.65 / 4)


def test_histogram_quantile_estimates_bucket_upper_bound():
    h = Histogram(bounds=(0.1, 1.0, 10.0))
    for _ in range(9):
        h.observe(0.05)
    h.observe(5.0)
    assert h.quantile(0.5) == 0.1
    assert h.quantile(1.0) == 10.0
    assert Histogram().quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 0.1))
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=())


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
def _registry_with_data() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("c", kind="x").inc(3)
    registry.gauge("g").set(2.0)
    registry.histogram("h").observe(0.02)
    return registry


def test_snapshot_is_immutable_copy():
    registry = _registry_with_data()
    snap = registry.snapshot()
    registry.counter("c", kind="x").inc(10)
    assert snap.counters[metric_key("c", {"kind": "x"})] == 3
    with pytest.raises(AttributeError):
        snap.counters = {}  # type: ignore[misc]


def test_snapshot_merge_adds_all_kinds():
    a = _registry_with_data().snapshot()
    b = _registry_with_data().snapshot()
    merged = a.merge(b)
    assert merged.counter_total("c") == 6
    assert merged.gauges[metric_key("g", {})] == 4.0
    assert merged.histograms[metric_key("h", {})].count == 2


def test_snapshot_merge_rejects_mismatched_histogram_bounds():
    a = MetricsRegistry()
    a.histogram("h", buckets=(1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.histogram("h", buckets=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        a.snapshot().merge(b.snapshot())


def test_snapshot_diff_isolates_a_phase():
    registry = _registry_with_data()
    before = registry.snapshot()
    registry.counter("c", kind="x").inc(7)
    registry.histogram("h").observe(0.04)
    delta = registry.snapshot().diff(before)
    assert delta.counters == {metric_key("c", {"kind": "x"}): 7}
    assert delta.histograms[metric_key("h", {})].count == 1
    assert delta.histograms[metric_key("h", {})].sum == pytest.approx(0.04)


def test_snapshot_iter_yields_kind_key_value_sorted():
    kinds = [kind for kind, _, _ in _registry_with_data().snapshot()]
    assert kinds == ["counter", "gauge", "histogram"]


def test_empty_snapshot_and_default_buckets():
    empty = MetricsSnapshot.empty()
    assert empty.names() == set()
    assert empty.counter_total("anything") == 0
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

