"""Hypothesis properties: snapshot algebra, metric-key text and span
well-nesting."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    format_key,
    metric_key,
    parse_key,
)
from repro.obs.trace import Tracer

BOUNDS = (0.001, 0.01, 0.1, 1.0)

observations = st.lists(
    st.floats(min_value=0.0, max_value=5.0,
              allow_nan=False, allow_infinity=False),
    max_size=30,
)
amounts = st.lists(st.integers(min_value=0, max_value=1000), max_size=30)


def _snapshot(values: list[float], incs: list[int]) -> MetricsSnapshot:
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=BOUNDS)
    for value in values:
        histogram.observe(value)
    counter = registry.counter("c", kind="x")
    for amount in incs:
        counter.inc(amount)
    registry.gauge("g").add(float(len(values)))
    return registry.snapshot()


def _equal(a: MetricsSnapshot, b: MetricsSnapshot) -> bool:
    """Structural equality; float accumulations compare to tolerance.

    Counter values and bucket counts are integers (exact); histogram
    and gauge sums are float folds, associative only up to rounding.
    """
    if dict(a.counters) != dict(b.counters):
        return False
    if set(a.gauges) != set(b.gauges) or set(a.histograms) != set(b.histograms):
        return False
    if any(abs(a.gauges[k] - b.gauges[k]) > 1e-9 for k in a.gauges):
        return False
    for key, mine in a.histograms.items():
        theirs = b.histograms[key]
        if (mine.bounds, mine.counts, mine.count) != (
            theirs.bounds, theirs.counts, theirs.count
        ):
            return False
        if (mine.min, mine.max) != (theirs.min, theirs.max):
            return False
        if abs(mine.sum - theirs.sum) > 1e-9:
            return False
    return True


@given(observations, observations, observations, amounts, amounts, amounts)
@settings(max_examples=60, deadline=None)
def test_snapshot_merge_is_associative_and_commutative(v1, v2, v3, c1, c2, c3):
    a, b, c = _snapshot(v1, c1), _snapshot(v2, c2), _snapshot(v3, c3)
    assert _equal(a.merge(b), b.merge(a))
    assert _equal(a.merge(b).merge(c), a.merge(b.merge(c)))


@given(observations, observations)
@settings(max_examples=60, deadline=None)
def test_histogram_merge_loses_no_bucket_counts(v1, v2):
    merged = _snapshot(v1, []).merge(_snapshot(v2, []))
    h = merged.histograms[metric_key("h", {})]
    assert sum(h.counts) == h.count == len(v1) + len(v2)
    if v1 or v2:
        assert h.min == min(v1 + v2)
        assert h.max == max(v1 + v2)
        assert abs(h.sum - sum(v1 + v2)) < 1e-9
    # The identity element really is an identity.
    assert _equal(merged.merge(MetricsSnapshot.empty()), merged)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.booleans()),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_counter_snapshot_sequence_is_monotone(steps):
    """Snapshots taken at arbitrary points never see a counter decrease."""
    registry = MetricsRegistry()
    counter = registry.counter("c")
    key = metric_key("c", {})
    seen = []
    for amount, take_snapshot in steps:
        counter.inc(amount)
        if take_snapshot:
            seen.append(registry.snapshot().counters[key])
    assert all(a <= b for a, b in zip(seen, seen[1:]))
    assert registry.snapshot().counters[key] == sum(a for a, _ in steps)


@given(st.dictionaries(st.text(), st.text(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_metric_key_text_round_trips_any_label_text(labels):
    """``dump`` -> ``diff`` reads back exactly the keys a run wrote, even
    when a label holds the separators of the text form."""
    key = metric_key("m", labels)
    assert parse_key(format_key(key)) == key


@given(st.dictionaries(
    st.from_regex(r"[a-z_]+", fullmatch=True),
    st.from_regex(r"[a-z0-9_.:-]*", fullmatch=True),
    max_size=3,
))
@settings(max_examples=60, deadline=None)
def test_ordinary_keys_encode_as_before(labels):
    """Escaping touches only the separators: ordinary keys keep their text."""
    key = metric_key("m", labels)
    plain = ",".join(f"{k}={v}" for k, v in key[1])
    assert format_key(key) == (f"m{{{plain}}}" if labels else "m")


@given(st.lists(st.booleans(), max_size=60))
@settings(max_examples=80, deadline=None)
def test_context_spans_are_well_nested_from_any_interleaving(actions):
    """Any push/pop interleaving yields a well-nested span forest."""
    clock_value = [0.0]

    def clock() -> float:
        clock_value[0] += 1.0
        return clock_value[0]

    tracer = Tracer(clock=clock)
    open_contexts = []
    for push in actions:
        if push and len(open_contexts) < 8:
            context = tracer.span(f"op{len(tracer)}")
            context.__enter__()
            open_contexts.append(context)
        elif open_contexts:
            open_contexts.pop().__exit__(None, None, None)
    while open_contexts:
        open_contexts.pop().__exit__(None, None, None)

    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        assert span.end is not None
        assert span.start < span.end
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            # Child interval strictly inside the parent interval.
            assert parent.start < span.start
            assert span.end < parent.end
    # Siblings never overlap (the stack discipline serializes them).
    for span in spans:
        siblings = [
            s for s in spans
            if s.parent_id == span.parent_id and s.span_id != span.span_id
        ]
        for other in siblings:
            assert other.end <= span.start or span.end <= other.start
