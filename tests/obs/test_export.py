"""Exporters and the ``python -m repro.obs`` CLI."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    read_snapshot,
    render_diff,
    render_span_tree,
    render_text,
    snapshot_from_json,
    snapshot_to_json,
    spans_from_json,
    spans_to_json,
    write_snapshot,
)
from repro.obs.__main__ import main
from repro.obs.export import FORMAT


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("rdb.statements", kind="insert").inc(12)
    registry.gauge("g").set(8.0)
    registry.histogram("tiers.request_seconds", op="roster").observe(0.004)
    registry.histogram("empty.hist")
    return registry.snapshot()


def test_json_round_trip_preserves_everything():
    snap = _snapshot()
    data = snapshot_to_json(snap)
    assert data["format"] == FORMAT
    back = snapshot_from_json(data)
    assert back.counters == dict(snap.counters)
    assert back.gauges == dict(snap.gauges)
    assert back.histograms == dict(snap.histograms)


def test_empty_histogram_min_max_serialize_as_null():
    data = snapshot_to_json(_snapshot())
    empty = data["histograms"]["empty.hist"]
    assert empty["min"] is None and empty["max"] is None
    back = snapshot_from_json(data)
    assert back.histograms[("empty.hist", ())].min == float("inf")


def test_snapshot_from_json_rejects_foreign_format():
    with pytest.raises(ValueError):
        snapshot_from_json({"format": "something/else"})


def test_write_read_snapshot_files(tmp_path):
    path = tmp_path / "snap.json"
    snap = _snapshot()
    write_snapshot(str(path), snap)
    assert read_snapshot(str(path)).counters == dict(snap.counters)


def test_render_text_lists_all_kinds():
    text = render_text(_snapshot())
    assert "counters:" in text and "gauges:" in text
    assert "rdb.statements{kind=insert}" in text
    assert "12" in text
    assert render_text(MetricsRegistry().snapshot()) == "(no metrics recorded)"


def test_render_diff_shows_deltas_only():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc(2)
    before = registry.snapshot()
    assert render_diff(before, before) == "(no change)"
    counter.inc(3)
    registry.histogram("h").observe(1.0)
    diff = render_diff(registry.snapshot(), before)
    assert "c  +3" in diff
    assert "+1 observations" in diff
    # Reversed order: deltas are negative, rendered with a single sign.
    reverse = render_diff(before, registry.snapshot())
    assert "c  -3" in reverse
    assert "+-" not in reverse


def test_spans_round_trip():
    tracer = Tracer(clock=lambda: 0.0)
    root = tracer.start_span("root", start=0.0)
    tracer.start_span("child", parent=root, start=1.0, station="s2")
    tracer.end_span(root, end=2.0)
    back = spans_from_json(spans_to_json(tracer.spans()))
    assert [s.name for s in back] == ["root", "child"]
    assert back[1].parent_id == root.span_id
    assert back[1].attributes == {"station": "s2"}
    assert back[1].end is None  # still open survives the round trip


def test_render_span_tree_indents_children():
    tracer = Tracer(clock=lambda: 0.0)
    root = tracer.start_span("broadcast", start=0.0)
    hop = tracer.start_span("hop:s2", parent=root, start=1.0, station="s2")
    tracer.end_span(hop, end=2.0)
    tracer.end_span(root, end=3.0)
    text = render_span_tree(tracer.spans())
    lines = text.splitlines()
    assert lines[0].startswith("broadcast")
    assert lines[1].startswith("|- hop:s2")
    assert "station=s2" in lines[1]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_demo_dump_diff_points(tmp_path, capsys):
    snap_path = tmp_path / "demo.json"
    assert main(["demo", "--stations", "4", "--m", "2",
                 "--json", str(snap_path)]) == 0
    out = capsys.readouterr().out
    assert "== metrics ==" in out and "== broadcast span tree ==" in out
    assert snap_path.exists()

    assert main(["dump", str(snap_path)]) == 0
    assert "broadcast.bytes_sent" in capsys.readouterr().out

    empty = tmp_path / "empty.json"
    write_snapshot(str(empty), MetricsRegistry().snapshot())
    assert main(["diff", str(empty), str(snap_path)]) == 0
    assert "+" in capsys.readouterr().out

    assert main(["points"]) == 0
    out = capsys.readouterr().out
    assert "rdb.statements" in out and "fault.repairs" in out


def test_cli_demo_leaves_instrumentation_disabled(capsys):
    from repro.obs import OBS

    assert main(["demo", "--stations", "3", "--m", "2"]) == 0
    capsys.readouterr()
    assert not OBS.enabled
