"""Text and JSON exporters for metric snapshots and span lists.

The JSON schema is flat and diff-friendly::

    {
      "format": "repro.obs/1",
      "counters":   {"rdb.statements{kind=insert}": 12, ...},
      "gauges":     {"tiers.cache_entries": 8.0, ...},
      "histograms": {"tiers.request_seconds{op=roster}":
                        {"bounds": [...], "counts": [...],
                         "sum": 0.01, "count": 4,
                         "min": 0.001, "max": 0.004}, ...}
    }

``python -m repro.obs dump/diff`` round-trips through these helpers, so
snapshots written by one run (or one station) can be inspected, merged
and compared offline.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from repro.obs.metrics import (
    HistogramSnapshot,
    MetricsSnapshot,
    format_key,
    parse_key,
)
from repro.obs.trace import Span

__all__ = [
    "snapshot_to_json",
    "snapshot_from_json",
    "write_snapshot",
    "read_snapshot",
    "render_text",
    "render_diff",
    "spans_to_json",
    "spans_from_json",
]

FORMAT = "repro.obs/1"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------
def snapshot_to_json(snapshot: MetricsSnapshot) -> dict[str, Any]:
    """The ``repro.obs/1`` JSON document of a snapshot (keys sorted)."""
    return {
        "format": FORMAT,
        "counters": {
            format_key(k): v for k, v in sorted(snapshot.counters.items())
        },
        "gauges": {
            format_key(k): v for k, v in sorted(snapshot.gauges.items())
        },
        "histograms": {
            format_key(k): {
                "bounds": list(h.bounds),
                "counts": list(h.counts),
                "sum": h.sum,
                "count": h.count,
                "min": None if math.isinf(h.min) else h.min,
                "max": None if math.isinf(h.max) else h.max,
            }
            for k, h in sorted(snapshot.histograms.items())
        },
    }


def snapshot_from_json(data: dict[str, Any]) -> MetricsSnapshot:
    """Inverse of :func:`snapshot_to_json`; any other format is refused."""
    if data.get("format") != FORMAT:
        raise ValueError(
            f"not a {FORMAT} snapshot (format={data.get('format')!r})"
        )
    return MetricsSnapshot(
        counters={parse_key(k): v for k, v in data["counters"].items()},
        gauges={parse_key(k): v for k, v in data["gauges"].items()},
        histograms={
            parse_key(k): HistogramSnapshot(
                bounds=tuple(h["bounds"]),
                counts=tuple(h["counts"]),
                sum=h["sum"],
                count=h["count"],
                min=float("inf") if h["min"] is None else h["min"],
                max=float("-inf") if h["max"] is None else h["max"],
            )
            for k, h in data["histograms"].items()
        },
    )


def write_snapshot(path: str, snapshot: MetricsSnapshot) -> None:
    """Write a snapshot to ``path`` as indented, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot_to_json(snapshot), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_snapshot(path: str) -> MetricsSnapshot:
    """Load a snapshot written by :func:`write_snapshot`."""
    with open(path, encoding="utf-8") as fh:
        return snapshot_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------
def render_text(snapshot: MetricsSnapshot) -> str:
    """Aligned human-readable listing, grouped by metric kind."""
    lines: list[str] = []
    if snapshot.counters:
        lines.append("counters:")
        width = max(len(format_key(k)) for k in snapshot.counters)
        for key in sorted(snapshot.counters):
            lines.append(
                f"  {format_key(key).ljust(width)}  "
                f"{_num(snapshot.counters[key])}"
            )
    if snapshot.gauges:
        lines.append("gauges:")
        width = max(len(format_key(k)) for k in snapshot.gauges)
        for key in sorted(snapshot.gauges):
            lines.append(
                f"  {format_key(key).ljust(width)}  "
                f"{_num(snapshot.gauges[key])}"
            )
    if snapshot.histograms:
        lines.append("histograms:")
        width = max(len(format_key(k)) for k in snapshot.histograms)
        for key in sorted(snapshot.histograms):
            h = snapshot.histograms[key]
            summary = (
                f"count={h.count} sum={_num(h.sum)} mean={_num(h.mean)}"
            )
            if h.count:
                summary += f" min={_num(h.min)} max={_num(h.max)}"
            lines.append(f"  {format_key(key).ljust(width)}  {summary}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_diff(after: MetricsSnapshot, before: MetricsSnapshot) -> str:
    """Human-readable counter/histogram deltas between two snapshots."""
    delta = after.diff(before)
    if not delta.counters and not delta.histograms:
        return "(no change)"
    lines: list[str] = []
    for key in sorted(delta.counters):
        lines.append(f"  {format_key(key)}  {_signed(delta.counters[key])}")
    for key in sorted(delta.histograms):
        h = delta.histograms[key]
        lines.append(
            f"  {format_key(key)}  {h.count:+,} observations "
            f"({_signed(h.sum)}s)"
        )
    return "\n".join(lines)


def _num(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 1:
        return f"{value:,.3f}"
    return f"{value:.6f}"


def _signed(value: float) -> str:
    return ("+" if value >= 0 else "-") + _num(abs(value))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
def spans_to_json(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Spans as plain dicts, one per span, in the given order."""
    return [
        {
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "status": s.status,
            "attributes": dict(s.attributes),
        }
        for s in spans
    ]


def spans_from_json(data: Iterable[dict[str, Any]]) -> list[Span]:
    """Inverse of :func:`spans_to_json`."""
    return [
        Span(
            span_id=d["span_id"],
            parent_id=d["parent_id"],
            name=d["name"],
            start=d["start"],
            end=d["end"],
            status=d.get("status", "ok"),
            attributes=dict(d.get("attributes", {})),
        )
        for d in data
    ]
