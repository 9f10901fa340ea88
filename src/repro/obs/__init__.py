"""repro.obs — the observability layer: metrics, tracing, profiling.

The paper's performance story (real-time BLOB delivery over the m-ary
tree, hierarchical locking, check-in/check-out through the class
administrator) can only be defended with end-to-end visibility into
where time and bytes go.  This package is the measurement substrate the
rest of the reproduction instruments into:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with labels and mergeable snapshots;
* :mod:`repro.obs.trace` — nested spans on an injectable clock
  (deterministic under :mod:`repro.net.sim` virtual time);
* :mod:`repro.obs.instrument` — the global switch (``REPRO_OBS=1`` or
  :func:`enable`; sites read ``OBS.enabled``), the audited
  :data:`INSTRUMENT_POINTS` catalogue and the declared ``Instrument``
  every site emits through;
* :mod:`repro.obs.export` — text/JSON exporters and snapshot diffs;
* :mod:`repro.obs.render` — the span→tree renderer for broadcast
  traces;
* ``python -m repro.obs`` — dump / diff / demo CLI.

Everything is dark by default: instrument points cost one boolean check
until :func:`enable` flips the switch (E16 quantifies both sides).
"""

from repro.obs.export import (
    read_snapshot,
    render_diff,
    render_text,
    snapshot_from_json,
    snapshot_to_json,
    spans_from_json,
    spans_to_json,
    write_snapshot,
)
from repro.obs.instrument import (
    ENV_VAR,
    INSTRUMENT_POINTS,
    OBS,
    disable,
    enable,
    enabled,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.render import render_span_tree
from repro.obs.trace import Span, Tracer

__all__ = [
    "ENV_VAR",
    "INSTRUMENT_POINTS",
    "OBS",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "read_snapshot",
    "render_diff",
    "render_span_tree",
    "render_text",
    "snapshot_from_json",
    "snapshot_to_json",
    "spans_from_json",
    "spans_to_json",
    "write_snapshot",
]
