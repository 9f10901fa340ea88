"""Counters, gauges and fixed-bucket histograms with label support.

The registry is the metric substrate every tier instruments into: the
relational engine counts statements and rows, the class administrator
times requests, the broadcast layer accounts bytes per lecture, the
failure detector counts its transitions.  Design constraints, in order:

* **cheap on the hot path** — a metric handle (`Counter`, `Gauge`,
  `Histogram`) is mutated with plain attribute arithmetic; code reaches
  it through a declared :class:`~repro.obs.instrument.Instrument`, which
  resolves each label set once per registry, so the steady-state cost
  is one dict hit and one add;
* **mergeable** — :meth:`MetricsRegistry.snapshot` produces an
  immutable :class:`MetricsSnapshot`; snapshots from different stations
  (or different runs) merge associatively and commutatively, which is
  what lets per-station registries roll up into a fleet view;
* **zero dependencies** — stdlib only, importable from any tier.

Histograms use fixed bucket bounds chosen at creation; two histograms
merge only when their bounds agree (enforced), so bucket counts are
never silently lost or re-binned.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "metric_key",
    "format_key",
    "parse_key",
]

#: Default latency buckets (seconds): sub-millisecond through 10s, the
#: spread between a hash probe and a full broadcast makespan.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: A metric identity: (name, sorted (label, value) pairs).
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def metric_key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    """Normalize a name + labels into the registry's dictionary key."""
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


#: Label text characters :func:`format_key` escapes with a backslash.
_ESCAPE = str.maketrans({c: "\\" + c for c in "\\,={}"})
_LABEL = re.compile(r"((?:[^\\=]|\\.)*)=((?:[^\\,]|\\.)*),?", re.S)
_ESCAPED = re.compile(r"\\(.)", re.S)


def format_key(key: MetricKey) -> str:
    """Render ``("a.b", (("x","1"),))`` as ``a.b{x=1}`` (JSON/export form).

    A ``\\``, ``,``, ``=``, ``{`` or ``}`` inside a label name or value
    is escaped with a backslash, so any label text reads back intact.
    """
    name, labels = key
    if not labels:
        return name
    inner = ",".join(
        f"{k.translate(_ESCAPE)}={v.translate(_ESCAPE)}" for k, v in labels
    )
    return f"{name}{{{inner}}}"


def parse_key(text: str) -> MetricKey:
    """Inverse of :func:`format_key`."""
    name, brace, rest = text.partition("{")
    if not brace:
        return (text, ())
    labels = (
        (_ESCAPED.sub(r"\1", k), _ESCAPED.sub(r"\1", v))
        for k, v in _LABEL.findall(rest[:-1])
    )
    return (name, tuple(sorted(labels)))


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative: counters are monotone)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount}")
        self.value += amount


class Gauge:
    """A point-in-time level (cache residency, stations alive)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A fixed-bucket distribution with sum/count/min/max.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything above the last bound, so no observation
    is ever dropped.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be sorted and unique")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """An immutable histogram state; merges bucket-by-bucket."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int
    min: float
    max: float

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """An immutable copy of a registry's state at one instant.

    Merging is associative and commutative: counters and histogram
    buckets add, gauges add (per-station levels roll up into fleet
    totals), min/max fold.  ``diff`` subtracts an earlier snapshot to
    isolate one phase of a run.
    """

    counters: Mapping[MetricKey, int | float]
    gauges: Mapping[MetricKey, float]
    histograms: Mapping[MetricKey, HistogramSnapshot]

    @staticmethod
    def empty() -> "MetricsSnapshot":
        return MetricsSnapshot(counters={}, gauges={}, histograms={})

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = gauges.get(key, 0.0) + value
        histograms = dict(self.histograms)
        for key, snap in other.histograms.items():
            mine = histograms.get(key)
            histograms[key] = snap if mine is None else mine.merge(snap)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counter/histogram deltas since ``earlier``; gauges stay as-is."""
        counters = {
            key: value - earlier.counters.get(key, 0)
            for key, value in self.counters.items()
            if value != earlier.counters.get(key, 0)
        }
        histograms: dict[MetricKey, HistogramSnapshot] = {}
        for key, snap in self.histograms.items():
            old = earlier.histograms.get(key)
            if old is None:
                histograms[key] = snap
            elif snap.count != old.count:
                histograms[key] = HistogramSnapshot(
                    bounds=snap.bounds,
                    counts=tuple(
                        a - b for a, b in zip(snap.counts, old.counts)
                    ),
                    sum=snap.sum - old.sum,
                    count=snap.count - old.count,
                    min=snap.min,
                    max=snap.max,
                )
        return MetricsSnapshot(
            counters=counters, gauges=dict(self.gauges), histograms=histograms
        )

    def counter_total(self, name: str) -> int | float:
        """Sum of one counter across all label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def names(self) -> set[str]:
        out = {name for name, _ in self.counters}
        out.update(name for name, _ in self.gauges)
        out.update(name for name, _ in self.histograms)
        return out

    def __iter__(self) -> Iterator[tuple[str, MetricKey, Any]]:
        """Yields ``(kind, key, value)`` for every metric, sorted."""
        for key in sorted(self.counters):
            yield ("counter", key, self.counters[key])
        for key in sorted(self.gauges):
            yield ("gauge", key, self.gauges[key])
        for key in sorted(self.histograms):
            yield ("histogram", key, self.histograms[key])


class MetricsRegistry:
    """Get-or-create home for every metric in one process/station.

    Handles live as long as the registry: an
    :class:`~repro.obs.instrument.Instrument` keeps the returned objects
    and drops them only when another registry *object* is installed — so
    a fresh registry, never an emptied one, is how one starts over.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- handles -----------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        handle = self._counters.get(key)
        if handle is None:
            handle = self._counters[key] = Counter()
        return handle

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        handle = self._gauges.get(key)
        if handle is None:
            handle = self._gauges[key] = Gauge()
        return handle

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        key = metric_key(name, labels)
        handle = self._histograms.get(key)
        if handle is None:
            handle = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return handle

    # -- introspection -----------------------------------------------------
    def names(self) -> set[str]:
        """Distinct metric names (without labels) currently registered."""
        out = {name for name, _ in self._counters}
        out.update(name for name, _ in self._gauges)
        out.update(name for name, _ in self._histograms)
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> MetricsSnapshot:
        """An immutable, mergeable copy of the current state."""
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: HistogramSnapshot(
                    bounds=h.bounds,
                    counts=tuple(h.counts),
                    sum=h.sum,
                    count=h.count,
                    min=h.min,
                    max=h.max,
                )
                for k, h in self._histograms.items()
            },
        )
