"""The global observability switch and the instrument-point catalogue.

Hot paths across the reproduction are pre-instrumented but **dark by
default**: every instrument point is guarded by a single attribute read
(``OBS.enabled``), so a disabled build pays one boolean check and
nothing else — no handle lookups, no clock reads, no allocations.

Enabling (programmatically via :func:`enable`, or process-wide with
``REPRO_OBS=1``) installs a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.trace.Tracer` behind that flag.  The tracer's
clock (and the clock used for metric latency timings) is injectable, so
components running on :mod:`repro.net.sim` virtual time produce
deterministic traces.

:data:`INSTRUMENT_POINTS` is the audited catalogue of every metric name
the subsystems emit; an :class:`Instrument` — the one way code emits a
metric — refuses a name outside it at import, so a typo'd name cannot
split a series silently.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "ENV_VAR",
    "INSTRUMENT_POINTS",
    "OBS",
    "Instrument",
    "enable",
    "disable",
    "enabled",
    "family",
]

ENV_VAR = "REPRO_OBS"

#: Every metric name an instrumented subsystem may emit, with its home.
#: Keep sorted; tests fail on names outside this catalogue.
INSTRUMENT_POINTS: dict[str, str] = {
    # rdb.engine / rdb.query — the relational substrate
    "rdb.batches": "row batches pulled by the vectorized executor",
    "rdb.compile": "compiled WHERE filters by outcome (hit = shape reused)",
    "rdb.plan": "access-path choices by table and path kind",
    "rdb.rows_returned": "rows a select handed back, by table",
    "rdb.rows_scanned": "candidate rows examined by the access path",
    "rdb.statement_seconds": "latency of one DML statement (autocommit unit)",
    "rdb.statements": "DML/select statements by kind",
    "rdb.txn_seconds": "explicit transaction open→commit/rollback latency",
    # rdb.wal — journal durability and crash recovery
    "wal.records_recovered": "journal records replayed during recovery",
    "wal.torn_tails": "torn journal tails tolerated (crash mid-append)",
    "wal.checksum_failures": "corrupt journal records skipped in salvage",
    "wal.sync_batches": "fsync batches flushed, by sync policy",
    "wal.checkpoint_seconds": "snapshot + journal checkpoint latency",
    # tiers.server / tiers.cache — the class administrator
    "tiers.cache": "result-cache outcomes (hit/miss/bypass)",
    "tiers.request_seconds": "request latency by operation",
    "tiers.requests": "requests by operation and status",
    # library.search — the browsing interface's ranked retrieval
    "library.searches": "search calls answered by the index",
    "library.search.candidates": "documents matching the query axes",
    "library.search.returned": "hits handed back after ranking and limit",
    # net.transport — bytes on the wire
    "net.bytes": "payload bytes accepted onto links",
    "net.messages": "messages sent (including dropped)",
    "net.dropped": "messages lost to crashes, partitions or loss",
    "net.expired": "messages discarded because their deadline passed",
    # distribution.broadcast — the m-ary tree
    "broadcast.bytes_sent": "lecture bytes pushed down tree edges",
    "broadcast.chunks_sent": "lecture chunks pushed down tree edges",
    "broadcast.bytes_redelivered": "redundant bytes re-sent by healing",
    "broadcast.stations_completed": "stations that hold the full lecture",
    # core.locking — the compatibility table
    "lock.acquired": "granted lock requests",
    "lock.conflicts": "denied lock requests (compatibility conflicts)",
    "lock.released": "explicit releases",
    "lock.upgrades": "READ→WRITE upgrades",
    "lock.acquire_seconds": "time spent inside acquire (grant or deny)",
    # fault.* — detection, repair, redelivery
    "fault.detector_events": "suspect/confirm/recover transitions",
    "fault.redeliveries": "healing passes that re-sent chunks",
    "fault.chunks_redelivered": "chunks re-sent by the redelivery service",
    "fault.repairs": "tree repairs after confirmed failures",
    "fault.rejoins": "crashed stations brought back into membership",
    # replication.* — WAL shipping, recovery staging, failover
    "replication.frames_shipped": "WAL frames streamed to followers",
    "replication.bytes_shipped": "journal bytes streamed to followers",
    "replication.snapshot_chunks": "snapshot chunks served to syncing followers",
    "replication.resyncs": "followers resynced via full snapshot",
    "replication.stage_transitions": "follower recovery-stage entries, by stage",
    "replication.promotions": "failover promotions to primary",
    # replica.* — follower progress and replica-tier reads
    "replica.applied_lsn": "last LSN a follower durably applied (gauge)",
    "replica.lag_records": "primary-to-follower LSN lag at status time",
    "replica.reads": "read requests served, by target (primary/replica)",
    "replica.fallback": "all-replicas-lagged fallbacks, by target taken",
    # admission.* — overload defense at the middle tier
    "admission.admitted": "requests past the admission gates, by priority",
    "admission.shed": "requests refused before work, by reason",
    "admission.queue_depth": "admitted requests in flight (gauge)",
    "admission.deadline_expired": "requests cancelled past deadline, by site",
    "admission.stale_served": "degraded stale-cache replies while shedding",
    # breaker.* — per-endpoint circuit breakers
    "breaker.transitions": "breaker state changes, by endpoint and state",
    "breaker.rejected": "calls refused by an open breaker, by endpoint",
    # shard.* — horizontal sharding and two-phase commit
    "shard.statements": "statements routed by the shard tier, by route",
    "shard.fanout": "shards touched per scatter-gather read",
    "shard.2pc": "cross-shard transaction outcomes (commit/abort)",
    "shard.2pc_seconds": "two-phase commit latency, by outcome",
    "shard.in_doubt": "in-doubt transactions awaiting resolution (gauge)",
}


#: every instrument declared so far, in declaration order
_INSTRUMENTS: list[Instrument] = []


class _ObsState:
    """The process-wide switch; mutated only by enable()/disable()."""

    __slots__ = ("enabled", "_registry", "tracer", "clock")

    def __init__(self) -> None:
        self.enabled = False
        self._registry: MetricsRegistry | None = None
        self.tracer: Tracer | None = None
        self.clock: Callable[[], float] = time.perf_counter

    @property
    def registry(self) -> MetricsRegistry | None:
        return self._registry

    @registry.setter
    def registry(self, registry: MetricsRegistry | None) -> None:
        """Installing another registry object drops every memoised handle."""
        if registry is not self._registry:
            self._registry = registry
            for instrument in _INSTRUMENTS:
                instrument.clear()


OBS = _ObsState()


class Instrument(dict):
    """One declared metric, and the memo of its handles.

    Declared at import with its label names, and indexed behind the
    site's ``if OBS.enabled:`` with the label values::

        STATEMENTS = Instrument("counter", "rdb.statements", "kind")
        PLANS = Instrument("counter", "rdb.plan", "table", "path")
        MESSAGES = Instrument("counter", "net.messages")
        STATEMENTS["insert"].inc(); PLANS[table, path].inc()
        MESSAGES[()].inc()

    An item is the active registry's handle: resolved on first use and
    dropped when another registry object is installed, so a hit is one
    C-level dict lookup.  The first use against a registry also creates
    the ``values`` series (the one series of an unlabelled instrument)
    of every member of its :func:`family`, so a dump lists a subsystem's
    zero counts from its first event on.
    """

    __slots__ = ("kind", "name", "labels", "series", "family")

    def __init__(
        self, kind: str, name: str, *labels: str, values: tuple = ()
    ) -> None:
        super().__init__()
        if name not in INSTRUMENT_POINTS:
            raise ValueError(f"metric {name!r} is not in INSTRUMENT_POINTS")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.name = name
        self.labels = labels
        self.series = values if labels else ((),)
        self.family: tuple[Instrument, ...] = (self,)
        _INSTRUMENTS.append(self)

    def __missing__(self, key: Any) -> Any:
        if not self:  # the first use since the registry changed
            for member in self.family:
                for declared in member.series:
                    member._resolve(declared)
        return self._resolve(key)

    def _resolve(self, key: Any) -> Any:
        values = (key,) if len(self.labels) == 1 else key
        handle = self[key] = getattr(OBS.registry, self.kind)(
            self.name, **dict(zip(self.labels, values, strict=True))
        )
        return handle


def family(*instruments: Instrument) -> None:
    """Declare ``instruments`` together: the first use of any of them
    against a registry creates the declared series of all of them."""
    for instrument in instruments:
        instrument.family = instruments


def enable(
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    clock: Callable[[], float] | None = None,
) -> tuple[MetricsRegistry, Tracer]:
    """Turn instrumentation on; returns the active (registry, tracer).

    Arguments left as None keep whatever is already installed (so a
    test can bind a simulated-time tracer without discarding the metric
    registry another fixture installed), creating fresh defaults when
    nothing is.  ``clock`` feeds metric latency timings; the tracer
    keeps its own clock.
    """
    if registry is not None:
        OBS.registry = registry
    elif OBS.registry is None:
        OBS.registry = MetricsRegistry()
    if tracer is not None:
        OBS.tracer = tracer
    elif OBS.tracer is None:
        OBS.tracer = Tracer()
    if clock is not None:
        OBS.clock = clock
    OBS.enabled = True
    return OBS.registry, OBS.tracer


def disable() -> None:
    """Turn instrumentation off and drop the installed registry/tracer.

    Already-captured snapshots and span lists stay valid (callers hold
    their own references); instrumented code reverts to the single
    boolean check.
    """
    OBS.enabled = False
    OBS.registry = None
    OBS.tracer = None
    OBS.clock = time.perf_counter


@contextlib.contextmanager
def enabled(
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    clock: Callable[[], float] | None = None,
) -> Iterator[tuple[MetricsRegistry, Tracer]]:
    """``with obs.enabled() as (registry, tracer):`` — scoped switch-on.

    Restores the previous state (including a previously-enabled
    registry/tracer pair) on exit, so nesting is safe.
    """
    previous = (OBS.enabled, OBS.registry, OBS.tracer, OBS.clock)
    try:
        yield enable(registry=registry, tracer=tracer, clock=clock)
    finally:
        OBS.enabled, OBS.registry, OBS.tracer, OBS.clock = previous


if os.environ.get(ENV_VAR, "").strip().lower() in {"1", "on", "true"}:
    enable()
