"""Read routing over a replicated middle tier.

A :class:`ReplicaSet` fronts one primary class administrator and any
number of read replicas — followers whose administration database is
kept current by WAL shipping (:mod:`repro.replication`).  Requests are
routed by operation:

* ops in :data:`~repro.tiers.protocol.REPLICA_SAFE_OPS` (library
  search, transcripts, rosters) round-robin across **caught-up**
  replicas, scaling read throughput with replica count;
* every write — and every op touching primary-only state such as
  circulation loans — goes to the primary;
* ``login``/``logout`` execute on the primary (admission checks live
  there) and the resulting session is mirrored onto every replica via
  :meth:`~repro.tiers.server.ClassAdministrator.install_session`, so a
  replica can authorize the reads it serves.

This module deliberately does not import :mod:`repro.replication`:
replicas are registered with a duck-typed *readiness* callable (for a
replication follower, ``lambda: recoverer.caught_up``), keeping the
tier usable with any freshness source — or none, for tests.  The
convenience glue for wiring an actual follower lives in
:func:`catalog_refresher` plus :meth:`ReplicaSet.add_follower`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.instrument import OBS, Instrument
from repro.tiers.protocol import REPLICA_SAFE_OPS, Request, Response, Role
from repro.tiers.server import ClassAdministrator

__all__ = ["ReplicaSet", "catalog_refresher"]

READS = Instrument("counter", "replica.reads", "target")
FALLBACKS = Instrument("counter", "replica.fallback", "target")


def catalog_refresher(admin: ClassAdministrator) -> Callable[[Any], None]:
    """An ``on_apply`` callback that keeps a replica's library fresh.

    Rebuilds the derived search index whenever a replicated frame
    touches the durable catalog table; cheap no-op otherwise.  The
    frame is duck-typed (``.ops`` as replay op lists) so this composes
    with :class:`repro.replication.recoverer.Recoverer` without an
    import cycle.
    """

    def on_apply(frame: Any) -> None:
        ops = getattr(frame, "ops", None) or []
        if any(op[1] == "catalog_docs" for op in ops):
            admin.refresh_catalog()

    return on_apply


class _Replica:
    """One registered replica and its freshness source."""

    def __init__(
        self,
        name: str,
        admin: ClassAdministrator,
        ready: Callable[[], bool] | None,
        lag: Callable[[], int] | None = None,
    ) -> None:
        self.name = name
        self.admin = admin
        self.ready = ready if ready is not None else (lambda: True)
        #: replication records behind the primary (None = unknown, so
        #: the replica is ineligible for bounded-staleness routing)
        self.lag = lag
        self.requests_served = 0


class ReplicaSet:
    """Route one request stream across a primary and its read replicas.

    ``max_staleness_records`` bounds graceful degradation: while the
    primary's admission controller is shedding, reads may route to a
    **lagged** replica — but only one whose known replication lag is
    within this many records, and the reply is marked
    ``degraded="lagged-replica"`` so the client sees the trade.
    """

    def __init__(
        self,
        primary: ClassAdministrator,
        *,
        max_staleness_records: int = 64,
    ) -> None:
        self.primary = primary
        self.max_staleness_records = max_staleness_records
        self.replicas: list[_Replica] = []
        self._rr = 0
        self.reads_primary = 0
        self.reads_replica = 0
        self.reads_lagged = 0
        self.fallbacks = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_replica(
        self,
        name: str,
        admin: ClassAdministrator,
        *,
        ready: Callable[[], bool] | None = None,
        lag: Callable[[], int] | None = None,
    ) -> None:
        """Register a read replica; ``ready`` gates routing (caught-up).

        ``lag`` reports replication records behind the primary and
        makes the replica eligible for bounded-staleness degraded
        routing.  Sessions the primary already issued are mirrored
        immediately so the new replica can serve existing users.
        """
        admin.read_only = True
        for session_id, (user, role) in self.primary.sessions().items():
            admin.install_session(session_id, user, role)
        self.replicas.append(_Replica(name, admin, ready, lag))

    def add_follower(self, name: str, admin: ClassAdministrator,
                     recoverer: Any) -> None:
        """Wire a replication follower as a read replica.

        ``recoverer`` is duck-typed (:class:`repro.replication.recoverer
        .Recoverer`-shaped): its database is adopted read-only, its
        rebuild/apply hooks keep the adoption and the library view
        fresh, and its ``caught_up`` flag gates routing.  Call before
        ``recoverer.start()`` so the first rebuild is observed too.
        """
        recoverer.on_rebuild = admin.adopt_database
        recoverer.on_apply = catalog_refresher(admin)
        if getattr(recoverer, "db", None) is not None:
            admin.adopt_database(recoverer.db)
        self.add_replica(
            name,
            admin,
            ready=lambda: recoverer.caught_up,
            lag=lambda: max(
                0, recoverer.primary_lsn_seen - recoverer.applied_lsn
            ),
        )

    def remove_replica(self, name: str) -> bool:
        """Drop a replica (promotion, decommission); False if unknown."""
        before = len(self.replicas)
        self.replicas = [r for r in self.replicas if r.name != name]
        return len(self.replicas) < before

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(self) -> _Replica | None:
        """Next caught-up replica, round-robin; None when all lag."""
        if not self.replicas:
            return None
        for step in range(len(self.replicas)):
            replica = self.replicas[(self._rr + step) % len(self.replicas)]
            if replica.ready():
                self._rr = (self._rr + step + 1) % len(self.replicas)
                return replica
        return None

    def handle(self, request: Request) -> Response:
        """Authorize-and-execute with replica-aware routing."""
        if request.op == "login":
            response = self.primary.handle(request)
            if response.ok:
                user = request.params.get("user", "")
                role = Role(request.params["role"])
                session_id = response.data["session_id"]
                for replica in self.replicas:
                    replica.admin.install_session(session_id, user, role)
            return response
        if request.op == "logout":
            response = self.primary.handle(request)
            if response.ok and request.session_id:
                for replica in self.replicas:
                    replica.admin.drop_session(request.session_id)
            return response
        if request.op in REPLICA_SAFE_OPS:
            return self._route_read(request)
        self.writes += 1
        return self.primary.handle(request)

    def _route_read(self, request: Request) -> Response:
        """Caught-up replica, else (primary shedding) a lagged replica
        within the staleness bound, else the primary — never silently:
        the all-lagged fallback is counted on ``replica.fallback``."""
        replica = self._pick()
        if replica is not None:
            replica.requests_served += 1
            self.reads_replica += 1
            self._count_read("replica")
            return replica.admin.handle(request)
        if self.replicas and self._primary_shedding():
            lagged = self._pick_lagged()
            if lagged is not None:
                lagged.requests_served += 1
                self.reads_lagged += 1
                self._count_read("lagged")
                self._count_fallback("lagged-replica")
                response = lagged.admin.handle(request)
                if response.ok and response.degraded is None:
                    response = response._replace(degraded="lagged-replica")
                return response
        if self.replicas:
            # All replicas lagged and no degraded route: the primary
            # absorbs the read rather than the caller seeing an error.
            self.fallbacks += 1
            self._count_fallback("primary")
        self.reads_primary += 1
        self._count_read("primary")
        return self.primary.handle(request)

    def _primary_shedding(self) -> bool:
        admission = getattr(self.primary, "admission", None)
        return admission is not None and admission.overloaded()

    def _pick_lagged(self) -> _Replica | None:
        """The least-lagged replica within ``max_staleness_records``
        whose lag is *known*; None when no replica qualifies."""
        best: _Replica | None = None
        best_lag = self.max_staleness_records + 1
        for replica in self.replicas:
            if replica.lag is None:
                continue
            lag = replica.lag()
            if lag <= self.max_staleness_records and lag < best_lag:
                best, best_lag = replica, lag
        return best

    def _count_read(self, target: str) -> None:
        if OBS.enabled:
            READS[target].inc()

    def _count_fallback(self, target: str) -> None:
        if OBS.enabled:
            FALLBACKS[target].inc()

    # ------------------------------------------------------------------
    def promote_replica(self, name: str) -> ClassAdministrator:
        """Make replica ``name`` the set's primary (tier-level half of a
        failover; the WAL-level half is :meth:`repro.distribution.syncdb
        .MetadataReplicator.promote`).  Sessions carry over — they were
        mirrored on login."""
        for replica in list(self.replicas):
            if replica.name == name:
                replica.admin.read_only = False
                self.primary = replica.admin
                self.remove_replica(name)
                return replica.admin
        raise LookupError(f"no replica named {name!r}")

    def stats(self) -> dict[str, Any]:
        """Routing counters plus per-replica service counts."""
        return {
            "reads_replica": self.reads_replica,
            "reads_primary": self.reads_primary,
            "reads_lagged": self.reads_lagged,
            "fallbacks": self.fallbacks,
            "writes": self.writes,
            "replicas": {
                r.name: {
                    "served": r.requests_served,
                    "ready": r.ready(),
                }
                for r in self.replicas
            },
        }

