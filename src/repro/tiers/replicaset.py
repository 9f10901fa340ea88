"""Read routing over a replicated middle tier.

A :class:`ReplicaSet` fronts one primary class administrator and the
members of its :class:`~repro.distribution.syncdb.MetadataReplicator`,
the replication tree whose master engine is the primary's
administration database.  Requests are routed by operation:

* ops in :data:`~repro.tiers.protocol.REPLICA_SAFE_OPS` (library
  search, transcripts, rosters) round-robin across **fresh** members —
  station up, :meth:`~repro.distribution.syncdb.MetadataReplicator
  .divergence` 0, caught up since it last subscribed (DESIGN §11.5) —
  scaling read throughput with member count;
* every write — and every op touching primary-only state such as
  circulation loans — goes to the primary, and once the primary acks
  it the set flushes the replicator, so the commit heads down the tree
  from the request loop;
* ``login``/``logout`` execute on the primary (admission checks live
  there) and the resulting session is mirrored onto every member's
  administrator via
  :meth:`~repro.tiers.server.ClassAdministrator.install_session`, so a
  member can authorize the reads it serves.

A member is served through one read-only administrator the set builds
on first use.  At routing time the set re-adopts the member's engine
when a snapshot install or a restart replaced it, and rebuilds the
library view when ``catalog_docs`` moved, so the replicator's hooks
stay its own.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.obs.instrument import OBS, Instrument
from repro.tiers.protocol import REPLICA_SAFE_OPS, Request, Response, Role
from repro.tiers.server import ClassAdministrator

if TYPE_CHECKING:
    from repro.distribution.syncdb import FailoverReport, MetadataReplicator

__all__ = ["ReplicaSet"]

READS = Instrument("counter", "replica.reads", "target")
FALLBACKS = Instrument("counter", "replica.fallback", "target")


class ReplicaSet:
    """Route one request stream across a primary and its tree members.

    ``max_staleness_records`` bounds graceful degradation: while the
    primary's admission controller is shedding, reads may route to a
    **lagged** member — one whose divergence is within this many
    records — and the reply is marked ``degraded="lagged-replica"`` so
    the client sees the trade.  A member on a down station is neither
    fresh nor lagged.
    """

    def __init__(
        self,
        primary: ClassAdministrator,
        replicator: MetadataReplicator,
        *,
        max_staleness_records: int = 64,
    ) -> None:
        if replicator.master is not primary.admin_db:
            raise ValueError(
                "the replicator's master is not the primary's "
                "administration database"
            )
        self.primary = primary
        self.replicator = replicator
        self.max_staleness_records = max_staleness_records
        #: member station -> its read-only administrator (first use)
        self._admins: dict[str, ClassAdministrator] = {}
        #: member station -> ``catalog_docs`` version its library reflects
        self._catalog_at: dict[str, int] = {}
        self._served: Counter[str] = Counter()
        self._rr = 0
        self.reads_primary = 0
        self.reads_replica = 0
        self.reads_lagged = 0
        self.fallbacks = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Members
    # ------------------------------------------------------------------
    def member(self, name: str) -> ClassAdministrator:
        """Member ``name``'s read-only administrator, serving the engine
        the member has now, its library view current."""
        db = self.replicator.members[name].db
        admin = self._admins.get(name)
        if admin is None:
            admin = self._admins[name] = self._mirror(ClassAdministrator())
        catalog = db.table("catalog_docs").version
        if admin.admin_db is not db:
            admin.adopt_database(db)
        elif self._catalog_at[name] != catalog:
            admin.refresh_catalog()
        self._catalog_at[name] = catalog
        return admin

    def _mirror(self, admin: ClassAdministrator) -> ClassAdministrator:
        for session_id, (user, role) in self.primary.sessions().items():
            admin.install_session(session_id, user, role)
        return admin

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Authorize-and-execute with member-aware routing."""
        if request.op == "login":
            response = self.primary.handle(request)
            if response.ok:
                user = request.params.get("user", "")
                role = Role(request.params["role"])
                session_id = response.data["session_id"]
                for admin in self._admins.values():
                    admin.install_session(session_id, user, role)
            return response
        if request.op == "logout":
            response = self.primary.handle(request)
            if response.ok and request.session_id:
                for admin in self._admins.values():
                    admin.drop_session(request.session_id)
            return response
        _name, admin, degraded = self.route(request.op)
        response = admin.handle(request)
        if admin is self.primary:
            if response.ok and request.op not in REPLICA_SAFE_OPS:
                self.replicator.flush()
        elif degraded and response.ok and response.degraded is None:
            response = response._replace(degraded=degraded)
        return response

    def route(self, op: str) -> tuple[str, ClassAdministrator, str | None]:
        """Where a request for ``op`` goes: the station, the
        administrator serving it there, and the degraded mark its reply
        carries (None when fresh).

        A replica-safe read goes to the next fresh member, round-robin;
        else, while the primary sheds, to the least-lagged member within
        the staleness bound; else to the primary — never silently: the
        all-lagged fallback is counted on ``replica.fallback``."""
        primary = self.replicator.tree.name_of(1)
        if op not in REPLICA_SAFE_OPS:
            self.writes += 1
            return primary, self.primary, None
        members = self.replicator.members
        names = list(members)
        lags = {
            name: self.replicator.divergence(name) for name in names
            if not self.replicator.network.is_down(name)
        }
        for step in range(len(names)):
            name = names[(self._rr + step) % len(names)]
            if lags.get(name) == 0 and members[name].caught_up:
                self._rr = (self._rr + step + 1) % len(names)
                self.reads_replica += 1
                return name, self._serve(name, "replica"), None
        admission = self.primary.admission
        if names and admission is not None and admission.overloaded():
            lagged = [
                name for name, lag in lags.items()
                if 0 < lag <= self.max_staleness_records
            ]
            if lagged:
                name = min(lagged, key=lags.__getitem__)
                self.reads_lagged += 1
                self._count_fallback("lagged-replica")
                return name, self._serve(name, "lagged"), "lagged-replica"
        if names:
            # Every member lagged and no degraded route: the primary
            # absorbs the read rather than the caller seeing an error.
            self.fallbacks += 1
            self._count_fallback("primary")
        self.reads_primary += 1
        self._count_read("primary")
        return primary, self.primary, None

    def _serve(self, name: str, target: str) -> ClassAdministrator:
        self._served[name] += 1
        self._count_read(target)
        return self.member(name)

    def _count_read(self, target: str) -> None:
        if OBS.enabled:
            READS[target].inc()

    def _count_fallback(self, target: str) -> None:
        if OBS.enabled:
            FALLBACKS[target].inc()

    # ------------------------------------------------------------------
    def promote(self) -> FailoverReport:
        """Fail the primary over: :meth:`~repro.distribution.syncdb
        .MetadataReplicator.promote` elects the winner, whose
        administrator becomes the set's read-write primary over the
        engine that is now the master.  Sessions carry over — they were
        mirrored on login."""
        report = self.replicator.promote()
        admin = self._admins.pop(report.new_primary, None)
        if admin is None:
            admin = self._mirror(ClassAdministrator())
        admin.adopt_database(self.replicator.master, read_only=False)
        self.primary = admin
        return report

    def stats(self) -> dict[str, Any]:
        """Routing counters plus per-member service counts."""
        return {
            "reads_replica": self.reads_replica,
            "reads_primary": self.reads_primary,
            "reads_lagged": self.reads_lagged,
            "fallbacks": self.fallbacks,
            "writes": self.writes,
            "replicas": {
                name: {
                    "served": self._served[name],
                    "divergence": self.replicator.divergence(name),
                }
                for name in self.replicator.members
            },
        }
