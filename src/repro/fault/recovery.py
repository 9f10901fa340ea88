"""Recovery: redelivering interrupted broadcasts, rejoining crashed stations.

Two recovery paths, matching the two kinds of state a crash loses:

* **Lecture payload** (the BLOB pre-broadcast): after the tree is
  repaired, :class:`RedeliveryService` finds every surviving station
  still missing chunks and re-feeds it directly from the nearest
  *complete* ancestor in the repaired tree (falling back to the root,
  which always holds the instance).  Redelivery traffic is targeted —
  it is not forwarded on — so the redundant bytes E14 measures are
  exactly the chunks the healer chose to re-send; a retry policy
  re-checks with backoff in case redelivery itself hits a lossy link.

* **Document-layer metadata** (the replicated relational rows): a
  station that crashed and restarted is a WAL follower restarting —
  :meth:`~repro.distribution.syncdb.MetadataReplicator.restart` builds a
  fresh :class:`~repro.replication.recoverer.Recoverer` over the
  station's own directory, which replays its snapshot + journal and
  resubscribes to its tree parent from that LSN for everything
  committed while it was dark.  :class:`RecoveryManager.rejoin` revives
  the station, drives that, and re-enters it into the broadcast vector
  at the tail (the paper's linear join order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distribution.broadcast import PreBroadcaster
from repro.distribution.mtree import MAryTree
from repro.distribution.syncdb import MetadataReplicator
from repro.distribution.vector import BroadcastVector
from repro.fault.policy import RetryPolicy
from repro.net.transport import Network
from repro.obs.instrument import OBS, Instrument

__all__ = ["RedeliveryReport", "RedeliveryService", "RejoinReport",
           "RecoveryManager"]

REDELIVERIES = Instrument("counter", "fault.redeliveries")
CHUNKS_REDELIVERED = Instrument("counter", "fault.chunks_redelivered")
REJOINS = Instrument("counter", "fault.rejoins")


@dataclass
class RedeliveryReport:
    """Outcome of healing one interrupted broadcast."""

    lecture_id: str
    started_at: float
    #: stations that were missing chunks when redelivery began
    stations_healed: list[str] = field(default_factory=list)
    #: redundant wire traffic spent on redelivery
    bytes_redelivered: int = 0
    chunks_redelivered: int = 0
    #: station -> chunks re-sent to it (health reporting)
    chunks_by_station: dict[str, int] = field(default_factory=dict)
    #: extra policy-driven redelivery rounds that found stragglers
    retry_rounds: int = 0


class RedeliveryService:
    """Heals an interrupted pre-broadcast over a repaired tree."""

    def __init__(
        self,
        broadcaster: PreBroadcaster,
        *,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.broadcaster = broadcaster
        self.network: Network = broadcaster.network
        self.policy = policy if policy is not None else RetryPolicy()
        self.reports: list[RedeliveryReport] = []

    def redeliver(
        self,
        lecture_id: str,
        tree: MAryTree,
        *,
        deadline: float | None = None,
    ) -> RedeliveryReport:
        """Re-feed every surviving member of ``tree`` missing chunks.

        ``tree`` is the repaired tree (crashed stations already
        removed).  Also retargets the broadcaster's forwarding onto it,
        so both redelivered and still-in-flight chunks flow around the
        dead stations.  Run the simulator afterwards; the report's
        counters are final once the network quiesces.

        ``deadline`` (absolute, simulated seconds) bounds the retry
        rounds: once a recheck's backoff wait would cross it, healing
        stops instead of retrying forever — the caller's deadline, not
        a fixed attempt count, decides when to give up.
        """
        self.broadcaster.retarget(lecture_id, tree)
        report = RedeliveryReport(
            lecture_id=lecture_id, started_at=self.network.sim.now
        )
        self.reports.append(report)
        self._heal_round(lecture_id, tree, report, attempt=None)
        if self.policy.allows(0, now=self.network.sim.now, deadline=deadline):
            self.network.sim.schedule(
                self.policy.timeout_for(0),
                self._recheck, lecture_id, tree, report, 0, deadline,
            )
        return report

    # ------------------------------------------------------------------
    def _heal_round(
        self,
        lecture_id: str,
        tree: MAryTree,
        report: RedeliveryReport,
        attempt: int | None,
    ) -> bool:
        """One pass over the tree; True if any station needed chunks."""
        found = False
        for position in range(1, tree.n + 1):
            name = tree.name_of(position)
            if self.network.is_down(name):
                continue
            missing = self.broadcaster.missing_chunks(name, lecture_id)
            if not missing:
                continue
            found = True
            source = self._nearest_complete_ancestor(lecture_id, tree, position)
            sent = self.broadcaster.resend_chunks(
                source, name, lecture_id, missing
            )
            report.bytes_redelivered += sent
            report.chunks_redelivered += len(missing)
            if OBS.enabled:
                REDELIVERIES[()].inc()
                CHUNKS_REDELIVERED[()].inc(len(missing))
            report.chunks_by_station[name] = (
                report.chunks_by_station.get(name, 0) + len(missing)
            )
            if attempt is None and name not in report.stations_healed:
                report.stations_healed.append(name)
        return found

    def _recheck(
        self,
        lecture_id: str,
        tree: MAryTree,
        report: RedeliveryReport,
        attempt: int,
        deadline: float | None = None,
    ) -> None:
        """Policy-paced re-send for stations still incomplete."""
        found = self._heal_round(lecture_id, tree, report, attempt=attempt)
        if not found:
            return
        report.retry_rounds += 1
        if self.policy.allows(
            attempt + 1, now=self.network.sim.now, deadline=deadline
        ):
            self.network.sim.schedule(
                self.policy.timeout_for(attempt + 1),
                self._recheck, lecture_id, tree, report, attempt + 1, deadline,
            )

    def _nearest_complete_ancestor(
        self, lecture_id: str, tree: MAryTree, position: int
    ) -> str:
        """The closest up-tree station already holding the full lecture.

        The root qualifies by construction (the instructor station is
        where the broadcast started), so the walk always terminates.
        """
        for ancestor in tree.path_to_root(position)[1:]:
            name = tree.name_of(ancestor)
            if (not self.network.is_down(name)
                    and self.broadcaster.is_complete(name, lecture_id)):
                return name
        return tree.name_of(1)


# ---------------------------------------------------------------------------
# Crashed-station rejoin
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RejoinReport:
    """Outcome of one station rejoin."""

    station: str
    rejoined_at: float
    #: 1-based position re-assigned in the broadcast vector
    position: int
    #: rows restored locally from the station's own snapshot + journal
    restored_rows: int
    #: journal records it was still behind the master after that replay
    #: (what the resubscription then streams)
    frames_behind: int


class RecoveryManager:
    """Brings a crashed-and-restarted station back into the database.

    Wires together the three layers a rejoin touches: the network (the
    station must be revived), the broadcast vector (membership, at the
    tail), and — when the deployment replicates document-layer metadata
    — the station's follower, restarted over its own WAL and caught up
    from its tree parent.
    """

    def __init__(
        self,
        network: Network,
        vector: BroadcastVector,
        *,
        replicator: MetadataReplicator | None = None,
    ) -> None:
        self.network = network
        self.vector = vector
        self.replicator = replicator
        self.rejoins: list[RejoinReport] = []

    def rejoin(self, station: str) -> RejoinReport:
        """Revive ``station`` and restore its membership and metadata."""
        self.network.station(station)  # raise early on unknown
        if self.network.is_down(station):
            self.network.set_down(station, False)
        if station in self.vector:
            position = self.vector.position_of(station)
        else:
            position = self.vector.join(station)

        restored_rows = 0
        frames_behind = 0
        if self.replicator is not None:
            self.replicator.restart(station)
            rebuilt = self.replicator.members[station].db
            restored_rows = sum(
                rebuilt.count(name) for name in rebuilt.table_names()
            )
            frames_behind = self.replicator.divergence(station)

        report = RejoinReport(
            station=station,
            rejoined_at=self.network.sim.now,
            position=position,
            restored_rows=restored_rows,
            frames_behind=frames_behind,
        )
        self.rejoins.append(report)
        if OBS.enabled:
            REJOINS[()].inc()
        return report
