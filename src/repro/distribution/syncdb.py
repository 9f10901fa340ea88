"""Document-layer metadata replication across stations.

The paper's transparency goal (§4): "From different perspectives, all
database users look at the same database, which is stored across many
networked stations."  The division of labour is the paper's: document-
layer rows (scripts, implementations, test records — all small) are
replicated to every member station, while BLOBs stay where they are and
move only through the pre-broadcast / watermark machinery.

:class:`MetadataReplicator` is a *topology*, not a protocol.  The
stream is :mod:`repro.replication`'s: the master engine's own journal
frames, shipped by a :class:`~repro.replication.shipper.WalShipper`,
followed by a :class:`~repro.replication.recoverer.Recoverer` that
appends each frame verbatim to its own journal before applying it.
What this module adds is *who follows whom*: every non-root member of
the :class:`~repro.distribution.mtree.MAryTree` follows its tree
parent, and every interior member relays from its own follower journal
— from that journal's base on a byte prefix of the master's (the bases
differ only between members that did and did not resync by snapshot
after a master checkpoint), so frames travel the whole tree unchanged,
CRC included.  Only committed transactions are journaled, so
rolled-back work never leaves the master.

Replication is asynchronous: members converge once the network drains.
:meth:`MetadataReplicator.divergence` is how many journal records a
member is behind the master — the consistency metric experiment E11
sweeps.  A lost batch is an LSN gap the member refuses to apply past;
it resubscribes from its own LSN, as :meth:`MetadataReplicator.repair`
makes it do on demand.

When the root's station dies, :meth:`MetadataReplicator.promote` makes
the live member with the highest applied LSN the master under a fenced
WAL epoch and re-derives the tree without the dead root; a star is the
tree at m = N-1.  The deposed root rejoins, like any station that is
not in the tree, through :meth:`MetadataReplicator.restart`, at the
tail of the join order.

The repo's other replication layer, :mod:`repro.storage.holdings`,
moves *course-document BLOBs*.  See DESIGN.md §11.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.distribution.mtree import MAryTree
from repro.net.transport import Network
from repro.obs.instrument import OBS, Instrument
from repro.rdb import Database
from repro.rdb.wal import WalFrame
from repro.replication.recoverer import Recoverer
from repro.replication.shipper import FollowerProgress, WalShipper

__all__ = ["FailoverReport", "MetadataReplicator"]

PROMOTIONS = Instrument("counter", "replication.promotions")


@dataclass
class FailoverReport:
    """What one :meth:`MetadataReplicator.promote` did."""

    old_primary: str
    new_primary: str
    #: LSN the winner had durably applied at election time
    promoted_lsn: int
    #: the fenced epoch the new master ships under
    epoch: int
    #: applied LSN of every member at election time, for the record
    candidate_lsns: dict[str, int] = field(default_factory=dict)


class MetadataReplicator:
    """Fans one master engine's journal out to the member stations of a
    tree: position 1 is the master's station, everyone else follows its
    tree parent."""

    def __init__(
        self,
        network: Network,
        tree: MAryTree,
        master: Database,
        data_dir: str | os.PathLike[str],
        *,
        ddl_fn: Callable[[Database], None] | None = None,
    ) -> None:
        """``master`` must already journal to a
        :class:`~repro.rdb.wal.Journal` — that journal *is* the
        replication stream, from its first frame.  Each member keeps its
        own snapshot + journal under ``data_dir/<station>`` (with the
        master journal's sync policy) and builds its engine from the
        master's schemas.

        The master's journal and snapshot stay its owner's: nothing
        here appends to, checkpoints or snapshots the master (only a
        member it promotes).  A member
        that falls below a checkpoint the owner took
        (``master.snapshot(path)``) is served that very file.

        ``ddl_fn`` re-issues the master's secondary indexes on each
        member engine it opens (:class:`Recoverer`'s contract)."""
        if master.journal is None:
            raise ValueError(
                "the master engine has no Journal attached: its journal "
                "is the replication stream (attach_journal first)"
            )
        self.network = network
        self.tree = tree
        self.master = master
        self.data_dir = Path(data_dir)
        self.ddl_fn = ddl_fn
        self._schemas = master.schemas()
        #: the WAL epoch every shipper of the group serves under; each
        #: promotion opens the next
        self.epoch = 1
        #: station -> the shipper serving its tree children
        self.shippers: dict[str, WalShipper] = {}
        #: station -> its follower (every member but the root)
        self.members: dict[str, Recoverer] = {}
        #: station -> sim time of the latest applied frame
        self.last_applied_at: dict[str, float] = {}
        self._relay_due: set[str] = set()
        self._serve_children(tree.name_of(1))
        for name in tree.names[1:]:
            self.restart(name)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _find_master_snapshot(self) -> None:
        """Before the root serves a resync: point it at the file the
        master's owner last checkpointed against, wherever that is —
        its LSN is the master journal's base."""
        path = self.master.snapshot_path
        self.shippers[self.tree.name_of(1)].snapshot_path = (
            Path(path) if path is not None else None
        )

    def restart(self, station: str) -> None:
        """(Re)start ``station``'s follower process: a fresh
        :class:`Recoverer` over the station's own directory replays what
        is durable there, then subscribes to its tree parent from that
        LSN.  A member that crashed rejoins this way; a station not in
        the tree (a deposed root) joins at its tail, the paper's linear
        join order, which moves no other station's parent."""
        if station not in self.tree:
            names = [*self.tree.names, station]
            self.tree = MAryTree(len(names), self.tree.m, names=names)
        parent = self.tree.parent_name(station)
        if parent not in self.shippers:  # a leaf until now
            self._serve_children(parent)
        old = self.members.get(station)
        if old is not None:
            old.stop()
        member = Recoverer(
            self.network, station, parent,
            self._schemas, self.data_dir / station,
            sync_policy=self.master.journal.sync_policy,
            epoch=self.epoch, ddl_fn=self.ddl_fn,
            on_apply=lambda frame: self._on_apply(station, frame),
            on_rebuild=lambda _db: self._serve_children(station),
        )
        self.members[station] = member
        member.start()

    def _serve_children(self, station: str) -> None:
        """Open ``station``'s shipper over the journal it has *now*, at
        the group's epoch, and make its tree children resubscribe.

        The root's shipper reads the master's journal; an interior
        member's relays its own.  A restart or a snapshot install
        replaces the member's journal (and may move it past frames the
        children still need), so the old shipper — its journal object,
        its idea of where each child is — is discarded with it.
        Children that fell behind the new journal's base are served the
        member's own ``replica.snapshot``, and cascade the same way to
        theirs.  A child *ahead* of a member that lost its disk, or of
        a new parent after a promotion, is on the same stream, not a
        deposed primary's: it is left where it is and streamed to again
        once the member has passed it.
        """
        children = self.tree.children_names(station)
        if station == self.tree.name_of(1):
            journal, at = self.master.journal, self.master.journal.last_lsn
            served = {"snapshot_fn": self._find_master_snapshot}
        elif children:
            member = self.members[station]
            journal, at = member.journal, member.applied_lsn
            served = {"snapshot_path": member.snapshot_path}
        else:
            return
        assert journal is not None
        old = self.shippers.pop(station, None)
        if old is not None:
            old.close()
        shipper = self.shippers[station] = WalShipper(
            self.network, station, journal, epoch=self.epoch, **served
        )
        for child in children:
            follower = self.members.get(child)
            if follower is None:
                continue  # not started yet: it subscribes when it is
            lsn = follower.applied_lsn
            if lsn > at:
                shipper.followers[child] = FollowerProgress(
                    child, shipped_lsn=lsn, applied_lsn=lsn
                )
                follower.primary_name = station
                follower.epoch = self.epoch
            else:
                follower.retarget(station, epoch=self.epoch)

    def _on_apply(self, station: str, _frame: WalFrame) -> None:
        self.last_applied_at[station] = self.network.sim.now
        # Relay once per received batch, not once per frame: the event
        # runs after the batch's last frame is journaled and applied.
        if station in self.shippers and station not in self._relay_due:
            self._relay_due.add(station)
            self.network.sim.schedule(0.0, self._relay, station)

    def _relay(self, station: str) -> None:
        self._relay_due.discard(station)
        self.shippers[station].pump()

    # ------------------------------------------------------------------
    # Shipping, repair, measurement
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Push everything committed since the last flush toward the
        root's children; returns the frames put on the wire now (acks
        keep the stream flowing until every member has the rest)."""
        return self.shippers[self.tree.name_of(1)].pump()

    def promote(self) -> FailoverReport:
        """Fail the root over to the live member with the highest
        applied LSN (a tie goes to the one earlier in tree order).

        With ack-driven shipping that member holds the longest durable
        prefix of the lost journal, so every commit that reached a live
        member survives; what the root journaled and never shipped is
        lost (the asynchronous contract).  The winner's engine becomes
        the master: it stops following, snapshots to open epoch + 1 —
        checkpointing its journal there, the resync anchor for later
        subscribers — and its journal is the stream from then on.  The
        tree is re-derived over the old join order without the dead
        root and with the winner first, at the same m, and every
        shipper is re-opened at the new epoch: a deposed shipper drops
        subscriptions from a later epoch, a member drops batches from
        an earlier one.  The old root comes back through
        :meth:`restart`.
        """
        old_root = self.tree.name_of(1)
        live = [
            self.members[name] for name in self.tree.names[1:]
            if not self.network.is_down(name)
        ]
        if not live:
            raise RuntimeError("no live member to promote")
        winner = max(live, key=lambda member: member.applied_lsn)
        name = winner.station_name
        report = FailoverReport(
            old_primary=old_root, new_primary=name,
            promoted_lsn=winner.applied_lsn,
            epoch=max(self.epoch, winner.epoch) + 1,
            candidate_lsns={
                member: self.members[member].applied_lsn
                for member in self.tree.names[1:]
            },
        )
        for shipper in self.shippers.values():
            shipper.close()
        self.shippers.clear()
        self.epoch = report.epoch
        self.master, _journal = winner.promote()
        self.master.snapshot(str(winner.snapshot_path))
        del self.members[name]
        names = [name] + [
            member for member in self.tree.names[1:] if member != name
        ]
        self.tree = MAryTree(len(names), self.tree.m, names=names)
        for station in names:  # parents first
            self._serve_children(station)
        if OBS.enabled:
            PROMOTIONS[()].inc()
        return report

    def repair(self, station: str) -> None:
        """Make ``station`` resubscribe to its parent from its own LSN —
        what it does by itself on the next batch that shows the gap.
        Frames it then applies flow on down its subtree."""
        self.members[station].retarget(self.tree.parent_name(station))

    def divergence(self, station: str) -> int:
        """Journal records ``station`` is behind the master."""
        return self.master.journal.last_lsn - self.members[station].applied_lsn

    def converged(self) -> bool:
        """True when every member has applied the master's last LSN."""
        return all(self.divergence(name) == 0 for name in self.members)
