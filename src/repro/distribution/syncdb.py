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

The repo's other replication layer, :mod:`repro.distribution.replication`,
moves *course-document BLOBs*.  See DESIGN.md §11.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.distribution.mtree import MAryTree
from repro.net.transport import Network
from repro.rdb import Database
from repro.rdb.wal import WalFrame
from repro.replication.recoverer import Recoverer
from repro.replication.shipper import FollowerProgress, WalShipper

__all__ = ["MetadataReplicator"]


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
    ) -> None:
        """``master`` must already journal to a
        :class:`~repro.rdb.wal.Journal` — that journal *is* the
        replication stream, from its first frame.  Each member keeps its
        own snapshot + journal under ``data_dir/<station>`` (with the
        master journal's sync policy) and builds its engine from the
        master's schemas.

        The master's journal and snapshot stay its owner's: nothing
        here appends to, checkpoints or snapshots the master.  A member
        that falls below a checkpoint the owner took
        (``master.snapshot(path)``) is served that very file."""
        if master.journal is None:
            raise ValueError(
                "the master engine has no Journal attached: its journal "
                "is the replication stream (attach_journal first)"
            )
        self.network = network
        self.tree = tree
        self.master = master
        self.data_dir = Path(data_dir)
        self._schemas = master.schemas()
        root = tree.name_of(1)
        #: station -> the shipper serving its tree children
        self.shippers: dict[str, WalShipper] = {
            root: WalShipper(
                network, root, master.journal,
                snapshot_fn=self._find_master_snapshot,
            )
        }
        #: station -> its follower (every member but the root)
        self.members: dict[str, Recoverer] = {}
        #: station -> sim time of the latest applied frame
        self.last_applied_at: dict[str, float] = {}
        self._relay_due: set[str] = set()
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
        LSN.  A member that crashed rejoins this way."""
        old = self.members.get(station)
        if old is not None:
            old.stop()
        member = Recoverer(
            self.network, station, self.tree.parent_name(station),
            self._schemas, self.data_dir / station,
            sync_policy=self.master.journal.sync_policy,
            on_apply=lambda frame: self._on_apply(station, frame),
            on_rebuild=lambda _db: self._serve_children(station),
        )
        self.members[station] = member
        member.start()

    def _serve_children(self, station: str) -> None:
        """Open ``station``'s relay over the journal it has *now* and
        make its tree children resubscribe.

        A restart or a snapshot install replaces the member's journal
        (and may move it past frames the children still need), so the
        old shipper — its journal object, its idea of where each child
        is — is discarded with it.  Children that fell behind the new
        journal's base are served the member's own ``replica.snapshot``,
        and cascade the same way to theirs.  A child *ahead* of a member
        that lost its disk is on the same stream, not a deposed
        primary's: it is left where it is and streamed to again once the
        member has passed it.
        """
        children = self.tree.children_names(station)
        if not children:
            return
        old = self.shippers.pop(station, None)
        if old is not None:
            old.close()
        member = self.members[station]
        assert member.journal is not None
        shipper = self.shippers[station] = WalShipper(
            self.network, station, member.journal,
            snapshot_path=member.snapshot_path,
        )
        for child in children:
            follower = self.members.get(child)
            if follower is None:
                continue  # not started yet: it subscribes when it is
            lsn = follower.applied_lsn
            if lsn > member.applied_lsn:
                shipper.followers[child] = FollowerProgress(
                    child, shipped_lsn=lsn, applied_lsn=lsn
                )
            else:
                follower.retarget(station)

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
