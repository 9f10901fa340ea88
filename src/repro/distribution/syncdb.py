"""Document-layer metadata replication across stations.

The paper's transparency goal (§4): "From different perspectives, all
database users look at the same database, which is stored across many
networked stations."  The division of labour is the paper's: document-
layer rows (scripts, implementations, test records — all small) are
replicated to every member station, while BLOBs stay where they are and
move only through the pre-broadcast / watermark machinery.

:class:`MetadataReplicator` hooks the master engine's *commit* path (it
poses as the engine's journal, so only committed operations ship —
rolled-back transactions never leave the master), batches the logical
operations, and fans each batch down the membership tree.  Replica
stations apply the operations mechanically to their local engines, in
order, exactly like WAL replay.

Replication is asynchronous: replicas converge once the network drains.
:meth:`MetadataReplicator.divergence` measures how far a replica
currently is from the master — the consistency metric experiment E11
sweeps.

Not to be confused with the repo's two other replication layers: this
module fans out *document-layer metadata rows* as logical op-logs;
:mod:`repro.replication` ships the class administrator's physical WAL
frames to byte-identical follower journals (read replicas + failover);
and :mod:`repro.distribution.replication` replicates *course-document
BLOBs*.  See DESIGN.md §11 for the comparison table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.distribution.mtree import MAryTree
from repro.net.messages import Message
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb import Database
from repro.rdb.wal import Journal

__all__ = ["ReplicationLog", "MetadataReplicator"]

SYNC_KIND = "syncdb.ops"
#: rough wire bytes per logical operation (small metadata rows)
BYTES_PER_OP = 300


class ReplicationLog:
    """Duck-typed journal capturing committed ops for shipment.

    Attach with ``engine.attach_journal(log)``; an optional ``inner``
    real :class:`~repro.rdb.wal.Journal` still receives everything for
    durability.
    """

    def __init__(self, inner: Journal | None = None) -> None:
        self.inner = inner
        self.pending: list[list[Any]] = []
        self.records_written = 0

    def append(self, txn_id: int, ops: list[list[Any]]) -> None:
        self.pending.extend(ops)
        self.records_written += 1
        if self.inner is not None:
            self.inner.append(txn_id, ops)

    @property
    def last_lsn(self) -> int:
        return self.inner.last_lsn if self.inner is not None else 0

    def checkpoint(self, last_lsn: int | None = None) -> None:
        if self.inner is not None:
            self.inner.checkpoint(last_lsn)

    def take(self) -> list[list[Any]]:
        """Drain the captured operations."""
        ops, self.pending = self.pending, []
        return ops


@dataclass(frozen=True, slots=True)
class SyncBatch:
    """One shipped batch of logical operations."""

    batch_id: int
    ops: tuple[tuple, ...]

    @property
    def wire_bytes(self) -> int:
        return 64 + BYTES_PER_OP * len(self.ops)


class MetadataReplicator:
    """Replicates one master engine's committed ops to member stations."""

    def __init__(
        self,
        network: Network,
        tree: MAryTree,
        master: Database,
        replicas: dict[str, Database],
        *,
        inner_journal: Journal | None = None,
    ) -> None:
        """``tree`` names the member stations; position 1 is the master's
        station.  ``replicas`` maps every non-root member station to its
        local engine (same schemas, created empty)."""
        self.network = network
        self.tree = tree
        self.master = master
        self.replicas = dict(replicas)
        self.log = ReplicationLog(inner=inner_journal)
        master.attach_journal(self.log)
        self._batch_counter = itertools.count(1)
        self.batches_shipped = 0
        self.ops_shipped = 0
        #: station -> number of ops applied
        self.applied: dict[str, int] = {name: 0 for name in self.replicas}
        #: station -> sim time of the latest applied batch
        self.last_applied_at: dict[str, float] = {}
        root = tree.name_of(1)
        for name in tree.names:
            if name == root:
                continue
            if name not in self.replicas:
                raise ValueError(f"no replica engine for station {name!r}")
            station = network.station(name)
            if not station.handles(SYNC_KIND):
                station.on(SYNC_KIND, self._on_batch)

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def flush(self) -> SyncBatch | None:
        """Ship everything committed since the last flush; returns the
        batch (or None when there was nothing to ship)."""
        ops = self.log.take()
        if not ops:
            return None
        batch = SyncBatch(
            batch_id=next(self._batch_counter),
            ops=tuple(tuple(op) for op in ops),
        )
        self.batches_shipped += 1
        self.ops_shipped += len(ops)
        root = self.tree.name_of(1)
        for child in self.tree.children_names(root):
            self.network.send(
                root, child, SYNC_KIND, batch, batch.wire_bytes
            )
        return batch

    def _on_batch(self, station: Station, message: Message) -> None:
        batch: SyncBatch = message.payload
        replica = self.replicas[station.name]
        for op in batch.ops:
            replica._replay_op(list(op))
        self.applied[station.name] += len(batch.ops)
        self.last_applied_at[station.name] = self.network.sim.now
        for child in self.tree.children_names(station.name):
            self.network.send(
                station.name, child, SYNC_KIND, batch, batch.wire_bytes
            )

    # ------------------------------------------------------------------
    # Anti-entropy repair
    # ------------------------------------------------------------------
    def repair(self, station: str) -> SyncBatch:
        """Resynchronize one replica that missed batches (lossy network,
        crashed station): ship a full-state batch directly to it.

        The batch carries delete-then-insert ops for every master row,
        plus deletes for replica rows the master no longer has, so
        applying it is idempotent and converging regardless of what the
        replica held.  The receiving station forwards it down its
        subtree like any batch, healing descendants as a side effect.
        """
        from repro.rdb.wal import encode_row

        replica = self.replicas[station]
        ops: list[list[Any]] = []
        for table_name in self.master.table_names():
            master_schema = self.master.schema(table_name)
            master_keys = set()
            for row in self.master.select(table_name):
                pk = master_schema.primary_key_of(row)
                master_keys.add(pk)
                ops.append([
                    "delete", table_name,
                    [encode_row({"v": v})["v"] for v in pk],
                ])
                ops.append(["insert", table_name, encode_row(row)])
            for row in replica.select(table_name):
                pk = replica.schema(table_name).primary_key_of(row)
                if pk not in master_keys:
                    ops.append([
                        "delete", table_name,
                        [encode_row({"v": v})["v"] for v in pk],
                    ])
        batch = SyncBatch(
            batch_id=next(self._batch_counter),
            ops=tuple(tuple(op) for op in ops),
        )
        root = self.tree.name_of(1)
        self.network.send(root, station, SYNC_KIND, batch, batch.wire_bytes)
        self.batches_shipped += 1
        return batch

    # ------------------------------------------------------------------
    # Consistency measurement
    # ------------------------------------------------------------------
    def divergence(self, station: str) -> int:
        """Rows differing between the master and a replica (both ways)."""
        replica = self.replicas[station]
        total = 0
        for table_name in self.master.table_names():
            master_rows = {
                self.master.schema(table_name).primary_key_of(row): row
                for row in self.master.select(table_name)
            }
            replica_rows = {
                replica.schema(table_name).primary_key_of(row): row
                for row in replica.select(table_name)
            }
            keys = set(master_rows) | set(replica_rows)
            total += sum(
                1
                for key in keys
                if master_rows.get(key) != replica_rows.get(key)
            )
        return total

    def converged(self) -> bool:
        """True when every replica matches the master exactly."""
        return all(self.divergence(name) == 0 for name in self.replicas)
