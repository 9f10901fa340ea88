"""Tests for metadata replication across stations."""

import datetime as dt

import pytest

from repro.distribution import MAryTree, MetadataReplicator
from repro.rdb import Column, ColumnType, Database, Schema
from repro.rdb.wal import Journal, read_frames

from tests.conftest import build_network

T = ColumnType

DOCS = Schema(
    name="docs",
    columns=(
        Column("name", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("created", T.DATETIME),
    ),
    primary_key=("name",),
)


def _engine(label: str) -> Database:
    db = Database(label)
    db.create_table(DOCS)
    return db


@pytest.fixture
def world():
    net = build_network(7)
    names = [f"s{k}" for k in range(1, 8)]
    tree = MAryTree(7, 2, names=names)
    master = _engine("master")
    replicas = {name: _engine(f"replica_{name}") for name in names[1:]}
    replicator = MetadataReplicator(net, tree, master, replicas)
    return net, master, replicas, replicator


class TestReplication:
    def test_inserts_reach_every_replica(self, world):
        net, master, replicas, replicator = world
        master.insert("docs", {"name": "a", "created": dt.datetime(1999, 1, 1)})
        master.insert("docs", {"name": "b"})
        replicator.flush()
        net.quiesce()
        for replica in replicas.values():
            assert replica.count("docs") == 2
            assert replica.get("docs", "a")["created"] == dt.datetime(1999, 1, 1)
        assert replicator.converged()

    def test_updates_and_deletes_replicate(self, world):
        net, master, replicas, replicator = world
        master.insert("docs", {"name": "a"})
        master.insert("docs", {"name": "b"})
        replicator.flush(); net.quiesce()
        master.update_pk("docs", "a", {"version": 2})
        master.delete_pk("docs", "b")
        replicator.flush(); net.quiesce()
        for replica in replicas.values():
            assert replica.get("docs", "a")["version"] == 2
            assert replica.get("docs", "b") is None
        assert replicator.converged()

    def test_rolled_back_transactions_never_ship(self, world):
        net, master, _replicas, replicator = world
        master.begin()
        master.insert("docs", {"name": "ghost"})
        master.rollback()
        assert replicator.flush() is None
        master.insert("docs", {"name": "real"})
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert replicator.ops_shipped == 1

    def test_divergence_before_flush(self, world):
        net, master, _replicas, replicator = world
        master.insert("docs", {"name": "a"})
        assert replicator.divergence("s2") == 1
        replicator.flush(); net.quiesce()
        assert replicator.divergence("s2") == 0

    def test_divergence_counts_value_differences(self, world):
        net, master, replicas, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        master.update_pk("docs", "a", {"version": 9})
        assert replicator.divergence("s2") == 1  # same key, stale value

    def test_batches_forward_down_the_tree(self, world):
        net, master, _replicas, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush()
        net.quiesce()
        # leaves (depth 2) applied after interior nodes (depth 1)
        assert (
            replicator.last_applied_at["s4"]
            > replicator.last_applied_at["s2"]
        )

    def test_flush_empty_is_noop(self, world):
        _net, _master, _replicas, replicator = world
        assert replicator.flush() is None
        assert replicator.batches_shipped == 0

    def test_multiple_batches_apply_in_order(self, world):
        net, master, replicas, replicator = world
        for index in range(5):
            master.insert("docs", {"name": f"d{index}"})
            replicator.flush()
        net.quiesce()
        assert replicator.converged()
        assert replicator.batches_shipped == 5
        assert all(n == 5 for n in replicator.applied.values())

    def test_missing_replica_rejected(self):
        net = build_network(3)
        names = ["s1", "s2", "s3"]
        tree = MAryTree(3, 2, names=names)
        with pytest.raises(ValueError, match="no replica"):
            MetadataReplicator(net, tree, _engine("m"), {"s2": _engine("r")})

    def test_inner_journal_still_written(self, world, tmp_path):
        net = build_network(3)
        names = ["s1", "s2", "s3"]
        tree = MAryTree(3, 2, names=names)
        master = _engine("m")
        journal = Journal(tmp_path / "wal.jsonl")
        replicator = MetadataReplicator(
            net, tree, master,
            {n: _engine(f"r{n}") for n in names[1:]},
            inner_journal=journal,
        )
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        frames = list(read_frames(tmp_path / "wal.jsonl"))
        assert [f.kind for f in frames] == ["txn"]
        # and recovery from that journal matches the master
        recovered = Database.recover("r", [DOCS],
                                     journal_path=str(tmp_path / "wal.jsonl"))
        assert recovered.count("docs") == 1

    def test_replicating_master_can_checkpoint(self, tmp_path):
        """Regression: ``ReplicationLog`` poses as the engine's journal
        but lacked what ``Database.snapshot`` calls (``last_lsn``,
        ``checkpoint``), so a metadata-replicating master could not
        snapshot at all."""
        net = build_network(3)
        names = ["s1", "s2", "s3"]
        tree = MAryTree(3, 2, names=names)
        master = _engine("m")
        replicas = {n: _engine(f"r{n}") for n in names[1:]}
        replicator = MetadataReplicator(
            net, tree, master, replicas,
            inner_journal=Journal(tmp_path / "wal"),
        )
        master.insert("docs", {"name": "a"})
        master.snapshot(str(tmp_path / "snap.json"))
        master.insert("docs", {"name": "b"})
        assert [(f.kind, f.lsn) for f in read_frames(tmp_path / "wal")] == \
            [("ckpt", 1), ("txn", 2)]
        recovered = Database.recover(
            "r", [DOCS], snapshot_path=str(tmp_path / "snap.json"),
            journal_path=str(tmp_path / "wal"),
        )
        assert sorted(r["name"] for r in recovered.select("docs")) == \
            ["a", "b"]
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        for replica in replicas.values():
            assert replica.count("docs") == 2
        # Without an inner journal the log has nothing to checkpoint.
        bare = _engine("bare")
        MetadataReplicator(
            build_network(3), tree, bare,
            {n: _engine(f"b{n}") for n in names[1:]},
        )
        bare.insert("docs", {"name": "a"})
        bare.snapshot(str(tmp_path / "bare.json"))


class TestRepair:
    def test_repair_heals_a_station_that_missed_batches(self, world):
        net, master, replicas, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        # s2 crashes and misses the next two batches
        net.set_down("s2")
        master.insert("docs", {"name": "b"})
        master.update_pk("docs", "a", {"version": 5})
        replicator.flush(); net.quiesce()
        net.set_down("s2", down=False)
        assert replicator.divergence("s2") == 2
        replicator.repair("s2")
        net.quiesce()
        assert replicator.divergence("s2") == 0

    def test_repair_removes_rows_master_deleted(self, world):
        net, master, replicas, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        net.set_down("s2")
        master.delete_pk("docs", "a")
        replicator.flush(); net.quiesce()
        net.set_down("s2", down=False)
        assert replicas["s2"].count("docs") == 1  # stale row
        replicator.repair("s2")
        net.quiesce()
        assert replicas["s2"].count("docs") == 0

    def test_repair_is_idempotent(self, world):
        net, master, _replicas, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        replicator.repair("s2")
        replicator.repair("s2")
        net.quiesce()
        assert replicator.divergence("s2") == 0

    def test_repair_heals_descendants_too(self, world):
        net, master, _replicas, replicator = world
        master.insert("docs", {"name": "a"})
        # nobody got the flush: everyone is down except the master
        for name in ("s2", "s3", "s4", "s5", "s6", "s7"):
            net.set_down(name)
        replicator.flush(); net.quiesce()
        for name in ("s2", "s3", "s4", "s5", "s6", "s7"):
            net.set_down(name, down=False)
        replicator.repair("s2")  # s2's subtree: s4, s5 in the m=2 tree
        net.quiesce()
        assert replicator.divergence("s2") == 0
        assert replicator.divergence("s4") == 0
        assert replicator.divergence("s5") == 0
        # outside s2's subtree remains stale until its own repair
        assert replicator.divergence("s3") == 1


class TestFullSchemaReplication:
    def test_document_database_replicates(self):
        """The real course schema ships through the same machinery."""
        from repro.core.schema import ALL_SCHEMAS

        def course_engine(label):
            db = Database(label)
            for schema in ALL_SCHEMAS:
                db.create_table(schema)
            return db

        net = build_network(4)
        names = [f"s{k}" for k in range(1, 5)]
        tree = MAryTree(4, 3, names=names)
        master = course_engine("master")
        replicas = {n: course_engine(f"r{n}") for n in names[1:]}
        replicator = MetadataReplicator(net, tree, master, replicas)

        master.insert("doc_databases", {
            "db_name": "mmu", "author": "shih",
            "created_at": dt.datetime(1999, 1, 1),
        })
        master.insert("scripts", {
            "script_name": "cs1", "db_name": "mmu", "author": "shih",
            "created_at": dt.datetime(1999, 1, 1),
        })
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert replicas["s4"].get("scripts", "cs1")["author"] == "shih"
