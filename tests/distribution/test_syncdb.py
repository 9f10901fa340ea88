"""Tests for metadata replication across stations: the member tree
relays the master's own WAL frames (``WalShipper`` + ``Recoverer``, one
pair per tree edge)."""

import datetime as dt
import shutil

import pytest

from repro.distribution import MAryTree, MetadataReplicator
from repro.fault.crashsim import database_state
from repro.rdb import Column, ColumnType, Database, Schema
from repro.rdb.wal import Journal, read_frames
from repro.replication import RecoveryStage

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

MEMBERS = ("s2", "s3", "s4", "s5", "s6", "s7")


def _master(tmp_path) -> Database:
    db = Database("master")
    db.create_table(DOCS)
    db.attach_journal(Journal(tmp_path / "master.wal"))
    return db


def _cluster(tmp_path, n, m):
    net = build_network(n)
    tree = MAryTree(n, m, names=[f"s{k}" for k in range(1, n + 1)])
    master = _master(tmp_path)
    return net, master, MetadataReplicator(net, tree, master, tmp_path)


@pytest.fixture
def world(tmp_path):
    """Seven stations, m=2: s1 is the master's; s2 relays to s4, s5 and
    s3 to s6, s7.  Every member has subscribed when the test begins."""
    net, master, replicator = _cluster(tmp_path, 7, 2)
    net.quiesce()
    return net, master, replicator


def _same_rows_everywhere(master, replicator, members=MEMBERS) -> bool:
    """The tests' oracle: row-by-row equality, which ``src/`` no longer
    computes (its convergence check compares LSNs)."""
    wanted = database_state(master)
    return all(
        database_state(replicator.members[name].db) == wanted
        for name in members
    )


def _owner_recovers_the_master(master, snapshot) -> bool:
    """What the master's owner would get back after a crash now: its
    own snapshot plus its own journal."""
    recovered = Database.recover(
        "r", master.schemas(), snapshot_path=str(snapshot),
        journal_path=str(master.journal.path),
    )
    return database_state(recovered) == database_state(master)


def _journal_bytes(replicator, name) -> bytes:
    return replicator.members[name].journal_path.read_bytes()


class TestReplication:
    def test_inserts_reach_every_replica(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a", "created": dt.datetime(1999, 1, 1)})
        master.insert("docs", {"name": "b"})
        assert replicator.flush() == 4  # two frames to each root child
        net.quiesce()
        for member in replicator.members.values():
            assert member.db.count("docs") == 2
            assert member.db.get("docs", "a")["created"] == dt.datetime(1999, 1, 1)
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)

    def test_updates_and_deletes_replicate(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        master.insert("docs", {"name": "b"})
        replicator.flush(); net.quiesce()
        master.update_pk("docs", "a", {"version": 2})
        master.delete_pk("docs", "b")
        replicator.flush(); net.quiesce()
        for member in replicator.members.values():
            assert member.db.get("docs", "a")["version"] == 2
            assert member.db.get("docs", "b") is None
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)

    def test_rolled_back_transactions_never_ship(self, world):
        net, master, replicator = world
        master.begin()
        master.insert("docs", {"name": "ghost"})
        master.rollback()
        assert replicator.flush() == 0
        master.insert("docs", {"name": "real"})
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)
        for member in replicator.members.values():
            assert member.frames_applied == 1
            assert b"ghost" not in member.journal_path.read_bytes()

    def test_commits_before_anyone_subscribed_still_arrive(self, tmp_path):
        """The stream is the journal from its first frame, not what was
        committed after the replicator attached."""
        net = build_network(3)
        tree = MAryTree(3, 2, names=["s1", "s2", "s3"])
        master = _master(tmp_path)
        master.insert("docs", {"name": "early"})
        replicator = MetadataReplicator(net, tree, master, tmp_path)
        assert replicator.flush() == 0  # subscriptions still in flight
        net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator, ("s2", "s3"))

    def test_divergence_before_flush(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        assert replicator.divergence("s2") == 1
        assert not replicator.converged()
        replicator.flush(); net.quiesce()
        assert replicator.divergence("s2") == 0

    def test_divergence_counts_value_differences(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        master.update_pk("docs", "a", {"version": 9})
        # same key, stale value: one journal record behind
        assert replicator.divergence("s2") == 1
        assert replicator.members["s2"].db.get("docs", "a")["version"] == 1

    def test_batches_forward_down_the_tree(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush()
        net.quiesce()
        # leaves (depth 2) applied after interior nodes (depth 1)
        assert (
            replicator.last_applied_at["s4"]
            > replicator.last_applied_at["s2"]
        )
        # and heard it from their tree parent, not from the master
        assert set(replicator.shippers) == {"s1", "s2", "s3"}
        assert set(replicator.shippers["s1"].followers) == {"s2", "s3"}
        assert set(replicator.shippers["s2"].followers) == {"s4", "s5"}

    def test_interior_member_relays_once_per_received_batch(self, world):
        net, master, replicator = world
        for index in range(5):
            master.insert("docs", {"name": f"d{index}"})
        received = net.station("s4").messages_received
        replicator.flush()  # one batch of five frames
        net.quiesce()
        assert replicator.members["s4"].frames_applied == 5
        assert net.station("s4").messages_received == received + 1

    def test_flush_empty_is_noop(self, world):
        net, _master, replicator = world
        sent = net.total_messages
        assert replicator.flush() == 0
        assert net.total_messages == sent
        assert replicator.shippers["s1"].frames_shipped == 0

    def test_multiple_batches_apply_in_order(self, world):
        net, master, replicator = world
        for index in range(5):
            master.insert("docs", {"name": f"d{index}"})
            replicator.flush()
        net.quiesce()
        assert replicator.converged()
        assert replicator.shippers["s1"].frames_shipped == 5 * 2
        assert all(
            m.applied_lsn == 5 and m.frames_applied == 5
            for m in replicator.members.values()
        )
        assert _same_rows_everywhere(master, replicator)

    def test_master_without_journal_rejected(self, tmp_path):
        net = build_network(3)
        tree = MAryTree(3, 2, names=["s1", "s2", "s3"])
        bare = Database("bare")
        bare.create_table(DOCS)
        with pytest.raises(ValueError, match="no Journal attached"):
            MetadataReplicator(net, tree, bare, tmp_path)

    def test_inner_journal_still_written(self, tmp_path):
        """The master's journal is the stream: what recovery reads from
        it is what the members hold."""
        net, master, replicator = _cluster(tmp_path, 3, 2)
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        frames = list(read_frames(tmp_path / "master.wal"))
        assert [f.kind for f in frames] == ["txn"]
        recovered = Database.recover(
            "r", [DOCS], journal_path=str(tmp_path / "master.wal")
        )
        assert database_state(recovered) == database_state(master)
        assert _same_rows_everywhere(master, replicator, ("s2", "s3"))

    def test_member_journals_are_byte_prefixes_of_the_master(self, world):
        net, master, replicator = world
        for index in range(3):
            master.insert("docs", {"name": f"d{index}"})
        replicator.flush(); net.quiesce()
        net.set_down("s5")
        master.update_pk("docs", "d0", {"version": 2})
        master.delete_pk("docs", "d1")
        replicator.flush(); net.quiesce()
        stream = master.journal.path.read_bytes()
        for name in MEMBERS:
            held = _journal_bytes(replicator, name)
            assert stream.startswith(held), name
            assert (held == stream) == (name != "s5"), name

    def test_members_take_the_master_journals_sync_policy(self, tmp_path):
        net = build_network(3)
        tree = MAryTree(3, 2, names=["s1", "s2", "s3"])
        master = Database("master")
        master.create_table(DOCS)
        master.attach_journal(Journal(tmp_path / "master.wal", sync="interval-8"))
        replicator = MetadataReplicator(net, tree, master, tmp_path)
        for member in replicator.members.values():
            assert member.journal.sync_policy == master.journal.sync_policy

    def test_replicating_master_can_checkpoint(self, world, tmp_path):
        """A master that snapshots between flushes still converges: the
        members' position was checkpointed away, so the root serves the
        snapshot the owner's checkpoint wrote and the interior members
        pass theirs on.  (PR 18's regression — a replicating master
        could not snapshot at all — in its new form.)  Serving it
        leaves the owner's snapshot and journal alone: what they
        recover to is the master, before and after."""
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        master.snapshot(str(tmp_path / "snap.json"))
        master.insert("docs", {"name": "b"})
        owned = [("ckpt", 1), ("txn", 2)]
        assert [(f.kind, f.lsn) for f in read_frames(master.journal.path)] == \
            owned
        assert _owner_recovers_the_master(master, tmp_path / "snap.json")
        snapshot_bytes = (tmp_path / "snap.json").read_bytes()
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)
        for name in MEMBERS:
            assert (RecoveryStage.DOWNLOADING_SNAPSHOT
                    in replicator.members[name].stage_history), name
            assert _journal_bytes(replicator, name) == \
                master.journal.path.read_bytes()
        assert [(f.kind, f.lsn) for f in read_frames(master.journal.path)] == \
            owned
        assert (tmp_path / "snap.json").read_bytes() == snapshot_bytes
        assert _owner_recovers_the_master(master, tmp_path / "snap.json")

    def test_resync_serves_the_owners_latest_checkpoint(self, world, tmp_path):
        """The owner may checkpoint against a different file each time;
        the root serves whichever the journal's base belongs to."""
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        master.snapshot(str(tmp_path / "first"))
        master.insert("docs", {"name": "b"})
        master.snapshot(str(tmp_path / "second"))
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)
        assert all(m.applied_lsn == 2 and m.frames_applied == 0
                   for m in replicator.members.values())
        assert _owner_recovers_the_master(master, tmp_path / "second")


class TestRepair:
    def test_repair_heals_a_station_that_missed_batches(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        # s2 is unreachable and misses the next two records
        net.set_down("s2")
        master.insert("docs", {"name": "b"})
        master.update_pk("docs", "a", {"version": 5})
        replicator.flush(); net.quiesce()
        net.set_down("s2", down=False)
        assert replicator.divergence("s2") == 2
        replicator.repair("s2")
        net.quiesce()
        assert replicator.divergence("s2") == 0
        assert _same_rows_everywhere(master, replicator)

    def test_repair_removes_rows_master_deleted(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        net.set_down("s2")
        master.delete_pk("docs", "a")
        replicator.flush(); net.quiesce()
        net.set_down("s2", down=False)
        assert replicator.members["s2"].db.count("docs") == 1  # stale row
        replicator.repair("s2")
        net.quiesce()
        assert replicator.members["s2"].db.count("docs") == 0

    def test_repair_is_idempotent(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        replicator.repair("s2")
        replicator.repair("s2")
        net.quiesce()
        assert replicator.divergence("s2") == 0
        assert replicator.members["s2"].frames_applied == 1
        assert _same_rows_everywhere(master, replicator)

    def test_repair_heals_descendants_too(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        # nobody got the flush: everyone is down except the master
        for name in MEMBERS:
            net.set_down(name)
        replicator.flush(); net.quiesce()
        for name in MEMBERS:
            net.set_down(name, down=False)
        replicator.repair("s2")  # s2's subtree: s4, s5 in the m=2 tree
        net.quiesce()
        assert replicator.divergence("s2") == 0
        assert replicator.divergence("s4") == 0
        assert replicator.divergence("s5") == 0
        # outside s2's subtree remains stale until its own repair
        assert replicator.divergence("s3") == 1
        replicator.repair("s3")
        net.quiesce()
        assert replicator.converged()

    def test_member_down_during_flushes_heals_its_subtree(self, world):
        net, master, replicator = world
        net.set_down("s2")
        for index in range(4):
            master.insert("docs", {"name": f"d{index}"})
            replicator.flush(); net.quiesce()
        assert [replicator.divergence(n) for n in ("s2", "s4", "s5")] == \
            [4, 4, 4]
        assert [replicator.divergence(n) for n in ("s3", "s6", "s7")] == \
            [0, 0, 0]
        net.set_down("s2", down=False)
        replicator.repair("s2")
        net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)

    def test_dropped_batch_is_never_applied_past_the_hole(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        master.insert("docs", {"name": "b"})
        net.set_drop_rate(1.0)
        replicator.flush()  # LSN 2 is lost on the way to s2 and s3
        net.set_drop_rate(0.0)
        master.insert("docs", {"name": "c"})
        replicator.flush()  # LSN 3 is on the wire ...
        net.set_drop_rate(1.0)  # ... and nothing the members answer is
        net.quiesce()
        for name in MEMBERS:
            assert replicator.members[name].applied_lsn == 1, name
            assert replicator.members[name].db.get("docs", "c") is None, name
            assert replicator.divergence(name) == 2, name
        net.set_drop_rate(0.0)
        replicator.repair("s2")
        net.quiesce()
        assert [replicator.divergence(n) for n in ("s2", "s4", "s5")] == \
            [0, 0, 0]
        assert replicator.divergence("s3") == 2
        replicator.repair("s3")
        net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)

    def test_gap_heals_itself_on_the_next_batch(self, world):
        """``repair`` only does on demand what a member does by itself
        when a batch shows the hole."""
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        net.set_drop_rate(1.0)
        replicator.flush()
        net.set_drop_rate(0.0)
        master.insert("docs", {"name": "b"})
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)


class TestRestart:
    def test_restarted_member_replays_its_own_journal(self, world):
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        old = replicator.members["s4"]
        replicator.restart("s4")
        fresh = replicator.members["s4"]
        assert fresh is not old
        assert fresh.applied_lsn == 1  # before anything crosses the wire
        assert fresh.db.get("docs", "a") is not None
        master.insert("docs", {"name": "b"})
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)

    def test_interior_restart_past_a_master_checkpoint_resyncs_its_subtree(
        self, world, tmp_path
    ):
        """s2 crashes, the master commits seven more records and
        checkpoints past s2's position.  Restarted, s2 can only resync
        by snapshot — and so must s4 and s5, whose only source is s2:
        they resubscribe, find their LSN below s2's new journal, and
        are served s2's own ``replica.snapshot``."""
        net, master, replicator = world
        master.insert("docs", {"name": "a"})
        replicator.flush(); net.quiesce()
        net.set_down("s2")
        for index in range(7):
            master.insert("docs", {"name": f"later{index}"})
        replicator.flush(); net.quiesce()
        master.snapshot(str(tmp_path / "master-checkpoint"))
        assert master.journal.base_lsn == 8

        net.set_down("s2", down=False)
        replicator.restart("s2")
        net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)
        assert master.journal.base_lsn == 8  # served, not re-checkpointed
        assert _owner_recovers_the_master(
            master, tmp_path / "master-checkpoint")
        for name in ("s2", "s4", "s5"):
            assert (RecoveryStage.DOWNLOADING_SNAPSHOT
                    in replicator.members[name].stage_history), name
        assert replicator.shippers["s1"].snapshots_served == 1
        served = replicator.shippers["s2"].followers
        assert all(served[child].resyncs >= 1 for child in ("s4", "s5"))
        for name in ("s3", "s6", "s7"):  # never fell behind a checkpoint
            assert (RecoveryStage.DOWNLOADING_SNAPSHOT
                    not in replicator.members[name].stage_history), name

        # The relay now reads s2's *new* journal: later commits still
        # reach s4 and s5 through it, frame for frame.
        assert replicator.shippers["s2"].journal is \
            replicator.members["s2"].journal
        master.insert("docs", {"name": "after"})
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)
        stream = master.journal.path.read_bytes()
        for name in ("s2", "s4", "s5"):
            assert _journal_bytes(replicator, name) == stream, name
        assert _owner_recovers_the_master(
            master, tmp_path / "master-checkpoint")

    def test_interior_member_that_lost_its_disk_does_not_roll_back_its_children(
        self, world
    ):
        """s2 loses its directory and restarts from nothing, *behind*
        s4 and s5.  They are ahead on the same stream, not diverged:
        nothing is re-sent to them, nothing rolls them back, and they
        are streamed to again once s2 has passed them."""
        net, master, replicator = world
        for index in range(3):
            master.insert("docs", {"name": f"d{index}"})
        replicator.flush(); net.quiesce()
        before = {n: replicator.members[n].frames_applied
                  for n in ("s4", "s5")}
        replicator.members["s2"].stop()
        shutil.rmtree(replicator.data_dir / "s2")

        replicator.restart("s2")
        assert replicator.members["s2"].applied_lsn == 0
        net.quiesce()
        assert replicator.converged()
        relay = replicator.shippers["s2"]
        assert relay.frames_shipped == 0 and relay.snapshots_served == 0
        assert all(p.stage != "diverged" for p in relay.followers.values())

        master.insert("docs", {"name": "after"})
        replicator.flush(); net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator)
        assert relay.frames_shipped == 2  # the one new frame, to each child
        for name in ("s4", "s5"):
            member = replicator.members[name]
            assert member.frames_applied == before[name] + 1, name
            assert (RecoveryStage.DOWNLOADING_SNAPSHOT
                    not in member.stage_history), name
            assert member.db is not None and member.db.count("docs") == 4


class TestFullSchemaReplication:
    def test_document_database_replicates(self, tmp_path):
        """The real course schema (foreign keys and all) ships through
        the same machinery: members are built from the master's
        schemas, parents first."""
        from repro.core.schema import ALL_SCHEMAS

        net = build_network(4)
        names = [f"s{k}" for k in range(1, 5)]
        tree = MAryTree(4, 3, names=names)
        master = Database("master")
        for schema in ALL_SCHEMAS:
            master.create_table(schema)
        master.attach_journal(Journal(tmp_path / "master.wal"))
        replicator = MetadataReplicator(net, tree, master, tmp_path)

        master.insert("doc_databases", {
            "db_name": "mmu", "author": "shih",
            "created_at": dt.datetime(1999, 1, 1),
        })
        master.insert("scripts", {
            "script_name": "cs1", "db_name": "mmu", "author": "shih",
            "created_at": dt.datetime(1999, 1, 1),
        })
        net.quiesce()
        assert replicator.converged()
        assert _same_rows_everywhere(master, replicator, names[1:])
        assert replicator.members["s4"].db.get("scripts", "cs1")["author"] == "shih"
