"""Failover promotion on the replication tree: election, epoch fencing,
rejoin — on the star (m = N-1) and on a deeper tree."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.distribution import MAryTree, MetadataReplicator
from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    CrashWorkload,
    apply_workload_txn,
    crash_ddl,
    database_state,
    verify_database,
)
from repro.net.messages import REPL_STATUS, REPL_SUBSCRIBE
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.replication import Recoverer, RecoveryStage
from repro.util.rng import make_rng


def _group(tmp_path, names, m):
    """A primary running the crash kit's workload, replicated down the
    tree ``names`` at arity ``m``; every member subscribed."""
    network = Network(Simulator(), default_latency_s=0.002)
    for name in names:
        network.add(Station(name))
    workload = CrashWorkload(tmp_path / f"{names[0]}.wal", name=names[0])
    replicator = MetadataReplicator(
        network, MAryTree(len(names), m, names=names), workload.db,
        tmp_path, ddl_fn=crash_ddl,
    )
    network.quiesce()
    g = SimpleNamespace(network=network, workload=workload,
                        replicator=replicator, db=workload.db)
    g.write = workload.run

    def sync():
        replicator.flush()
        network.quiesce()

    g.sync = sync
    return g


@pytest.fixture
def cluster(tmp_path):
    """Primary + two caught-up followers: the tree at m = N-1, a star."""
    c = _group(tmp_path, ["primary", "f1", "f2"], m=2)
    c.old_shipper = c.replicator.shippers["primary"]
    c.write(6)
    c.sync()
    return c


def _write_at_master(replicator, keys, tag):
    rng = make_rng(1, tag)
    for k in keys:
        apply_workload_txn(replicator.master, k, rng)


class TestElection:
    def test_highest_applied_lsn_wins(self, cluster):
        # Hold f1 back: kill it, then write more so f2 pulls ahead.
        cluster.network.set_down("f1", True)
        cluster.write(3)
        cluster.sync()
        members = cluster.replicator.members
        assert members["f2"].applied_lsn == 9
        assert members["f1"].applied_lsn == 6
        cluster.network.set_down("f1", False)
        cluster.network.set_down("primary", True)
        assert cluster.replicator.promote().new_primary == "f2"

    def test_a_tie_goes_to_the_earlier_member_in_tree_order(self, cluster):
        cluster.network.set_down("primary", True)
        report = cluster.replicator.promote()
        assert report.candidate_lsns == {"f1": 6, "f2": 6}
        assert report.new_primary == "f1"

    def test_down_followers_are_not_candidates(self, cluster):
        cluster.network.set_down("f1", True)
        assert cluster.replicator.promote().new_primary == "f2"

    def test_no_live_follower_raises(self, cluster):
        cluster.network.set_down("f1", True)
        cluster.network.set_down("f2", True)
        with pytest.raises(RuntimeError):
            cluster.replicator.promote()
        assert cluster.replicator.master is cluster.db  # nothing moved


class TestPromotion:
    def test_promotion_preserves_every_replicated_commit(self, cluster):
        committed = database_state(cluster.db)
        cluster.network.set_down("primary", True)
        report = cluster.replicator.promote()
        replicator = cluster.replicator
        new_shipper = replicator.shippers[report.new_primary]
        assert replicator.tree.name_of(1) == report.new_primary
        assert report.new_primary not in replicator.members
        assert report.promoted_lsn == 6
        assert new_shipper.journal.last_lsn == 6
        assert database_state(replicator.master) == committed

    def test_new_epoch_is_fenced_above_old(self, cluster):
        cluster.network.set_down("primary", True)
        report = cluster.replicator.promote()
        assert report.epoch == cluster.old_shipper.epoch + 1
        assert all(shipper.epoch == report.epoch
                   for shipper in cluster.replicator.shippers.values())

    def test_survivors_retarget_and_follow_new_writes(self, cluster):
        cluster.network.set_down("primary", True)
        report = cluster.replicator.promote()
        replicator = cluster.replicator
        cluster.network.quiesce()
        (survivor,) = replicator.members.values()
        assert survivor.primary_name == report.new_primary
        _write_at_master(replicator, range(100, 104), "post-failover")
        replicator.flush()
        cluster.network.quiesce()
        assert replicator.converged()
        assert database_state(survivor.db) == database_state(replicator.master)
        assert survivor.epoch == report.epoch
        assert verify_database(survivor.db) == []

    def test_promotion_metric(self, cluster, metrics_registry):
        cluster.network.set_down("primary", True)
        cluster.replicator.promote()
        assert "replication.promotions" in set(metrics_registry.names())

    def test_unreplicated_tail_is_not_promised(self, cluster):
        """Commits the primary journaled but never shipped are lost on
        failover — the async-replication contract E18 verifies the
        *converse* of (everything shipped survives)."""
        acked_at_horizon = database_state(cluster.db)
        cluster.network.set_down("primary", True)  # down BEFORE pump
        cluster.write(2)  # journaled locally, never shipped
        report = cluster.replicator.promote()
        assert report.promoted_lsn == 6
        assert database_state(cluster.replicator.master) == acked_at_horizon


class TestRejoin:
    def test_old_primary_rejoins_as_follower(self, cluster):
        cluster.network.set_down("primary", True)
        cluster.write(2)  # diverging unacked tail on the old primary
        report = cluster.replicator.promote()
        cluster.network.quiesce()
        replicator = cluster.replicator

        cluster.network.set_down("primary", False)
        replicator.restart("primary")
        cluster.network.quiesce()
        rejoined = replicator.members["primary"]
        assert not cluster.network.is_down("primary")
        assert database_state(rejoined.db) == database_state(replicator.master)
        assert rejoined.epoch == report.epoch
        # It is a follower in the new group now, at the tail: still a star.
        assert replicator.tree.names == ["f1", "f2", "primary"]
        assert rejoined.primary_name == "f1"
        assert verify_database(rejoined.db) == []

    def test_a_deposed_member_with_unshipped_commits_is_resynced(
        self, cluster
    ):
        """f1 is promoted, journals two commits it never ships, and is
        deposed in turn; f2 commits three of its own, so f1's LSN is one
        the master also has.  Rejoining, f1's history at that LSN differs
        from the master's: it is resynced by snapshot, not streamed on
        top of rows no one else has."""
        network, replicator = cluster.network, cluster.replicator
        network.set_down("primary", True)
        assert replicator.promote().new_primary == "f1"
        network.quiesce()
        network.set_down("f1", True)
        _write_at_master(replicator, range(100, 102), "unshipped")
        assert replicator.master.journal.last_lsn == 8
        report = replicator.promote()
        assert (report.new_primary, report.promoted_lsn) == ("f2", 6)
        _write_at_master(replicator, range(200, 203), "new-master")
        replicator.flush()
        network.quiesce()
        acked = database_state(replicator.master)

        network.set_down("f1", False)
        replicator.restart("f1")
        network.quiesce()
        rejoined = replicator.members["f1"]
        assert rejoined.primary_name == "f2"
        assert replicator.converged()
        # Nothing the master acknowledged is lost, and f1 keeps nothing
        # of its own.
        assert database_state(replicator.master) == acked
        assert database_state(rejoined.db) == acked
        assert RecoveryStage.DOWNLOADING_SNAPSHOT in rejoined.stage_history
        assert verify_database(rejoined.db) == []

    def test_deposed_shipper_cannot_serve_new_epoch_subscribers(
        self, cluster, tmp_path
    ):
        cluster.network.set_down("primary", True)
        report = cluster.replicator.promote()
        cluster.network.quiesce()
        # Model a zombie that missed its own deposition: back up with its
        # protocol handlers still (re-)attached.
        cluster.network.set_down("primary", False)
        zombie = cluster.old_shipper
        station = cluster.network.station("primary")
        station.on(REPL_SUBSCRIBE, zombie._on_subscribe)
        station.on(REPL_STATUS, zombie._on_status)
        cluster.network.add(Station("f3"))
        # A new-epoch follower subscribing to the OLD primary gets
        # nothing: the deposed shipper drops higher-epoch subscriptions.
        stray = Recoverer(
            cluster.network, "f3", "primary", CRASH_SCHEMAS,
            tmp_path / "f3", sync_policy="commit", ddl_fn=crash_ddl,
            epoch=report.epoch,
        )
        stray.start()
        cluster.network.quiesce()
        assert stray.applied_lsn == 0
        assert "f3" not in zombie.followers


class TestDeepTree:
    def test_promotion_at_m2_rederives_the_tree(self, tmp_path):
        """N = 6 at m = 2: s1 dies with an unshipped tail, s2 wins, the
        tree is recomputed over (s2, s3, s4, s5, s6), and every survivor
        follows the new master's writes down it."""
        names = ["s1", "s2", "s3", "s4", "s5", "s6"]
        g = _group(tmp_path, names, m=2)
        g.write(5)
        g.sync()
        acked = g.workload.journal.last_lsn
        g.network.set_down("s1", True)
        g.write(2)  # journaled, never shipped

        report = g.replicator.promote()
        replicator = g.replicator
        assert (report.new_primary, report.promoted_lsn) == ("s2", acked)
        assert database_state(replicator.master) == \
            g.workload.state_at_lsn(acked)
        survivors = names[1:]
        expected = MAryTree(len(survivors), 2, names=survivors)
        assert replicator.tree.names == survivors
        for name, member in replicator.members.items():
            assert member.primary_name == expected.parent_name(name), name
        assert set(replicator.shippers) == {"s2", "s3"}

        _write_at_master(replicator, range(100, 106), "deep-failover")
        replicator.flush()
        g.network.quiesce()
        assert replicator.converged()
        wanted = database_state(replicator.master)
        for name, member in replicator.members.items():
            assert database_state(member.db) == wanted, name
            assert member.epoch == report.epoch, name
            assert verify_database(member.db) == [], name
        # The deposed root rejoins at the tail, under position 6's parent.
        g.network.set_down("s1", False)
        replicator.restart("s1")
        g.network.quiesce()
        assert replicator.members["s1"].primary_name == "s4"
        assert database_state(replicator.members["s1"].db) == wanted

    def test_a_deposed_member_rejoining_under_a_relay_is_resynced_by_it(
        self, tmp_path
    ):
        """N = 6 at m = 2: s2 is promoted, journals two commits it never
        ships and is deposed; s3 wins and commits four.  s2 rejoins at
        the tail, under s4, a relay that never installed a snapshot.
        s2's digest at LSN 7 is not s4's, so s4 snapshots its own engine
        and resyncs s2 from it: resync traffic stays on the tree edge."""
        names = ["s1", "s2", "s3", "s4", "s5", "s6"]
        g = _group(tmp_path, names, m=2)
        g.write(5)
        g.sync()
        g.network.set_down("s1", True)
        replicator = g.replicator
        assert replicator.promote().new_primary == "s2"
        g.network.quiesce()
        g.network.set_down("s2", True)
        _write_at_master(replicator, range(100, 102), "unshipped")
        report = replicator.promote()
        assert (report.new_primary, report.promoted_lsn) == ("s3", 5)
        _write_at_master(replicator, range(200, 204), "new-master")
        replicator.flush()
        g.network.quiesce()
        assert replicator.master.journal.last_lsn == 9
        assert not (tmp_path / "s4" / "replica.snapshot").exists()

        g.network.set_down("s2", False)
        replicator.restart("s2")
        g.network.quiesce()
        rejoined = replicator.members["s2"]
        assert rejoined.primary_name == "s4"
        assert replicator.converged()
        assert database_state(rejoined.db) == \
            database_state(replicator.master)
        assert RecoveryStage.DOWNLOADING_SNAPSHOT in rejoined.stage_history
        assert replicator.shippers["s4"].snapshots_served == 1
        assert (tmp_path / "s4" / "replica.snapshot").exists()
        assert replicator.shippers["s3"].snapshots_served == 0
        assert verify_database(rejoined.db) == []

    def test_a_member_ahead_of_its_new_parent_is_not_resynced(self, tmp_path):
        """s3 was down for two commits that s5 (under s2) received.  In
        the re-derived tree s5 hangs under s3: it is registered at its
        own LSN, not re-sent anything, and streamed to once s3 passes
        it."""
        names = ["s1", "s2", "s3", "s4", "s5", "s6"]
        g = _group(tmp_path, names, m=2)
        g.write(3)
        g.sync()
        g.network.set_down("s3", True)
        g.write(2)
        g.sync()
        g.network.set_down("s3", False)
        members = g.replicator.members
        assert (members["s3"].applied_lsn, members["s5"].applied_lsn) == (3, 5)
        before = members["s5"].frames_applied
        g.network.set_down("s1", True)

        report = g.replicator.promote()
        replicator = g.replicator
        assert report.new_primary == "s2"
        assert members["s5"].primary_name == "s3"
        g.network.quiesce()
        assert replicator.converged()
        _write_at_master(replicator, range(100, 103), "ahead")
        replicator.flush()
        g.network.quiesce()
        assert replicator.converged()
        s5 = members["s5"]
        assert s5.frames_applied == before + 3
        assert RecoveryStage.DOWNLOADING_SNAPSHOT not in s5.stage_history
        assert database_state(s5.db) == database_state(replicator.master)
