"""Tests for broadcast redelivery and crashed-station rejoin."""

import shutil

import pytest

from repro.distribution import MAryTree, MetadataReplicator, PreBroadcaster
from repro.distribution.vector import BroadcastVector
from repro.fault import (
    FailureDetector,
    FaultInjector,
    FaultSchedule,
    RecoveryManager,
    RedeliveryService,
    RetryPolicy,
    TreeRepairer,
)
from repro.fault.crashsim import database_state
from repro.rdb import Column, ColumnType, Database, Schema
from repro.rdb.wal import Journal

from tests.conftest import build_network

T = ColumnType

DOCS = Schema(
    name="docs",
    columns=(
        Column("name", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
    ),
    primary_key=("name",),
)

MB = 1_000_000


def _cluster(n, m):
    network = build_network(n)
    vector = BroadcastVector(network)
    for name in network.names():
        vector.join(name)
    return network, vector, vector.tree(m)


class TestRedelivery:
    def test_crash_mid_broadcast_then_heal_completes_everyone(self):
        network, vector, tree = _cluster(16, 2)
        broadcaster = PreBroadcaster(network)
        # s3 roots a 7-station subtree; kill it early in the broadcast.
        injector = FaultInjector(network)
        injector.arm(FaultSchedule().crash(2.0, "s3"))
        broadcaster.broadcast("lec", 5 * MB, tree,
                              chunk_size_bytes=MB // 2)
        network.quiesce()
        incomplete = [
            name for name in tree.names
            if name != "s3" and not broadcaster.is_complete(name, "lec")
        ]
        assert incomplete, "the crash must actually orphan someone"

        report = TreeRepairer(vector, m=2).repair(["s3"])
        service = RedeliveryService(
            broadcaster, policy=RetryPolicy.fixed(5.0, max_retries=5)
        )
        heal = service.redeliver("lec", report.tree)
        network.quiesce()
        for name in vector.members():
            assert broadcaster.is_complete(name, "lec"), name
        assert sorted(heal.stations_healed) == sorted(incomplete)
        assert heal.bytes_redelivered > 0
        assert heal.chunks_redelivered > 0

    def test_redundant_bytes_match_broadcaster_counter(self):
        network, vector, tree = _cluster(16, 2)
        broadcaster = PreBroadcaster(network)
        injector = FaultInjector(network)
        injector.arm(FaultSchedule().crash(2.0, "s2"))
        broadcaster.broadcast("lec", 5 * MB, tree,
                              chunk_size_bytes=MB // 2)
        network.quiesce()
        report = TreeRepairer(vector, m=2).repair(["s2"])
        service = RedeliveryService(broadcaster)
        heal = service.redeliver("lec", report.tree)
        network.quiesce()
        assert heal.bytes_redelivered == broadcaster.bytes_redelivered

    def test_healthy_broadcast_needs_no_redelivery(self):
        network, vector, tree = _cluster(8, 2)
        broadcaster = PreBroadcaster(network)
        broadcaster.broadcast("lec", 2 * MB, tree, chunk_size_bytes=MB)
        network.quiesce()
        service = RedeliveryService(broadcaster)
        heal = service.redeliver("lec", tree)
        network.quiesce()
        assert heal.stations_healed == []
        assert heal.bytes_redelivered == 0
        assert heal.retry_rounds == 0

    def test_chunks_by_station_accounts_every_resend(self):
        network, vector, tree = _cluster(16, 2)
        broadcaster = PreBroadcaster(network)
        injector = FaultInjector(network)
        injector.arm(FaultSchedule().crash(2.0, "s3"))
        broadcaster.broadcast("lec", 5 * MB, tree,
                              chunk_size_bytes=MB // 2)
        network.quiesce()
        report = TreeRepairer(vector, m=2).repair(["s3"])
        service = RedeliveryService(broadcaster)
        heal = service.redeliver("lec", report.tree)
        network.quiesce()
        assert sum(heal.chunks_by_station.values()) == heal.chunks_redelivered

    def test_detector_to_redelivery_pipeline(self):
        """The whole fault stack end to end: inject -> detect -> repair
        -> redeliver, with the paper's >= 10% of stations crashing."""
        network, vector, tree = _cluster(16, 2)
        broadcaster = PreBroadcaster(network)
        schedule = FaultSchedule.random_crashes(
            [f"s{k}" for k in range(2, 17)], 0.2, (2.0, 20.0), seed=1,
        )
        assert len(schedule) >= 2  # >= 10% of 16 stations
        injector = FaultInjector(network)
        injector.arm(schedule)
        detector = FailureDetector(
            network, "s1", network.names(),
            heartbeat_interval_s=5.0,
            suspect_timeout_s=12.0,
            confirm_timeout_s=25.0,
        )
        detector.start(until=120.0)
        broadcaster.broadcast("lec", 5 * MB, tree,
                              chunk_size_bytes=MB // 2)
        network.quiesce()
        assert detector.confirmed_dead == injector.crashed

        report = TreeRepairer(vector, m=2).repair(detector.confirmed_dead)
        TreeRepairer.verify_tree(report.tree)
        service = RedeliveryService(broadcaster)
        service.redeliver("lec", report.tree)
        network.quiesce()
        for name in vector.members():
            assert broadcaster.is_complete(name, "lec"), name


class TestRejoin:
    def _world(self, tmp_path, n=3, m=2):
        network, vector, tree = _cluster(n, m)
        master = Database("master")
        master.create_table(DOCS)
        master.attach_journal(Journal(tmp_path / "master.wal"))
        replicator = MetadataReplicator(network, tree, master, tmp_path)
        network.quiesce()
        return network, vector, master, replicator

    def test_rejoin_revives_and_keeps_position(self, tmp_path):
        network, vector, *_ = self._world(tmp_path)
        network.set_down("s2", True)
        manager = RecoveryManager(network, vector)
        report = manager.rejoin("s2")
        assert not network.is_down("s2")
        assert report.position == 2
        assert report.restored_rows == 0 and report.frames_behind == 0

    def test_rejoin_after_eviction_joins_at_tail(self, tmp_path):
        network, vector, *_ = self._world(tmp_path)
        vector.leave("s2")
        manager = RecoveryManager(network, vector)
        report = manager.rejoin("s2")
        assert report.position == 3
        assert vector.members() == ["s1", "s3", "s2"]

    def test_rejoin_unknown_station_raises(self, tmp_path):
        network, vector, *_ = self._world(tmp_path)
        manager = RecoveryManager(network, vector)
        with pytest.raises(LookupError):
            manager.rejoin("ghost")

    def test_wal_restore_plus_delta_converges(self, tmp_path):
        """A crashed member restarts over its own directory: what its
        journal held is back before a byte crosses the wire, the rest
        streams from its tree parent."""
        network, vector, master, replicator = self._world(tmp_path)
        master.insert("docs", {"name": "a"})
        master.insert("docs", {"name": "b"})
        replicator.flush()
        network.quiesce()
        crashed = replicator.members["s2"]

        network.set_down("s2", True)
        master.insert("docs", {"name": "c"})
        master.update_pk("docs", "a", {"version": 2})
        replicator.flush()
        network.quiesce()
        assert replicator.divergence("s2") == 2

        manager = RecoveryManager(network, vector, replicator=replicator)
        report = manager.rejoin("s2")
        assert replicator.members["s2"] is not crashed
        assert report.restored_rows == 2  # replayed from its own journal
        assert report.frames_behind == 2
        network.quiesce()
        assert replicator.divergence("s2") == 0
        assert database_state(replicator.members["s2"].db) == \
            database_state(master)
        assert replicator.members["s2"].frames_applied == 2  # the delta only

    def test_delta_alone_heals_without_wal(self, tmp_path):
        """A station that lost its disk rejoins empty and streams the
        whole journal."""
        network, vector, master, replicator = self._world(tmp_path)
        master.insert("docs", {"name": "a"})
        replicator.flush()
        network.quiesce()
        network.set_down("s3", True)
        master.insert("docs", {"name": "b"})
        replicator.flush()
        network.quiesce()
        shutil.rmtree(tmp_path / "s3")
        manager = RecoveryManager(network, vector, replicator=replicator)
        report = manager.rejoin("s3")
        assert report.restored_rows == 0
        assert report.frames_behind == 2
        network.quiesce()
        assert replicator.divergence("s3") == 0
        assert database_state(replicator.members["s3"].db) == \
            database_state(master)

    def test_rejoins_are_recorded(self, tmp_path):
        network, vector, *_ = self._world(tmp_path)
        manager = RecoveryManager(network, vector)
        manager.rejoin("s2")
        manager.rejoin("s3")
        assert [r.station for r in manager.rejoins] == ["s2", "s3"]
