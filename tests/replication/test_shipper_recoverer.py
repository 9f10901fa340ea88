"""WAL shipping end to end: subscribe, stream, resync, lag tracking."""

from __future__ import annotations

import pytest

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    database_state,
    verify_database,
)
from repro.net.messages import REPL_FRAMES, ReplFrameBatch
from repro.rdb import JournalCorruptError
from repro.rdb.wal import read_frames
from repro.replication import Recoverer, RecoveryStage


class TestCatchUp:
    def test_follower_reaches_primary_state(self, repl_cluster):
        cluster = repl_cluster()
        cluster.write(8)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        assert rec.caught_up
        assert rec.applied_lsn == cluster.journal.last_lsn == 8
        assert database_state(rec.db) == database_state(cluster.db)
        assert verify_database(rec.db) == []

    def test_live_tail_after_new_writes(self, repl_cluster):
        cluster = repl_cluster()
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        cluster.write(5)
        cluster.sync()
        assert rec.applied_lsn == 5
        assert database_state(rec.db) == database_state(cluster.db)

    def test_follower_journal_is_byte_prefix_of_primary(self, tmp_path, repl_cluster):
        cluster = repl_cluster()
        cluster.write(6)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        primary_bytes = (tmp_path / "primary.wal").read_bytes()
        follower_bytes = (tmp_path / "f1" / "replica.wal").read_bytes()
        assert follower_bytes == primary_bytes

    def test_ack_driven_batching_needs_one_drain(self, repl_cluster):
        cluster = repl_cluster()
        cluster.shipper.batch_frames = 2  # force many round trips
        cluster.write(9)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.network.quiesce()  # no explicit pump per batch
        assert rec.applied_lsn == 9

    def test_subscriber_at_horizon_learns_caught_up(self, repl_cluster):
        cluster = repl_cluster()
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        assert rec.stage is RecoveryStage.CAUGHT_UP

    def test_restarted_follower_resumes_from_applied_lsn(self, tmp_path, repl_cluster):
        cluster = repl_cluster()
        cluster.write(4)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        rec.stop()
        cluster.write(3)
        # Same data dir, fresh daemon: local recovery then stream resume.
        again = Recoverer(
            cluster.network, "f1", "primary", CRASH_SCHEMAS,
            tmp_path / "f1", sync_policy="commit", ddl_fn=cluster.ddl,
        )
        again.start()
        assert again.applied_lsn == 4  # from its own journal, pre-stream
        cluster.sync()
        assert again.applied_lsn == 7
        assert database_state(again.db) == database_state(cluster.db)


class TestSnapshotResync:
    def test_checkpointed_away_follower_downloads_snapshot(self, tmp_path, repl_cluster):
        cluster = repl_cluster()
        cluster.write(6)
        cluster.db.snapshot(str(tmp_path / "primary.snapshot"))
        cluster.write(3)
        rec = cluster.recoverers["f1"]
        rec.start()  # applied 0 < checkpoint base 6: must resync
        cluster.sync()
        assert RecoveryStage.DOWNLOADING_SNAPSHOT in rec.stage_history
        assert rec.applied_lsn == 9
        assert database_state(rec.db) == database_state(cluster.db)
        assert cluster.shipper.snapshots_served == 1

    def test_diverged_follower_is_resynced(self, repl_cluster):
        cluster = repl_cluster()
        cluster.write(3)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        # Fabricate divergence: the follower journals ahead of the
        # primary (a deposed primary's unacked tail looks like this).
        rec.journal.append(99, [["insert", "crash_docs", {
            "doc_id": 999, "title": "phantom", "version": 1, "body": "",
        }]])
        rec.applied_lsn = rec.journal.last_lsn
        rec.retarget("primary")
        cluster.network.quiesce()
        assert cluster.shipper.snapshots_served == 1
        assert rec.applied_lsn == cluster.journal.last_lsn
        assert database_state(rec.db) == database_state(cluster.db)

    def test_snapshot_install_survives_restart(self, tmp_path, repl_cluster):
        cluster = repl_cluster()
        cluster.write(5)
        cluster.db.snapshot(str(tmp_path / "primary.snapshot"))
        cluster.write(2)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        rec.stop()
        again = Recoverer(
            cluster.network, "f1", "primary", CRASH_SCHEMAS,
            tmp_path / "f1", sync_policy="commit", ddl_fn=cluster.ddl,
        )
        again.start()
        # Local-only recovery: snapshot watermark 5 + journal frames 6-7.
        assert again.applied_lsn == 7
        assert database_state(again.db) == database_state(cluster.db)


class TestLagTracking:
    def test_follower_progress_and_commit_horizon(self, repl_cluster):
        cluster = repl_cluster(followers=("f1", "f2"))
        cluster.write(4)
        for rec in cluster.recoverers.values():
            rec.start()
        cluster.sync()
        assert cluster.shipper.commit_horizon() == 4
        assert cluster.shipper.caught_up("f1")
        progress = cluster.shipper.followers["f1"]
        assert progress.lag == 0
        assert progress.status_reports >= 1

    def test_follower_that_lost_its_disk_resubscribes_below_its_ack(
        self, tmp_path, repl_cluster
    ):
        """Regression: the shipper kept the *highest* LSN a follower had
        ever acknowledged, so one that came back empty was streamed from
        its old position — a gap it answered by resubscribing, which
        was answered with the same gap, without end."""
        import shutil

        cluster = repl_cluster()
        cluster.write(3)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        assert cluster.shipper.followers["f1"].applied_lsn == 3
        rec.stop()
        shutil.rmtree(tmp_path / "f1")
        again = Recoverer(
            cluster.network, "f1", "primary", CRASH_SCHEMAS,
            tmp_path / "f1", sync_policy="commit", ddl_fn=cluster.ddl,
        )
        again.start()
        cluster.network.sim.run(until=cluster.network.sim.now + 5.0)
        assert cluster.network.sim.pending == 0
        assert again.applied_lsn == 3
        assert database_state(again.db) == database_state(cluster.db)

    def test_lag_is_the_last_report_only(self, repl_cluster):
        cluster = repl_cluster()
        rec = cluster.recoverers["f1"]
        rec.start()
        for _ in range(3):
            cluster.write(2)
            cluster.sync()
        progress = cluster.shipper.followers["f1"]
        assert progress.status_reports >= 3
        assert progress.lag == 0
        assert not hasattr(progress, "lag_samples")

    def test_lag_metrics_are_emitted(self, metrics_registry, repl_cluster):
        cluster = repl_cluster()
        cluster.write(5)
        cluster.recoverers["f1"].start()
        cluster.sync()
        names = set(metrics_registry.names())
        assert "replication.frames_shipped" in names
        assert "replication.bytes_shipped" in names
        assert "replica.applied_lsn" in names
        assert "replica.lag_records" in names
        assert "replication.stage_transitions" in names

    def test_epoch_fencing_ignores_stale_primary(self, repl_cluster):
        cluster = repl_cluster()
        cluster.write(3)
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        rec.epoch = 5  # follower has seen a promotion
        before = rec.applied_lsn
        cluster.write(2)
        cluster.sync()  # epoch-1 batches must be ignored
        assert rec.applied_lsn == before

    def test_shipped_lsn_must_match_the_frame_header(self, repl_cluster):
        """A batch entry that claims one LSN for a frame whose header
        says another is damage, not a second opinion: nothing is
        appended, nothing applied."""
        cluster = repl_cluster()
        rec = cluster.recoverers["f1"]
        rec.start()
        cluster.sync()
        cluster.write(2)
        second = list(read_frames(cluster.journal.path))[1]
        batch = ReplFrameBatch(
            epoch=1, frames=[(1, second.data)], primary_lsn=2,
        )
        cluster.network.send("primary", "f1", REPL_FRAMES, batch, 64)
        with pytest.raises(JournalCorruptError, match="header says 2"):
            cluster.network.quiesce()
        assert rec.applied_lsn == 0 and rec.journal.last_lsn == 0
        assert rec.db.count("crash_docs") == 0

    def test_shipper_ignores_future_epoch_subscription(self, repl_cluster):
        cluster = repl_cluster()
        cluster.write(3)
        rec = cluster.recoverers["f1"]
        rec.epoch = 9
        rec.start()
        cluster.network.quiesce()
        assert "f1" not in cluster.shipper.followers


class TestPackageDocs:
    def test_note_names_blob_layer_and_tree(self):
        import repro.replication as replication

        doc = replication.__doc__
        assert "repro.distribution.replication" in doc
        # not a third layer any more: a topology over this package
        assert "repro.distribution.syncdb" in doc
        assert "same stream" in doc

    @pytest.mark.parametrize("module_name", [
        "repro.distribution.replication", "repro.distribution.syncdb",
    ])
    def test_sibling_layers_point_back_here(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert "repro.replication" in module.__doc__


class TestResyncBreaker:
    """The breaker rate-limits full-snapshot resyncs on the primary."""

    def test_second_resync_within_window_is_refused(self, tmp_path,
                                                    repl_cluster):
        from repro.admission import CircuitBreaker

        cluster = repl_cluster(followers=("f1", "f2"))
        cluster.shipper.resync_breaker = CircuitBreaker(
            "resync:primary", failure_threshold=1, open_s=60.0,
        )
        # Checkpoint past both followers so each must snapshot-resync.
        cluster.write(6)
        cluster.db.snapshot(str(tmp_path / "primary.snapshot"))
        cluster.write(3)
        cluster.recoverers["f1"].start()
        cluster.sync()
        assert cluster.recoverers["f1"].caught_up
        assert cluster.shipper.snapshots_served == 1
        # One resync spent the breaker budget: the second follower's
        # snapshot request is refused until the cool-down expires.
        cluster.recoverers["f2"].start()
        cluster.sync()
        assert cluster.shipper.resyncs_refused >= 1
        assert cluster.shipper.snapshots_served == 1
        assert not cluster.recoverers["f2"].caught_up

    def test_no_breaker_means_unlimited_resyncs(self, tmp_path,
                                                repl_cluster):
        cluster = repl_cluster(followers=("f1", "f2"))
        cluster.write(6)
        cluster.db.snapshot(str(tmp_path / "primary.snapshot"))
        cluster.write(3)
        for name in ("f1", "f2"):
            cluster.recoverers[name].start()
        cluster.sync()
        assert cluster.shipper.snapshots_served == 2
        assert cluster.shipper.resyncs_refused == 0
        assert all(r.caught_up for r in cluster.recoverers.values())
