"""Two-phase commit: voting, blocking, recovery, redelivery.

Every scenario runs over a real :class:`~repro.sharding.cluster
.ShardCluster` — journal-backed participants, a journal-backed
coordinator — so each protocol claim is checked against what actually
hits the WALs, not against in-memory state alone.
"""

from __future__ import annotations

import pytest

from repro.fault.crashsim import (
    FailpointFile,
    SimulatedCrashError,
    database_state,
    verify_database,
)
from repro.rdb import DuplicateKeyError, TriggerEvent, TriggerTiming
from repro.rdb.wal import read_frames
from repro.sharding import TwoPhaseAborted, TwoPhaseError
from repro.sharding.participant import apply_statement
from repro.sharding.crash2pc import twopc_shard_map


def ids_for(shard_map, shard, n, start=1):
    """``n`` doc ids that hash onto ``shard``."""
    out, candidate = [], start
    while len(out) < n:
        if shard_map.shard_for_key("crash_docs", (candidate,)) == shard:
            out.append(candidate)
        candidate += 1
    return out


def doc(doc_id):
    return ["insert", "crash_docs", {
        "doc_id": doc_id, "title": f"doc-{doc_id:05d}",
        "version": 1, "body": "",
    }]


def journal_kinds(path):
    """The 2PC record kinds in one journal, in LSN order."""
    return [
        frame.payload["2pc"]
        for frame in read_frames(path)
        if frame.kind == "2pc"
    ]


@pytest.fixture
def cluster2(shard_cluster):
    smap = twopc_shard_map(2)
    return shard_cluster(2, shard_map=smap, use_net=False)


class TestCommitPath:
    @pytest.mark.parametrize("use_net", [False, True])
    def test_cross_shard_commit_applies_on_both(
        self, shard_cluster, use_net
    ):
        smap = twopc_shard_map(2)
        cluster = shard_cluster(2, shard_map=smap, use_net=use_net)
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster.sharded.transact([doc(a), doc(b)])
        assert cluster.sharded.get("crash_docs", a)["doc_id"] == a
        assert cluster.sharded.get("crash_docs", b)["doc_id"] == b
        p0, p1 = cluster.participants[0], cluster.participants[1]
        assert p0.db.count("crash_docs") == 1
        assert p1.db.count("crash_docs") == 1
        assert cluster.coordinator.commits == 1
        assert not cluster.coordinator.outstanding

    def test_protocol_records_hit_every_journal(self, cluster2):
        smap = cluster2.shard_map
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster2.sharded.transact([doc(a), doc(b)])
        assert journal_kinds(cluster2.coord_journal_path()) == \
            ["decision", "end"]
        for shard in (0, 1):
            assert journal_kinds(cluster2.shard_journal_path(shard)) == \
                ["prepare", "commit"]

    def test_single_shard_route_writes_no_protocol_records(
        self, cluster2
    ):
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        cluster2.sharded.insert("crash_docs", doc(a)[2])
        assert journal_kinds(cluster2.coord_journal_path()) == []
        assert journal_kinds(cluster2.shard_journal_path(0)) == []
        assert cluster2.sharded.stats()["direct_writes"] == 1
        assert cluster2.sharded.stats()["twopc_writes"] == 0

    def test_committed_transaction_survives_full_restart(self, cluster2):
        smap = cluster2.shard_map
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster2.sharded.transact([doc(a), doc(b)])
        cluster2.recover_all()
        for shard, doc_id in ((0, a), (1, b)):
            participant = cluster2.participants[shard]
            assert participant.db.exists("crash_docs", doc_id)
            assert verify_database(participant.db) == []

    def test_prepare_after_a_failed_statement_carries_none_of_it(
        self, cluster2
    ):
        """A session that survives a statement error and goes on to
        prepare votes on the surviving statements only: what the failed
        multi-row update did to its first row is in neither the PREPARE
        record nor the shard that replays it."""
        a, b, c = ids_for(cluster2.shard_map, 0, 3)
        p0 = cluster2.participants[0]
        p0.execute([doc(a), doc(b)])
        db = p0.db
        db.begin()
        with pytest.raises(DuplicateKeyError):
            apply_statement(db, ["update", "crash_docs", {"title": "same"}, None])
        apply_statement(db, doc(c))
        ops = db.pending_wal_ops()
        assert [op[:2] for op in ops] == [["insert", "crash_docs"]]
        db.rollback()
        for record in ({"2pc": "prepare", "gtxn": "g-1", "ops": ops},
                       {"2pc": "commit", "gtxn": "g-1"}):
            p0.journal.append_2pc(record)
            db.apply_2pc(record)
        live = database_state(db)
        assert {row["title"] for row in db.select("crash_docs")} == {
            doc(n)[2]["title"] for n in (a, b, c)
        }
        cluster2.recover_all()
        assert database_state(cluster2.participants[0].db) == live

    def test_participant_commit_is_idempotent(self, cluster2):
        smap = cluster2.shard_map
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster2.sharded.transact([doc(a), doc(b)])
        p0 = cluster2.participants[0]
        (gtxn,) = p0.db.outcomes
        assert p0.commit(gtxn) is True  # redelivery after the fact
        assert p0.db.count("crash_docs") == 1


class TestAbortPath:
    def test_vote_no_rolls_back_every_shard(self, cluster2):
        smap = cluster2.shard_map
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster2.sharded.transact([doc(b)])
        # Shard 1 will vote no (duplicate pk) after shard 0 prepared.
        with pytest.raises(TwoPhaseAborted) as excinfo:
            cluster2.sharded.transact([doc(a), doc(b)])
        assert 1 in excinfo.value.reasons
        assert cluster2.participants[0].db.count("crash_docs") == 0
        assert cluster2.coordinator.aborts == 1
        # Presumed abort: nothing on the coordinator's journal, a
        # prepare/abort pair on the shard that briefly held locks.
        assert journal_kinds(cluster2.coord_journal_path()) == []
        assert journal_kinds(cluster2.shard_journal_path(0)) == \
            ["prepare", "abort"]

    def test_blocked_participant_refuses_and_votes_no(self, cluster2):
        smap = cluster2.shard_map
        a, c = ids_for(smap, 0, 2)
        (b,) = ids_for(smap, 1, 1)
        p0 = cluster2.participants[0]
        ballot = p0.prepare("g-held", [doc(a)])
        assert ballot["vote"] is True
        with pytest.raises(TwoPhaseError, match="blocked"):
            p0.execute([doc(c)])
        with pytest.raises(TwoPhaseAborted):
            cluster2.sharded.transact([doc(c), doc(b)])
        p0.abort("g-held")
        cluster2.sharded.transact([doc(c), doc(b)])  # unblocked now

    @pytest.mark.parametrize("stmt, error", [
        (["insert", "crash_docs", {"doc_id": 1, "title": "t",
                                   "version": "not-an-int"}], "version"),
        (["insert", "crash_docs", None], "NoneType"),
        (["delete", "crash_docs", "doc_id = 1"], "str"),
    ], ids=["wrong-typed value", "None row", "non-Expr where"])
    def test_malformed_statement_votes_no_and_unblocks(
        self, cluster2, stmt, error
    ):
        """A statement of the wrong shape is input, not a crash: the
        vote is no, the engine transaction is rolled back, and the
        shard takes the next prepare (it used to vote "blocked" for
        ever, the transaction left open behind the escaped error)."""
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]
        ballot = p0.prepare("g-1", [doc(a), stmt])
        assert ballot["vote"] is False and error in ballot["error"]
        assert not p0.db.in_transaction
        assert p0.db.count("crash_docs") == 0
        assert journal_kinds(cluster2.shard_journal_path(0)) == []
        assert p0.prepare("g-2", [doc(a)])["vote"] is True
        assert p0.commit("g-2") and p0.db.count("crash_docs") == 1

    def test_crash_inside_a_statement_propagates_but_rolls_back(
        self, cluster2
    ):
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]

        def die(_ctx):
            raise SimulatedCrashError("mid-statement")

        p0.db.register_trigger(
            "die", "crash_docs", TriggerEvent.INSERT, TriggerTiming.AFTER, die
        )
        with pytest.raises(SimulatedCrashError):
            p0.prepare("g-1", [doc(a)])
        assert not p0.db.in_transaction
        assert p0.db.count("crash_docs") == 0

    def test_commit_after_abort_is_a_protocol_error(self, cluster2):
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]
        p0.prepare("g-1", [doc(a)])
        p0.abort("g-1")
        with pytest.raises(TwoPhaseError, match="aborted"):
            p0.commit("g-1")

    def test_abort_after_commit_is_a_protocol_error(self, cluster2):
        """The mirror case: an abort for a committed transaction is not
        acknowledged, and the committed row stays."""
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]
        p0.prepare("g-2", [doc(a)])
        p0.commit("g-2")
        with pytest.raises(TwoPhaseError, match="committed"):
            p0.abort("g-2")
        assert p0.db.exists("crash_docs", a)
        assert journal_kinds(cluster2.shard_journal_path(0)) == \
            ["prepare", "commit"]

    def test_a_prepared_row_is_invisible_until_its_outcome(self, cluster2):
        """No dirty read: between its prepare and its outcome a shard
        serves its committed state, so a row that is then aborted was
        never seen."""
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]
        assert p0.prepare("g-1", [doc(a)])["vote"] is True
        assert p0.count("crash_docs") == 0
        assert p0.get("crash_docs", a) is None
        assert not p0.db.in_transaction
        p0.abort("g-1")
        assert p0.count("crash_docs") == 0
        assert p0.prepare("g-2", [doc(a)])["vote"] is True
        assert p0.select("crash_docs") == []
        p0.commit("g-2")
        assert p0.get("crash_docs", a)["doc_id"] == a


class TestRecovery:
    def test_in_doubt_until_resolved_commit(self, cluster2):
        smap = cluster2.shard_map
        (a,) = ids_for(smap, 0, 1)
        p0 = cluster2.participants[0]
        assert p0.prepare("g-7", [doc(a)])["vote"] is True
        # The coordinator journaled its decision but the participant
        # crashed before the outcome arrived.
        cluster2.coordinator.journal.append_2pc({
            "2pc": "decision", "gtxn": "g-7",
            "outcome": "commit", "shards": [0],
        })
        cluster2.coordinator.outstanding["g-7"] = [0]
        p0 = cluster2.restart_shard(0)
        assert list(p0.in_doubt) == ["g-7"]
        with pytest.raises(TwoPhaseError, match="in-doubt"):
            p0.execute([doc(a)])
        outcomes = p0.resolve_in_doubt(cluster2.coordinator.resolve)
        assert outcomes == {"g-7": "commit"}
        assert p0.db.exists("crash_docs", a)
        assert verify_database(p0.db) == []

    def test_presumed_abort_without_decision(self, cluster2):
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]
        assert p0.prepare("g-9", [doc(a)])["vote"] is True
        p0 = cluster2.restart_shard(0)
        assert list(p0.in_doubt) == ["g-9"]
        outcomes = p0.resolve_in_doubt(cluster2.coordinator.resolve)
        assert outcomes == {"g-9": "abort"}
        assert not p0.db.exists("crash_docs", a)
        p0.execute([doc(a)])  # writable again

    def test_redelivered_commit_settles_in_doubt_participant(
        self, cluster2
    ):
        """The redelivery/resolution race: the restarted coordinator
        re-sends commit before the participant asked to resolve."""
        smap = cluster2.shard_map
        (a,) = ids_for(smap, 0, 1)
        p0 = cluster2.participants[0]
        p0.prepare("g-5", [doc(a)])
        cluster2.coordinator.journal.append_2pc({
            "2pc": "decision", "gtxn": "g-5",
            "outcome": "commit", "shards": [0],
        })
        cluster2.coordinator.outstanding["g-5"] = [0]
        p0 = cluster2.restart_shard(0)
        cluster2.restart_coordinator()
        assert cluster2.coordinator.outstanding == {"g-5": [0]}
        assert cluster2.coordinator.redeliver() == ["g-5"]
        assert p0.in_doubt == {}
        assert p0.db.exists("crash_docs", a)
        assert "end" in journal_kinds(cluster2.coord_journal_path())

    def test_coordinator_redelivers_after_dropped_ack(self, cluster2):
        smap = cluster2.shard_map
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        p1 = cluster2.participants[1]

        class DropFirstCommit:
            def __init__(self, inner):
                self.inner = inner
                self.dropped = False

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def commit(self, gtxn):
                if not self.dropped:
                    self.dropped = True
                    raise RuntimeError("message lost")
                return self.inner.commit(gtxn)

        cluster2.coordinator.participants[1] = DropFirstCommit(p1)
        cluster2.sharded.transact([doc(a), doc(b)])  # acked regardless
        assert len(cluster2.coordinator.outstanding) == 1
        assert p1.status()["in_doubt"] != []  # still holding locks
        assert cluster2.coordinator.redeliver()
        assert p1.status()["in_doubt"] == []
        assert p1.db.exists("crash_docs", b)
        assert not cluster2.coordinator.outstanding

    def test_resolve_answers_abort_for_forgotten_transactions(
        self, cluster2
    ):
        smap = cluster2.shard_map
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster2.sharded.transact([doc(a), doc(b)])
        (gtxn,) = cluster2.participants[0].db.outcomes
        # END was journaled, the coordinator forgot the exchange; only
        # in-doubt participants ask, and none can exist for it.
        assert cluster2.coordinator.resolve(gtxn) == "abort"

    def test_checkpoint_refused_while_prepared_or_in_doubt(
        self, cluster2, tmp_path
    ):
        (a,) = ids_for(cluster2.shard_map, 0, 1)
        p0 = cluster2.participants[0]
        p0.prepare("g-3", [doc(a)])
        with pytest.raises(TwoPhaseError, match="checkpoint"):
            p0.checkpoint(tmp_path / "s0.snapshot")
        p0 = cluster2.restart_shard(0)  # now in doubt instead
        with pytest.raises(TwoPhaseError, match="checkpoint"):
            p0.checkpoint(tmp_path / "s0.snapshot")
        p0.resolve_in_doubt(lambda gtxn: "abort")
        p0.checkpoint(tmp_path / "s0.snapshot")  # unblocked


class TestLiveCrash:
    def test_participant_killed_mid_commit_frame_resolves_commit(
        self, shard_cluster
    ):
        """Arm shard 1 to die inside its COMMIT append: the decision is
        durable, the ack stands, recovery must re-apply — the canonical
        'no lost acked write' case, driven through the live stack."""
        smap = twopc_shard_map(2)
        cluster = shard_cluster(2, shard_map=smap, use_net=False)
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        # Measure the prepare frame so the failpoint lands in the
        # commit frame that follows it.
        probe = cluster.participants[1]
        before = cluster.shard_journal_path(1).stat().st_size
        probe.prepare("g-probe", [doc(b)])
        prepare_len = \
            cluster.shard_journal_path(1).stat().st_size - before
        probe.abort("g-probe")
        abort_len = cluster.shard_journal_path(1).stat().st_size \
            - before - prepare_len
        base = cluster.shard_journal_path(1).stat().st_size
        cluster.restart_shard(1, file_wrapper=lambda fh: FailpointFile(
            fh, base + prepare_len + abort_len // 2
        ))
        cluster.sharded.transact([doc(a), doc(b)])  # ack despite crash
        assert len(cluster.coordinator.outstanding) == 1
        summary = cluster.recover_all()
        assert summary["resolved"] in ({}, {"g-2": "commit"})
        for shard, doc_id in ((0, a), (1, b)):
            participant = cluster.participants[shard]
            assert participant.db.exists("crash_docs", doc_id)
            assert verify_database(participant.db) == []
        assert not cluster.coordinator.outstanding


class TestMetrics:
    def test_2pc_outcomes_and_fanout_are_instrumented(
        self, shard_cluster, metrics_registry
    ):
        smap = twopc_shard_map(2)
        cluster = shard_cluster(2, shard_map=smap, use_net=False)
        (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
        cluster.sharded.transact([doc(a), doc(b)])
        with pytest.raises(TwoPhaseAborted):
            cluster.sharded.transact([doc(a), doc(b)])
        cluster.sharded.select("crash_docs")
        names = set(metrics_registry.names())
        assert "shard.2pc" in names
        assert "shard.2pc_seconds" in names
        assert "shard.statements" in names
        assert "shard.fanout" in names
