"""The 2PC crash matrix: every byte of every node's journal is a safe
place to die."""

from __future__ import annotations

from collections import Counter

from repro.sharding.cluster import ShardCluster
from repro.sharding.crash2pc import (
    build_2pc_workload,
    run_2pc_crash_matrix,
    run_2pc_golden,
    twopc_shard_map,
)


class TestGolden:
    def test_workload_is_deterministic_and_mixed(self):
        smap = twopc_shard_map(2)
        first = build_2pc_workload(smap, txns=9, seed=3)
        again = build_2pc_workload(smap, txns=9, seed=3)
        assert first == again
        routed = [
            {smap.shard_for_row(s[1], s[2]) for s in stmts
             if s[0] == "insert"}
            for stmts in first
        ]
        assert any(len(shards) == 1 for shards in routed)
        assert any(len(shards) == 2 for shards in routed)

    def test_golden_run_commits_everything(self, tmp_path):
        smap = twopc_shard_map(2)
        golden = run_2pc_golden(tmp_path, smap, txns=6)
        assert len(golden.states) == 7
        total_docs = sum(
            len(state["crash_docs"])
            for state in golden.states[-1].values()
        )
        assert total_docs >= 6
        # 2PC traffic reached the coordinator journal and every shard.
        assert golden.nodes == {"coord": "coord", "shard-0": 0, "shard-1": 1}
        for stream in golden.nodes:
            assert len(golden.boundaries[stream]) > 1
            size = (tmp_path / f"{stream}.wal").stat().st_size
            assert golden.boundaries[stream][-1] == size


class TestMatrix:
    def test_every_kill_point_recovers_all_or_nothing(self, tmp_path):
        report = run_2pc_crash_matrix(
            tmp_path, num_shards=2, txns=8, stride=160
        )
        assert report.cases, "matrix ran no cases"
        assert report.ok, "\n".join(
            f"{c.stream}@{c.offset}: {c.detail}"
            for c in report.failures
        )
        fired = [c for c in report.cases if c.crashed]
        assert fired, "no failpoint ever fired"
        # Both sides of the commit point appear across the sweep.
        assert {c.facts["matched"] for c in report.cases} >= \
            {"last-acked", "complete"}

    def test_eof_controls_complete_cleanly(self, tmp_path):
        report = run_2pc_crash_matrix(
            tmp_path, num_shards=2, txns=4, stride=4096
        )
        controls = [c for c in report.cases if not c.crashed]
        assert controls
        for case in controls:
            assert case.facts["matched"] == "complete", case

    def test_summary_reports_counts(self, tmp_path):
        report = run_2pc_crash_matrix(
            tmp_path, num_shards=2, txns=3, stride=4096
        )
        text = report.summary()
        assert "2pc crash matrix" in text
        assert str(len(report.cases)) in text
        assert "ok" in text

    def test_verdicts_match_the_pre_kit_harness(self, tmp_path,
                                                verdict_digest):
        """Pinned from the commit before the three harnesses became one
        kit (E20's published configurations): same points, same
        verdicts, same side of the commit point at every one."""
        dense = run_2pc_crash_matrix(
            tmp_path / "dense", num_shards=3, stride=16
        )
        assert dense.ok, dense.summary()
        assert (len(dense.cases), dense.fired) == (420, 404)
        assert Counter(c.facts["matched"] for c in dense.cases) == \
            {"last-acked": 373, "in-flight": 31, "complete": 16}
        assert verdict_digest(dense, "matched") == "3f263a3101d61766"

        coarse = run_2pc_crash_matrix(
            tmp_path / "coarse", num_shards=2, txns=10, stride=96
        )
        assert coarse.ok, coarse.summary()
        assert (len(coarse.cases), coarse.fired) == (89, 85)
        assert verdict_digest(coarse, "matched") == "5d3ae620f60098d9"

    def test_seeded_defect_fails_the_matrix(self, tmp_path, monkeypatch):
        """A ``recover_all`` that restarts every node but skips decision
        redelivery and in-doubt resolution leaves prepared transactions
        behind — the matrix must say where."""

        def restart_only(cluster):
            for shard_id in range(cluster.num_shards):
                cluster.restart_shard(shard_id)
            cluster.restart_coordinator()
            return {"redelivered": [], "resolved": {}}

        monkeypatch.setattr(ShardCluster, "recover_all", restart_only)
        args = dict(num_shards=2, txns=6, stride=4096)
        report = run_2pc_crash_matrix(tmp_path / "bad", **args)
        assert not report.ok
        for case in report.failures:
            assert case.stream in ("coord", "shard-0", "shard-1")
            assert "still in doubt" in case.detail \
                or "split or lost write" in case.detail
        # The very first point already strands a prepared transaction:
        # the coordinator dies before a byte of its first decision.
        first = report.failures[0]
        assert (first.stream, first.offset, first.crashed) == \
            ("coord", 0, True), first
        assert f'"offset": {first.offset}' in report.as_json()

        monkeypatch.undo()
        assert run_2pc_crash_matrix(tmp_path / "good", **args).ok
