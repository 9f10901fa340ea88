"""The crash-matrix kit and the single-engine scenario's guarantees."""

from __future__ import annotations

import json

import pytest

from repro.fault import crashsim
from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    FailpointFile,
    SimulatedCrashError,
    build_crash_db,
    crash_points,
    database_state,
    iter_live_crashes,
    recover_crash_db,
    run_crash_matrix,
    run_crash_workload,
    verify_database,
)
from repro.rdb import Database, JournalCorruptError
from repro.rdb.wal import Journal


class TestFailpointFile:
    def _wrap(self, tmp_path, crash_at, mode="truncate"):
        path = tmp_path / "out.bin"
        fh = path.open("wb")
        return path, FailpointFile(fh, crash_at, mode=mode)

    def test_writes_below_failpoint_pass_through(self, tmp_path):
        path, wrapped = self._wrap(tmp_path, 100)
        wrapped.write(b"hello")
        wrapped.flush()
        assert path.read_bytes() == b"hello"
        assert wrapped.written == 5

    def test_truncate_mode_keeps_exact_prefix(self, tmp_path):
        path, wrapped = self._wrap(tmp_path, 3)
        with pytest.raises(SimulatedCrashError):
            wrapped.write(b"abcdef")
        assert path.read_bytes() == b"abc"

    def test_garble_mode_flips_byte_at_failpoint(self, tmp_path):
        path, wrapped = self._wrap(tmp_path, 3, mode="garble")
        with pytest.raises(SimulatedCrashError):
            wrapped.write(b"abcdef")
        assert path.read_bytes() == b"abc" + bytes([ord("d") ^ 0x40])

    def test_all_writes_fail_after_crash(self, tmp_path):
        _, wrapped = self._wrap(tmp_path, 0)
        with pytest.raises(SimulatedCrashError):
            wrapped.write(b"x")
        with pytest.raises(SimulatedCrashError):
            wrapped.write(b"y")
        assert wrapped.crashed

    def test_counts_preexisting_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"12345")
        fh = path.open("ab")
        wrapped = FailpointFile(fh, 7)
        with pytest.raises(SimulatedCrashError):
            wrapped.write(b"abcdef")
        fh.close()
        assert path.read_bytes() == b"12345ab"

    def test_rejects_bad_args(self, tmp_path):
        path = tmp_path / "out.bin"
        with path.open("wb") as fh:
            with pytest.raises(ValueError):
                FailpointFile(fh, -1)
            with pytest.raises(ValueError):
                FailpointFile(fh, 0, mode="explode")


class TestWorkload:
    def test_workload_is_deterministic(self, tmp_path):
        a = run_crash_workload(tmp_path / "a", txns=10, seed=5)
        b = run_crash_workload(tmp_path / "b", txns=10, seed=5)
        assert a.data == b.data
        assert a.acks[-1].state == b.acks[-1].state

    def test_ack_extents_tile_the_journal(self, tmp_path):
        workload = run_crash_workload(tmp_path, txns=10, seed=1)
        pos = 0
        for ack in workload.acks:
            assert ack.start_offset == pos
            assert ack.end_offset > ack.start_offset
            pos = ack.end_offset
        assert pos == len(workload.data)

    def test_state_at_picks_last_durable_ack(self, tmp_path):
        workload = run_crash_workload(tmp_path, txns=5, seed=0)
        third = workload.acks[2]
        assert workload.state_at(third.end_offset) == third.state
        # One byte short of the boundary: record 3 is torn.
        assert workload.state_at(third.end_offset - 1) == \
            workload.acks[1].state
        assert workload.state_at(0) == {"crash_docs": {}, "crash_refs": {}}

    def test_final_state_verifies_clean(self, tmp_path):
        workload = run_crash_workload(tmp_path, txns=10, seed=2)
        db = recover_crash_db(workload.journal_path)
        assert database_state(db) == workload.acks[-1].state
        assert verify_database(db) == []


class TestVerifyDatabase:
    def test_clean_database_passes(self):
        db = build_crash_db()
        db.insert("crash_docs", {"doc_id": 1, "title": "t1"})
        db.insert("crash_refs", {"ref_id": 1, "doc_id": 1})
        assert verify_database(db) == []

    def test_catches_planted_dangling_fk(self):
        db = build_crash_db()
        db.insert("crash_docs", {"doc_id": 1, "title": "t1"})
        db.insert("crash_refs", {"ref_id": 1, "doc_id": 1})
        # Vandalize the heap behind the constraint checker's back.
        docs = db.table("crash_docs")
        rowid = docs.rowid_for_pk((1,))
        # repro-analysis note: deliberate invariant break for the test
        row = docs.get(rowid)
        docs.apply_delete(rowid)
        problems = verify_database(db)
        assert any("dangling FK" in p for p in problems)
        docs.apply_insert(row)  # restore

    def test_catches_planted_index_drift(self):
        db = build_crash_db()
        db.insert("crash_docs", {"doc_id": 1, "title": "t1", "version": 3})
        index = next(
            i for i in db.table("crash_docs").indexes.hash_indexes
            if i.name == "docs_by_version"
        )
        index.insert((99,), 424242)  # phantom entry
        problems = verify_database(db)
        assert any("docs_by_version" in p for p in problems)

    @pytest.mark.parametrize("corrupt", ["swap", "duplicate", "too_short"])
    def test_names_the_key_of_a_posting_out_of_shape(self, corrupt):
        """A hash posting holds a bare id or a strictly ascending list of
        two or more; a sorted posting a non-empty, strictly ascending
        list.  Each break names its table, index and key."""
        db = build_crash_db()
        db.create_sorted_index("crash_refs", "refs_by_doc", "doc_id")
        db.insert("crash_docs", {"doc_id": 1, "title": "t1", "version": 3})
        for ref_id, doc_id in ((1, 1), (2, None), (3, 1), (4, 1)):
            db.insert("crash_refs", {"ref_id": ref_id, "doc_id": doc_id})
        for title in ("t2", "t3"):
            db.insert("crash_docs", {"doc_id": int(title[1]), "title": title,
                                     "version": 3})
        assert verify_database(db) == []
        by_version = db.table("crash_docs").indexes.hash_index_on(("version",))
        by_doc = db.table("crash_refs").indexes.sorted_index_on("doc_id")
        for index, key, where in (
            (by_version, (3,), "crash_docs.docs_by_version"),
            (by_doc, 1, "crash_refs.refs_by_doc"),
        ):
            held = dict(index.postings())[key]
            if corrupt == "swap":
                held[0], held[1] = held[1], held[0]
            elif corrupt == "duplicate":
                held.insert(1, held[0])
            elif index is by_version:
                index._map[key] = held[:1]
            else:
                held.clear()
            problems = verify_database(db)
            assert any(p.startswith(f"{where}: key {key!r} holds")
                       for p in problems), problems


class TestCrashPoints:
    def test_includes_boundaries_stride_and_eof(self):
        points = crash_points(300, [0, 130, 300], stride=64)
        assert {0, 64, 128, 130, 192, 256, 300} == set(points)
        assert points == sorted(points)

    def test_out_of_range_boundaries_dropped(self):
        assert 500 not in crash_points(300, [500], stride=1000)


class TestLiveCrashes:
    def test_committed_prefix_after_live_crash(self, tmp_path):
        golden = run_crash_workload(tmp_path / "g", txns=8, seed=4)
        offsets = [0, len(golden.data) // 3, golden.acks[3].end_offset]
        for offset, acked, db in iter_live_crashes(
            tmp_path / "live", offsets, txns=8, seed=4
        ):
            durable = [a for a in acked if a.end_offset <= offset]
            expected = (
                durable[-1].state if durable
                else {s.name: {} for s in CRASH_SCHEMAS}
            )
            assert database_state(db) == expected
            assert verify_database(db) == []

    def test_acked_means_durable_under_commit_sync(self, tmp_path):
        """Every transaction that returned from commit before the crash
        must be fully recovered (the paper's durability promise)."""
        golden = run_crash_workload(tmp_path / "g", txns=8, seed=9)
        offset = golden.acks[5].end_offset + 10  # mid-record 7
        for _, acked, db in iter_live_crashes(
            tmp_path / "live", [offset], txns=8, seed=9
        ):
            assert len(acked) == 6
            assert database_state(db) == acked[-1].state


class TestCrashMatrix:
    def test_matrix_holds_committed_prefix_guarantee(self, tmp_path):
        report = run_crash_matrix(tmp_path, txns=14, stride=48, seed=0)
        assert report.ok, report.failures[:3]
        assert len(report.cases) > 100
        assert report.total("torn_tails") > 0  # mid-record truncations
        assert report.total("corruption_detected") > 0  # garble sweep ran

    def test_matrix_every_byte_small(self, tmp_path):
        """Exhaustive stride-1 sweep on a small workload."""
        report = run_crash_matrix(tmp_path, txns=3, stride=1, seed=11)
        assert report.ok, report.failures[:3]

    def test_report_serializes(self, tmp_path):
        report = run_crash_matrix(
            tmp_path, txns=3, stride=200, garble=False, seed=1
        )
        payload = json.loads(report.as_json())
        assert payload["ok"] is True
        assert payload["points"] == len(report.cases)
        assert payload["failures"] == []
        assert "ok" in report.summary()

    def test_verdicts_match_the_pre_kit_harness(self, tmp_path,
                                                verdict_digest):
        """Pinned from the commit before the three harnesses became one
        kit (E17's published configuration): same points, same verdicts,
        same recovery statistics."""
        report = run_crash_matrix(tmp_path, txns=30, stride=64, seed=0)
        assert len(report.cases) == 276
        assert report.failures == []
        assert report.total("torn_tails") == 107
        assert report.total("corruption_detected") == 133
        assert report.total("records_recovered") == 2034
        assert {c.stream for c in report.cases} == {"journal"}
        assert verdict_digest(report, crashed=False) == "34a77e4bbaa86198"

    def test_seeded_defect_fails_the_matrix(self, tmp_path, monkeypatch):
        """A recovery that drops the last durable record must fail at
        the first cut that leaves one record durable — and at no cut
        before it."""
        real = crashsim.recover_crash_db

        def lossy(path, *, salvage=False):
            db = real(path, salvage=salvage)
            docs = [row["doc_id"] for row in db.select("crash_docs")]
            if docs:
                db.delete_pk("crash_docs", max(docs))
            return db

        monkeypatch.setattr(crashsim, "recover_crash_db", lossy)
        report = run_crash_matrix(
            tmp_path / "bad", txns=6, stride=64, garble=False, seed=2
        )
        assert not report.ok
        first = report.failures[0]
        golden = run_crash_workload(tmp_path / "g", txns=6, seed=2)
        assert (first.stream, first.offset, first.kind) == \
            ("journal", golden.acks[0].end_offset, "truncate")
        assert "diverges" in first.detail
        assert f'"offset": {first.offset}' in report.as_json()

        monkeypatch.undo()
        assert run_crash_matrix(
            tmp_path / "good", txns=6, stride=64, garble=False, seed=2
        ).ok

    def test_teardown_runs_when_a_case_fails(self, tmp_path):
        """The driver unwinds a case's resources pass or fail, and a
        raising case is a failed verdict, not a dead sweep."""
        closed = []

        def run_case(case, closing):
            closing.callback(closed.append, case.offset)
            if case.offset == 4:
                raise RuntimeError("recovery blew up")
            return ["wrong"] if case.offset == 8 else []

        report = crashsim.run_scenario(
            tmp_path, "toy", [crashsim.CutStream("s", 8, [], 4)], run_case
        )
        assert closed == [0, 4, 8]
        assert [(c.offset, c.ok) for c in report.cases] == \
            [(0, True), (4, False), (8, False)]
        assert "recovery blew up" in report.cases[1].detail
        assert report.summary() == "toy: 3 points (0 fired), 2 FAILURES"
        assert all(c.dir.is_dir() for c in report.cases)


class TestSalvageSemantics:
    def test_strict_refuses_salvage_recovers(self, tmp_path):
        workload = run_crash_workload(tmp_path, txns=6, seed=3)
        data = bytearray(workload.data)
        data[workload.acks[1].start_offset + 8] ^= 0x01
        damaged_path = tmp_path / "damaged.wal"
        damaged_path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            recover_crash_db(damaged_path)
        db = recover_crash_db(damaged_path, salvage=True)
        assert db.recovery_stats is not None
        assert db.recovery_stats.records_recovered == len(workload.acks) - 1
        assert verify_database(db) == []

    def test_journal_failpoint_wrapper_hook(self, tmp_path):
        """The Journal accepts a file wrapper; a crash mid-append leaves
        a recoverable torn tail."""
        path = tmp_path / "wal"
        journal = Journal(
            path, sync="commit",
            file_wrapper=lambda fh: FailpointFile(fh, 40),
        )
        db = build_crash_db(journal=journal)
        with pytest.raises(SimulatedCrashError):
            for k in range(1, 10):
                db.insert("crash_docs", {"doc_id": k, "title": f"t{k}"})
        recovered = Database.recover(
            "crashdb", CRASH_SCHEMAS, journal_path=str(path)
        )
        assert recovered.recovery_stats is not None
        assert recovered.recovery_stats.torn_tails == 1
        assert recovered.count("crash_docs") == 0  # record 1 was torn
