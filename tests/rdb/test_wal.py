"""Tests for the write-ahead journal, snapshots and recovery."""

import datetime as dt
import hashlib
import json

import pytest

from repro.rdb import (
    Action,
    CheckError,
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    ForeignKey,
    ForeignKeyError,
    Schema,
    col,
    wal,
)
from repro.rdb.wal import (
    Journal,
    RecoveryStats,
    decode_row,
    decode_value,
    encode_value,
    parse_snapshot,
    read_frames,
    write_snapshot,
)

T = ColumnType


def _decoded_snapshot(path):
    """``(tables, watermark)`` of a snapshot with every row decoded, as
    ``Database.load_snapshot`` reads it."""
    tables, watermark = parse_snapshot(path)
    return {
        name: [decode_row(row) for row in rows]
        for name, rows in tables.items()
    }, watermark


def txn_frames(path, **kwargs):
    """The committed-transaction frames of a journal (the one reader
    yields checkpoint and 2PC frames too)."""
    return [f for f in read_frames(path, **kwargs) if f.kind == "txn"]

EVENTS = Schema(
    name="events",
    columns=(
        Column("k", T.INT, nullable=False),
        Column("label", T.TEXT),
        Column("when", T.DATETIME),
        Column("payload", T.BYTES),
        Column("meta", T.JSON),
    ),
    primary_key=("k",),
)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            42,
            3.5,
            "text",
            True,
            dt.datetime(1999, 12, 31, 23, 59, 59),
            b"\x00\xffbinary",
            {"nested": [1, {"d": dt.datetime(2000, 1, 1)}]},
            [b"aa", "bb"],
        ],
    )
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        json.dumps(encoded)  # must be JSON-safe
        decoded = decode_value(json.loads(json.dumps(encoded)))
        if isinstance(value, tuple):
            value = list(value)
        assert decoded == value

    def test_dt_marker_dict_distinguished(self):
        """A real dict with a '$dt' key plus others survives."""
        value = {"$dt": "not-a-date", "other": 1}
        assert decode_value(encode_value(value)) == value


class TestJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            journal.append(2, [["delete", "events", [1]]])
        records = txn_frames(path)
        assert [r.txn_id for r in records] == [1, 2]

    def test_read_missing_file(self, tmp_path):
        assert list(read_frames(tmp_path / "nope.jsonl")) == []

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
        with path.open("a") as fh:
            fh.write('{"txn": 2, "ops": [incomplete')
        records = txn_frames(path)
        assert len(records) == 1

    def test_truncate(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        journal = Journal(path)
        journal.append(1, [["insert", "events", {"k": 1}]])
        journal.checkpoint()
        journal.close()
        assert txn_frames(path) == []
        assert [(f.kind, f.lsn) for f in read_frames(path)] == [("ckpt", 1)]


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "snap.json"
        tables = {
            "events": [
                {"k": 1, "when": dt.datetime(1999, 1, 1),
                 "payload": b"xy", "label": None, "meta": {"a": [1]}}
            ]
        }
        write_snapshot(path, tables)
        assert _decoded_snapshot(path) == (tables, 0)

    #: Every value shape the codec treats specially, chunk boundaries on
    #: both sides of it (the tests cut chunks to 2 rows).
    FIXTURE = {
        "events": [
            {"k": 1, "label": "a", "when": dt.datetime(1999, 1, 1, 12, 30),
             "payload": b"\x00\xffxy", "meta": {"$dt": "not-a-date"}},
            {"k": 2, "label": None, "when": None, "payload": None,
             "meta": {"$b64": "look-alike"}},
            {"k": 3, "label": "caf\u00e9 \u2603", "when": None, "payload": b"",
             "meta": {"$esc": {"$dt": 1}}},
            {"k": 4, "label": 'quote " and \\', "when": None, "payload": None,
             "meta": [1, {"deep": [2.5, "z", None]}]},
            {"k": 5, "label": "", "when": None, "payload": None, "meta": None},
        ],
        "empty": [],
        # Not a shape a JSON column admits, but one the codec handles.
        "one": [{"k": 9, "nested": [dt.datetime(2000, 2, 29), [b"z"]]}],
    }

    @staticmethod
    def _one_shot(tables, last_lsn):
        """The pre-streaming writer, verbatim."""
        payload = {
            "$snapshot": 2,
            "last_lsn": int(last_lsn),
            "tables": {
                name: [
                    {k: encode_value(v) for k, v in row.items()}
                    for row in rows
                ]
                for name, rows in tables.items()
            },
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @pytest.mark.parametrize("chunk_rows", [1, 2, 5, 1024])
    @pytest.mark.parametrize("tables", [FIXTURE, {}, {"empty": []}])
    def test_streamed_bytes_equal_the_one_shot_dump(
        self, tmp_path, monkeypatch, tables, chunk_rows
    ):
        monkeypatch.setattr(wal, "_SNAPSHOT_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "snap.json"
        # Iterators, as Database.snapshot passes them: consumed once.
        write_snapshot(
            path, {name: iter(rows) for name, rows in tables.items()},
            last_lsn=7,
        )
        assert path.read_bytes() == self._one_shot(tables, 7)
        assert _decoded_snapshot(path) == (tables, 7)
        assert wal.parse_snapshot(path)[1] == 7
        assert not path.with_name("snap.json.tmp").exists()

    def test_recover_from_streamed_snapshot_equals_source(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(wal, "_SNAPSHOT_CHUNK_ROWS", 2)
        source = _make_db()
        for row in self.FIXTURE["events"]:
            source.insert("events", dict(row))
        path = tmp_path / "snap.json"
        source.snapshot(str(path))
        assert path.read_bytes() == self._one_shot(
            {"events": source.select("events")}, 0
        )
        recovered = Database.recover("r", [EVENTS], snapshot_path=str(path))
        assert recovered.select("events") == source.select("events")
        assert recovered.select("events") == self.FIXTURE["events"]
        # Row ids restart in file order, and the indexes were rebuilt.
        assert recovered.select("events", where=None)[2]["k"] == 3
        assert recovered.get("events", (1,))["payload"] == b"\x00\xffxy"

    def test_watermark_alone_decodes_no_row(self, tmp_path, monkeypatch):
        path = tmp_path / "snap.json"
        write_snapshot(path, self.FIXTURE, last_lsn=41)

        def decoding(_row):
            raise AssertionError("a row was decoded to read one integer")

        monkeypatch.setattr(wal, "decode_row", decoding)
        assert wal.parse_snapshot(path)[1] == 41
        path.write_text(json.dumps({"events": [{"k": 1}]}))
        with pytest.raises(ValueError, match="pre-watermark"):
            wal.parse_snapshot(path)


class TestSnapshotFailureLeavesNoDebris:
    """A snapshot that fails mid-write removes its ``.tmp``, leaves the
    previous snapshot and the journal as they were, and re-raises."""

    def _db_with_snapshot(self, tmp_path):
        journal = Journal(tmp_path / "wal")
        db = _make_db(journal)
        db.insert("events", {"k": 1, "meta": [1]})
        snap = tmp_path / "snap.json"
        db.snapshot(str(snap))
        db.insert("events", {"k": 2, "meta": [2]})
        return db, journal, snap

    def _assert_untouched(self, tmp_path, db, journal, snap, before):
        assert snap.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.json", "wal"]
        # No checkpoint ran: the write since the good snapshot is still
        # in the journal, and snapshot + journal still recover it.
        assert [f.lsn for f in txn_frames(tmp_path / "wal")] == [2]
        journal.close()
        recovered = Database.recover(
            "r", [EVENTS],
            snapshot_path=str(snap), journal_path=str(tmp_path / "wal"),
        )
        assert sorted(r["k"] for r in recovered.select("events")) == [1, 2]

    def test_unencodable_value(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal, "_SNAPSHOT_CHUNK_ROWS", 1)  # fail mid-stream
        db, journal, snap = self._db_with_snapshot(tmp_path)
        before = snap.read_bytes()
        # Validated as JSON on insert, made unencodable in place since.
        db.get("events", (2,))["meta"].append({1, 2})
        with pytest.raises(TypeError, match="not JSON serializable"):
            db.snapshot(str(snap))
        self._assert_untouched(tmp_path, db, journal, snap, before)

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_disk_error(self, tmp_path, monkeypatch, failing):
        db, journal, snap = self._db_with_snapshot(tmp_path)
        before = snap.read_bytes()
        if failing == "fsync":
            def broken_fsync(_fd):
                raise OSError(5, "Input/output error")
            monkeypatch.setattr(wal.os, "fsync", broken_fsync)
        else:
            real_open = wal.Path.open

            class FullDisk:
                """The real file until its second write."""

                def __init__(self, fh):
                    self._fh, self._writes = fh, 0

                def write(self, data):
                    self._writes += 1
                    if self._writes > 1:
                        raise OSError(28, "No space left on device")
                    return self._fh.write(data)

                def __getattr__(self, name):
                    return getattr(self._fh, name)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return self._fh.__exit__(*exc)

            def wrapped_open(path, mode="r", *args, **kwargs):
                fh = real_open(path, mode, *args, **kwargs)
                return FullDisk(fh) if path.name.endswith(".tmp") else fh

            monkeypatch.setattr(wal.Path, "open", wrapped_open)
        with pytest.raises(OSError):
            db.snapshot(str(snap))
        monkeypatch.undo()
        self._assert_untouched(tmp_path, db, journal, snap, before)


def _make_db(journal: Journal | None = None) -> Database:
    db = Database("j")
    db.create_table(EVENTS)
    if journal is not None:
        db.attach_journal(journal)
    return db


class TestRecovery:
    def test_journal_replay(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        db = _make_db(Journal(path))
        db.insert("events", {"k": 1, "label": "a",
                             "when": dt.datetime(1999, 5, 5),
                             "payload": b"zz", "meta": {"x": 1}})
        db.insert("events", {"k": 2, "label": "b"})
        db.update_pk("events", 1, {"label": "a2"})
        db.delete_pk("events", 2)
        recovered = Database.recover("r", [EVENTS], journal_path=str(path))
        rows = recovered.select("events")
        assert len(rows) == 1
        assert rows[0]["label"] == "a2"
        assert rows[0]["when"] == dt.datetime(1999, 5, 5)
        assert rows[0]["payload"] == b"zz"

    def test_rolled_back_txn_not_journaled(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        db = _make_db(Journal(path))
        db.insert("events", {"k": 1})
        db.begin()
        db.insert("events", {"k": 2})
        db.rollback()
        recovered = Database.recover("r", [EVENTS], journal_path=str(path))
        assert [r["k"] for r in recovered.select("events")] == [1]

    def test_savepoint_rollback_not_journaled(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        db = _make_db(Journal(path))
        db.begin()
        db.insert("events", {"k": 1})
        db.savepoint("s")
        db.insert("events", {"k": 2})
        db.rollback_to("s")
        db.commit()
        recovered = Database.recover("r", [EVENTS], journal_path=str(path))
        assert [r["k"] for r in recovered.select("events")] == [1]

    def test_snapshot_plus_journal(self, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        snap_path = tmp_path / "snap.json"
        db = _make_db(Journal(wal_path))
        db.insert("events", {"k": 1, "label": "pre-snapshot"})
        db.snapshot(str(snap_path))
        db.insert("events", {"k": 2, "label": "post-snapshot"})
        recovered = Database.recover(
            "r", [EVENTS],
            snapshot_path=str(snap_path), journal_path=str(wal_path),
        )
        labels = {r["k"]: r["label"] for r in recovered.select("events")}
        assert labels == {1: "pre-snapshot", 2: "post-snapshot"}

    def test_database_remembers_its_checkpoint_snapshot(self, tmp_path):
        """The file the journal's checkpoint is staged against is on the
        engine, for whoever must serve it (the replication root)."""
        wal_path = tmp_path / "wal.jsonl"
        db = _make_db(Journal(wal_path))
        assert db.snapshot_path is None
        db.insert("events", {"k": 1})
        db.snapshot(str(tmp_path / "one"))
        db.snapshot(str(tmp_path / "two"))
        assert db.snapshot_path == str(tmp_path / "two")
        recovered = Database.recover(
            "r", [EVENTS],
            snapshot_path=str(tmp_path / "two"), journal_path=str(wal_path),
        )
        assert recovered.snapshot_path == str(tmp_path / "two")
        bare = Database.recover("r", [EVENTS], journal_path=str(wal_path))
        assert bare.snapshot_path is None

    def test_snapshot_truncates_journal(self, tmp_path):
        wal_path = tmp_path / "wal.jsonl"
        db = _make_db(Journal(wal_path))
        db.insert("events", {"k": 1})
        db.snapshot(str(tmp_path / "snap.json"))
        assert txn_frames(wal_path) == []

    def test_snapshot_inside_transaction_rejected(self, tmp_path):
        from repro.rdb import TransactionError

        db = _make_db()
        db.begin()
        with pytest.raises(TransactionError):
            db.snapshot(str(tmp_path / "snap.json"))
        db.rollback()

    def test_recovery_without_files(self, tmp_path):
        recovered = Database.recover(
            "r", [EVENTS],
            snapshot_path=str(tmp_path / "ghost.json"),
            journal_path=str(tmp_path / "ghost.jsonl"),
        )
        assert recovered.count("events") == 0


# ---------------------------------------------------------------------------
# Format v2: frames, LSNs, torn tails, corruption
# ---------------------------------------------------------------------------
class TestFramedFormat:
    def test_lsns_are_monotonic_and_returned(self, tmp_path):
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            lsns = [
                journal.append(i, [["insert", "events", {"k": i}]])
                for i in range(1, 5)
            ]
        assert lsns == [1, 2, 3, 4]
        records = txn_frames(path)
        assert [r.lsn for r in records] == [1, 2, 3, 4]

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
        with Journal(path) as journal:
            assert journal.last_lsn == 1
            assert journal.append(2, [["insert", "events", {"k": 2}]]) == 2
        assert [r.lsn for r in txn_frames(path)] == [1, 2]

    def test_tell_reports_byte_extent(self, tmp_path):
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            assert journal.tell() == 0
            journal.append(1, [["insert", "events", {"k": 1}]])
            assert journal.tell() == path.stat().st_size

    def test_torn_tail_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            journal.append(2, [["insert", "events", {"k": 2}]])
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # crash mid-append of record 2
        stats = RecoveryStats()
        records = txn_frames(path, stats=stats)
        assert [r.txn_id for r in records] == [1]
        assert stats.torn_tails == 1
        assert stats.checksum_failures == 0

    def test_open_trims_torn_tail(self, tmp_path):
        """Appending after a torn tail must not bury the garbage."""
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            end = journal.tell()
            journal.append(2, [["insert", "events", {"k": 2}]])
        path.write_bytes(path.read_bytes()[:-5])
        with Journal(path) as journal:
            assert path.stat().st_size == end  # tail trimmed on open
            journal.append(3, [["insert", "events", {"k": 3}]])
        assert [r.txn_id for r in txn_frames(path)] == [1, 3]

    def test_mid_file_corruption_raises(self, tmp_path):
        from repro.rdb import JournalCorruptError

        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            first_end = journal.tell()
            journal.append(2, [["insert", "events", {"k": 2}]])
        data = bytearray(path.read_bytes())
        data[first_end // 2] ^= 0xFF  # damage record 1; record 2 intact
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError) as excinfo:
            list(read_frames(path))
        assert "salvage" in str(excinfo.value)
        with pytest.raises(JournalCorruptError):
            Journal(path)  # strict open refuses the damage too

    def test_salvage_skips_damage_and_counts(self, tmp_path):
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            first_end = journal.tell()
            journal.append(2, [["insert", "events", {"k": 2}]])
        data = bytearray(path.read_bytes())
        data[first_end // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        stats = RecoveryStats()
        records = txn_frames(path, salvage=True, stats=stats)
        assert [r.txn_id for r in records] == [2]
        assert stats.checksum_failures >= 1
        assert stats.bytes_skipped > 0

    def test_salvage_open_compacts_journal(self, tmp_path):
        path = tmp_path / "wal.v2"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            first_end = journal.tell()
            journal.append(2, [["insert", "events", {"k": 2}]])
        data = bytearray(path.read_bytes())
        data[first_end // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with Journal(path, salvage=True) as journal:
            journal.append(3, [["insert", "events", {"k": 3}]])
        # After compaction a plain strict read succeeds: no damage left.
        assert [r.txn_id for r in txn_frames(path)] == [2, 3]


class TestRetiredV1:
    """v1 JSON-lines journals (retired in PR 13) are refused by every
    entry point, loudly, and the file is left byte-for-byte untouched —
    never classified as a torn tail and trimmed to nothing."""

    def _v1_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text("".join(
            json.dumps({"txn": k, "ops": [["insert", "events", {"k": k}]]})
            + "\n"
            for k in (1, 2)
        ))
        return path

    @pytest.mark.parametrize("salvage", [False, True],
                             ids=["strict", "salvage"])
    def test_v1_journal_refused_and_left_untouched(self, tmp_path, salvage):
        from repro.rdb import JournalCorruptError

        path = self._v1_file(tmp_path)
        before = path.read_bytes()
        attempts = [
            lambda: Journal(path, salvage=salvage),
            lambda: list(read_frames(path, salvage=salvage)),
            lambda: Database.recover(
                "r", [EVENTS], journal_path=str(path), salvage=salvage),
        ]
        for attempt in attempts:
            with pytest.raises(JournalCorruptError, match="v1 JSON-lines"):
                attempt()
            assert path.stat().st_size == len(before)
            assert path.read_bytes() == before

    def test_v1_lines_after_v2_frames_are_a_torn_tail(self, tmp_path):
        """Only a file that *is* a v1 journal is refused; non-frame bytes
        after valid v2 frames are still a tolerated, trimmed torn tail."""
        path = tmp_path / "wal.mixed"
        with Journal(path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            valid_end = journal.tell()
        with path.open("ab") as fh:
            fh.write(b'{"txn": 2, "ops": []}\n')
        stats = RecoveryStats()
        assert [r.txn_id for r in txn_frames(path, stats=stats)] == [1]
        assert stats.torn_tails == 1
        Journal(path).close()
        assert path.stat().st_size == valid_end


class TestSyncPolicy:
    def test_parse_specs(self):
        from repro.rdb.wal import SyncPolicy

        assert SyncPolicy.parse("none").name == "none"
        assert SyncPolicy.parse("commit").name == "commit"
        policy = SyncPolicy.parse("interval-8")
        assert policy.name == "interval-8"
        assert policy.interval == 8
        assert SyncPolicy.parse(policy) is policy
        with pytest.raises(ValueError):
            SyncPolicy.parse("sometimes")
        with pytest.raises(ValueError):
            SyncPolicy.parse("interval-0")

    def test_group_commit_batches_fsyncs(self, tmp_path):
        from repro.rdb.wal import SyncPolicy

        syncs = []
        policy = SyncPolicy("interval", 3, fsync=syncs.append)
        journal = Journal(tmp_path / "wal", sync=policy)
        for i in range(1, 8):
            journal.append(i, [["insert", "events", {"k": i}]])
        assert len(syncs) == 2  # after records 3 and 6
        journal.close()  # flushes the final partial batch
        assert len(syncs) == 3

    def test_commit_policy_syncs_every_append(self, tmp_path):
        from repro.rdb.wal import SyncPolicy

        syncs = []
        policy = SyncPolicy("commit", fsync=syncs.append)
        with Journal(tmp_path / "wal", sync=policy) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            journal.append(2, [["insert", "events", {"k": 2}]])
        assert len(syncs) == 2

    def test_none_policy_never_syncs(self, tmp_path):
        from repro.rdb.wal import SyncPolicy

        syncs = []
        policy = SyncPolicy("none", fsync=syncs.append)
        with Journal(tmp_path / "wal", sync=policy) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
        assert syncs == []

    def test_sync_batches_metric(self, tmp_path, metrics_registry):
        from repro.rdb.wal import SyncPolicy

        policy = SyncPolicy("commit", fsync=lambda fd: None)
        with Journal(tmp_path / "wal", sync=policy) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
        snap = metrics_registry.snapshot()
        assert snap.counter_total("wal.sync_batches") == 1


# ---------------------------------------------------------------------------
# Checkpoint watermarks
# ---------------------------------------------------------------------------
class TestCheckpointWatermark:
    def test_snapshot_records_watermark(self, tmp_path):
        wal_path = tmp_path / "wal"
        snap_path = tmp_path / "snap.json"
        db = _make_db(Journal(wal_path))
        db.insert("events", {"k": 1})
        db.insert("events", {"k": 2})
        db.snapshot(str(snap_path))
        tables, watermark = _decoded_snapshot(snap_path)
        assert watermark == 2
        assert len(tables["events"]) == 2

    def test_pre_watermark_snapshot_refused(self, tmp_path):
        """A bare ``{table: rows}`` mapping (retired in PR 13) must not
        load with watermark 0 and replay the journal over itself."""
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"events": [{"k": 1}]}))
        with pytest.raises(ValueError, match="pre-watermark"):
            parse_snapshot(path)
        with pytest.raises(ValueError, match="retired in PR 13"):
            Database.recover("r", [EVENTS], snapshot_path=str(path))

    def test_crash_between_snapshot_and_truncate_no_double_apply(
        self, tmp_path
    ):
        """The double-apply regression: snapshot written, truncate never
        ran (crash in between), full journal still on disk."""
        wal_path = tmp_path / "wal"
        snap_path = tmp_path / "snap.json"
        journal = Journal(wal_path)
        db = _make_db(journal)
        db.insert("events", {"k": 1, "label": "one"})
        db.insert("events", {"k": 2, "label": "two"})
        # Crash window: dump the snapshot exactly as Database.snapshot
        # does, then "crash" before Journal.checkpoint runs.
        dump = {
            "events": [dict(r) for r in db.table("events").rows()]
        }
        write_snapshot(snap_path, dump, last_lsn=journal.last_lsn)
        recovered = Database.recover(
            "r", [EVENTS],
            snapshot_path=str(snap_path), journal_path=str(wal_path),
        )
        rows = recovered.select("events")
        assert sorted(r["k"] for r in rows) == [1, 2]  # not [1, 1, 2, 2]
        assert recovered.recovery_stats is not None
        assert recovered.recovery_stats.records_skipped_watermark == 2

    def test_checkpoint_marker_completed_on_next_open(self, tmp_path):
        """A crash after the marker is durable but before the truncate
        finishes must complete the truncation on the next open."""
        wal_path = tmp_path / "wal"
        with Journal(wal_path) as journal:
            journal.append(1, [["insert", "events", {"k": 1}]])
            journal.append(2, [["insert", "events", {"k": 2}]])
        marker = wal_path.with_name(wal_path.name + ".ckpt")
        marker.write_text(json.dumps({"last_lsn": 2}))
        with Journal(wal_path) as journal:
            assert journal.last_lsn == 2  # sequence resumes above marker
            journal.append(3, [["insert", "events", {"k": 3}]])
        assert not marker.exists()
        records = txn_frames(wal_path)
        assert [r.txn_id for r in records] == [3]
        assert records[0].lsn == 3

    def test_lsn_monotonic_across_checkpoints(self, tmp_path):
        wal_path = tmp_path / "wal"
        journal = Journal(wal_path)
        journal.append(1, [["insert", "events", {"k": 1}]])
        journal.checkpoint()
        lsn = journal.append(2, [["insert", "events", {"k": 2}]])
        journal.close()
        assert lsn == 2
        records = txn_frames(wal_path)
        assert [r.lsn for r in records] == [2]
        # And a reader honouring the watermark skips nothing new.
        assert [r.txn_id for r in txn_frames(wal_path, from_lsn=1)] == [2]

    def test_recovery_stats_attached_to_database(self, tmp_path):
        wal_path = tmp_path / "wal"
        db = _make_db(Journal(wal_path))
        db.insert("events", {"k": 1})
        recovered = Database.recover("r", [EVENTS], journal_path=str(wal_path))
        stats = recovered.recovery_stats
        assert stats is not None
        assert stats.records_recovered == 1
        assert stats.as_dict()["records_recovered"] == 1

    def test_recovery_metrics_emitted(self, tmp_path, metrics_registry):
        wal_path = tmp_path / "wal"
        db = _make_db(Journal(wal_path))
        db.insert("events", {"k": 1})
        db.insert("events", {"k": 2})
        Database.recover("r", [EVENTS], journal_path=str(wal_path))
        snap = metrics_registry.snapshot()
        assert snap.counter_total("wal.records_recovered") == 2

    def test_txn_ids_advance_past_journal(self, tmp_path):
        """A recovered engine must not reuse txn ids already journaled."""
        wal_path = tmp_path / "wal"
        db = _make_db(Journal(wal_path))
        db.insert("events", {"k": 1})
        db.insert("events", {"k": 2})
        recovered = Database.recover("r", [EVENTS], journal_path=str(wal_path))
        recovered.attach_journal(Journal(wal_path))
        recovered.insert("events", {"k": 3})
        txn_ids = [r.txn_id for r in txn_frames(wal_path)]
        assert len(txn_ids) == len(set(txn_ids))


class TestCommitDurabilityOrdering:
    def test_failed_append_rolls_back_autocommit(self, tmp_path):
        class ExplodingJournal(Journal):
            def append(self, txn_id, ops):
                raise OSError("disk full")

        db = _make_db(ExplodingJournal(tmp_path / "wal"))
        with pytest.raises(OSError):
            db.insert("events", {"k": 1})
        assert db.count("events") == 0
        assert not db.in_transaction

    def test_failed_append_rolls_back_explicit_txn(self, tmp_path):
        class ExplodingJournal(Journal):
            def append(self, txn_id, ops):
                raise OSError("disk full")

        db = _make_db(ExplodingJournal(tmp_path / "wal"))
        with pytest.raises(OSError):
            with db.transaction():
                db.insert("events", {"k": 1})
        assert db.count("events") == 0
        assert not db.in_transaction


# ---------------------------------------------------------------------------
# Byte pins: the write path's journal and snapshot, to the byte
# ---------------------------------------------------------------------------
_PIN_OWNERS = Schema(
    name="owners",
    columns=(
        Column("owner_id", T.INT, nullable=False),
        Column("name", T.TEXT, nullable=False),
        Column("email", T.TEXT),
    ),
    primary_key=("owner_id",),
    unique=(("email",),),
)

_PIN_ITEMS = Schema(
    name="items",
    columns=(
        Column("item_id", T.INT, nullable=False),
        Column("owner_id", T.INT),
        Column("reviewer_id", T.INT),
        Column("title", T.TEXT, nullable=False, default="untitled"),
        Column("score", T.FLOAT, check=lambda v: v >= 0, check_label="score_ge_0"),
        Column("open", T.BOOL, default=True),
        Column("when", T.DATETIME),
        Column("blob", T.BYTES),
        Column("meta", T.JSON),
    ),
    primary_key=("item_id",),
    foreign_keys=(
        ForeignKey(("owner_id",), "owners", ("owner_id",),
                   on_delete=Action.CASCADE, on_update=Action.CASCADE),
        ForeignKey(("reviewer_id",), "owners", ("owner_id",),
                   on_delete=Action.SET_NULL, on_update=Action.SET_NULL),
    ),
)


def _run_pinned_script(db: Database) -> None:
    """Every column type, a CASCADE delete, SET NULL on delete and on
    update, a key CASCADE, a savepoint rolled back, an ``insert_many``,
    statements that fail and journal nothing."""
    db.insert_many("owners", [
        {"owner_id": n, "name": f"owner-{n}", "email": f"o{n}@mmu.example"}
        for n in range(1, 7)
    ])
    db.insert("owners", {"owner_id": 7, "name": "no-mail"})
    db.insert("items", {
        "item_id": 1, "owner_id": 1, "reviewer_id": 2, "title": "lecture \u00e9",
        "score": 3, "open": False,
        "when": dt.datetime(1999, 9, 21, 8, 30, 15, 250),
        "blob": b"\x00\xff\x10binary",
        "meta": {"urls": ["a", "b"], "n": [1, 2.5, None, True],
                 "$dt": "look-alike", "nested": {"$b64": "x"}},
    })
    db.insert("items", {"item_id": 2, "owner_id": 1, "meta": {"$dt": "alone"}})
    db.insert_many("items", [
        {"item_id": 10 + n, "owner_id": 1 + n % 3, "reviewer_id": 4 + n % 2,
         "title": f"note {n}", "score": n / 4, "blob": bytearray([n, n + 1]),
         "when": dt.datetime(2000, 1, 1 + n, tzinfo=dt.timezone.utc),
         "meta": [n, {"k": "v"}]}
        for n in range(8)
    ])
    with pytest.raises(DuplicateKeyError):
        db.insert("owners", {"owner_id": 8, "name": "dup", "email": "o1@mmu.example"})
    with pytest.raises(CheckError):
        db.insert("items", {"item_id": 99, "score": -1.0})
    with pytest.raises(ForeignKeyError):
        db.insert("items", {"item_id": 99, "owner_id": 404})
    db.update("items", {"open": False, "score": 2}, where=col("owner_id") == 2)
    db.update_pk("items", 2, {"title": "renamed", "meta": None})
    db.begin()
    db.insert("owners", {"owner_id": 20, "name": "in-txn"})
    db.savepoint("sp")
    db.insert("owners", {"owner_id": 21, "name": "undone"})
    db.update_pk("items", 1, {"title": "undone too"})
    db.rollback_to("sp")
    db.update_pk("items", 1, {"score": 4.5})
    db.commit()
    db.update_pk("owners", 4, {"owner_id": 40})   # reviewers of 4 -> NULL
    db.update_pk("owners", 3, {"owner_id": 30})   # items of 3 follow to 30
    db.delete_pk("owners", 5)                     # reviewers of 5 -> NULL
    db.delete("owners", where=col("owner_id") == 1)  # cascades to its items
    db.upsert("owners", {"owner_id": 7, "name": "now-with-mail", "email": "o7@mmu.example"})
    db.delete("items", where=col("score") > 1.4)
    db.update("items", {"open": True})


class TestBytePins:
    """sha256 literals computed on PR 23's parent commit (048d765),
    before any write-path edit: the same statements must journal and
    snapshot the same bytes."""

    JOURNAL_SHA256 = "3ff71dededa9496db92b268cc46ef22f7d2bd4418cc292546c5963740654de25"
    SNAPSHOT_SHA256 = "1ffaf11db554529cde34d87547313c7fbca226011fecfea1d3fb8fc0222e1b5c"
    JOURNAL_AFTER_SHA256 = "c299c068510f661a9d29f09962946bc88c6d0bd84cb65706e1ed85ff11fff372"

    def test_fixed_script_journals_and_snapshots_the_same_bytes(self, tmp_path):
        db = Database("pin")
        db.create_table(_PIN_OWNERS)
        db.create_table(_PIN_ITEMS)
        db.create_sorted_index("items", "by_score", "score")
        db.attach_journal(Journal(tmp_path / "pin.wal", sync="commit"))
        _run_pinned_script(db)
        sha = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert sha("pin.wal") == self.JOURNAL_SHA256
        db.snapshot(str(tmp_path / "pin.snapshot"))
        assert sha("pin.snapshot") == self.SNAPSHOT_SHA256
        db.insert("items", {"item_id": 3, "owner_id": 30, "score": 1})
        db.journal.close()
        assert sha("pin.wal") == self.JOURNAL_AFTER_SHA256
        recovered = Database.recover(
            "r", [_PIN_OWNERS, _PIN_ITEMS],
            snapshot_path=str(tmp_path / "pin.snapshot"),
            journal_path=str(tmp_path / "pin.wal"),
        )
        for name in ("owners", "items"):
            assert recovered.select(name) == db.select(name)

    @pytest.mark.parametrize("path", ["scan", "index:by_label"])
    def test_multi_row_statement_journals_in_row_id_order(self, tmp_path, path):
        """The one stream whose frames differ from the parent's: after an
        undone delete put a row back at the *end* of the heap, a
        multi-row statement's ops still reach the journal in ascending
        row-id order (the parent: heap order, the restored row last) —
        on the scan and on the index path alike."""
        db = _make_db(Journal(tmp_path / "wal"))
        db.insert_many("events", [
            {"k": k, "label": "x" if k in (1, 20, 40) else f"l{k}"}
            for k in range(1, 41)
        ])
        if path != "scan":
            db.create_hash_index("events", "by_label", ("label",))
        db.begin()
        db.delete_pk("events", 1)
        db.rollback()
        assert [r["k"] for r in db.select("events")][-2:] == [40, 1]
        assert db.explain_plan("events", col("label") == "x").access_path == path
        db.update("events", {"meta": [1]}, where=col("label") == "x")
        db.delete("events", where=col("label") == "x")
        updated, deleted = txn_frames(tmp_path / "wal")[-2:]
        assert [op[2] for op in updated.ops] == [[1], [20], [40]]
        assert [op[2] for op in deleted.ops] == [[1], [20], [40]]


# ---------------------------------------------------------------------------
# Codec property tests (hypothesis)
# ---------------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.datetimes(
        min_value=dt.datetime(1970, 1, 1),
        max_value=dt.datetime(2100, 1, 1),
        timezones=st.one_of(
            st.none(),
            st.just(dt.timezone.utc),
            st.just(dt.timezone(dt.timedelta(hours=-7))),
        ),
    ),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(value=_values)
    def test_roundtrip_through_json(self, value):
        encoded = encode_value(value)
        wire = json.loads(json.dumps(encoded))
        assert decode_value(wire) == value

    @settings(max_examples=60, deadline=None)
    @given(inner=st.one_of(
        st.text(max_size=20), st.integers(),
        st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
    ), marker=st.sampled_from(["$dt", "$b64", "$esc"]))
    def test_marker_shaped_dicts_survive(self, inner, marker):
        """A user dict whose only key collides with a codec marker must
        round-trip as itself, not decode into a datetime/bytes value."""
        value = {marker: inner}
        wire = json.loads(json.dumps(encode_value(value)))
        assert decode_value(wire) == value

    @settings(max_examples=60, deadline=None)
    @given(when=st.datetimes(
        min_value=dt.datetime(1970, 1, 1),
        max_value=dt.datetime(2100, 1, 1),
        timezones=st.just(dt.timezone(dt.timedelta(hours=5, minutes=30))),
    ))
    def test_tz_aware_datetimes_keep_offset(self, when):
        decoded = decode_value(json.loads(json.dumps(encode_value(when))))
        assert decoded == when
        assert decoded.utcoffset() == when.utcoffset()
