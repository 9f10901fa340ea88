"""The one journal funnel: one replay, one base LSN, one append tail, one open.

* :meth:`Database.recover` over hand-built journals holding two-phase
  commit frames — it used to skip them, silently dropping every
  cross-shard row of a shard's journal;
* :attr:`Journal.base_lsn` against a verbatim copy of the
  ``WalShipper._base_lsn()`` it replaces (which re-read the file);
* the bytes and fsyncs of a fixed ``append`` / ``append_2pc`` /
  ``append_raw`` script, pinned to what the three separate append
  tails wrote before they became one;
* :meth:`Database.open` against the recover-then-reopen recipe it
  replaced, kept here as the reference, over the crash kit's engine
  lattice — and one ``_parse_frame`` call per frame, one read of the
  file, at each of the four restart sites.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    crash_ddl,
    crash_points,
    database_state,
    frame_boundaries,
    run_crash_workload,
)
from repro.rdb import (
    Column,
    ColumnType,
    Database,
    JournalCorruptError,
    Schema,
    TransactionError,
)
from repro.rdb.wal import (
    Journal,
    SyncPolicy,
    read_frames,
    write_snapshot,
)

T = ColumnType

EVENTS = Schema(
    name="events",
    columns=(
        Column("k", T.INT, nullable=False),
        Column("label", T.TEXT),
    ),
    primary_key=("k",),
)


def insert(k, label):
    return ["insert", "events", {"k": k, "label": label}]


def relabel(k, label):
    return ["update", "events", [k], {"label": label}]


def prepare(gtxn, *ops):
    return {"2pc": "prepare", "gtxn": gtxn, "ops": list(ops)}


def outcome(kind, gtxn):
    return {"2pc": kind, "gtxn": gtxn}


def labels(db):
    return {row["k"]: row["label"] for row in db.select("events")}


def recover(tmp_path, **kwargs):
    return Database.recover(
        "r", [EVENTS], journal_path=tmp_path / "wal", **kwargs
    )


# ---------------------------------------------------------------------------
# (a) one replay: 2PC frames through Database.recover
# ---------------------------------------------------------------------------
class TestRecoverAppliesTwoPhaseFrames:
    def test_prepared_ops_apply_at_the_commit_frame(self, tmp_path):
        with Journal(tmp_path / "wal") as journal:
            journal.append(1, [insert(1, "new"), insert(2, "new")])
            journal.append_2pc(prepare("g-1", relabel(1, "g-1")))
            journal.append_2pc(outcome("commit", "g-1"))
            # Row 1: the commit above, THEN a direct update.
            journal.append(2, [relabel(1, "direct")])
            # Row 2: prepared before a direct update, committed after it.
            journal.append_2pc(prepare("g-2", relabel(2, "g-2")))
            journal.append(3, [relabel(2, "direct")])
            journal.append_2pc(outcome("commit", "g-2"))
        db = recover(tmp_path)
        assert labels(db) == {1: "direct", 2: "g-2"}
        assert db.prepared_ops == {}
        assert db.outcomes == {"g-1": "commit", "g-2": "commit"}
        assert db.recovery_stats.records_recovered == 7
        assert db.recovery_stats.last_lsn == 7

    def test_aborted_prepare_applies_nothing(self, tmp_path):
        with Journal(tmp_path / "wal") as journal:
            journal.append(1, [insert(1, "new")])
            journal.append_2pc(prepare("g-1", relabel(1, "g-1"), insert(2, "g-1")))
            journal.append_2pc(outcome("abort", "g-1"))
        db = recover(tmp_path)
        assert labels(db) == {1: "new"}
        assert db.prepared_ops == {}
        assert db.outcomes == {"g-1": "abort"}

    def test_prepare_without_outcome_is_held_in_doubt(self, tmp_path):
        with Journal(tmp_path / "wal") as journal:
            journal.append(1, [insert(1, "new")])
            journal.append_2pc(prepare("g-1", insert(2, "g-1")))
        db = recover(tmp_path)
        assert labels(db) == {1: "new"}
        assert db.prepared_ops == {"g-1": [insert(2, "g-1")]}
        assert db.outcomes == {}

    def test_commit_whose_prepare_is_below_the_watermark_is_a_noop(
        self, tmp_path
    ):
        with Journal(tmp_path / "wal") as journal:
            journal.append(1, [insert(1, "new")])
            journal.append_2pc(prepare("g-1", insert(2, "g-1")))
            journal.append_2pc(outcome("commit", "g-1"))
        write_snapshot(
            tmp_path / "snap", {"events": [{"k": 1, "label": "new"}]},
            last_lsn=2,
        )
        db = recover(tmp_path, snapshot_path=tmp_path / "snap")
        assert labels(db) == {1: "new"}
        assert db.outcomes == {"g-1": "commit"}
        assert db.recovery_stats.records_skipped_watermark == 2
        assert db.recovery_stats.records_recovered == 1

    def test_coordinator_records_and_checkpoints_carry_no_state(
        self, tmp_path
    ):
        with Journal(tmp_path / "wal") as journal:
            journal.append(1, [insert(1, "new")])
            journal.checkpoint()
            journal.append_2pc({"2pc": "decision", "gtxn": "g-1",
                                "outcome": "commit", "shards": [0, 1]})
            journal.append_2pc({"2pc": "end", "gtxn": "g-1"})
        db = recover(tmp_path)
        assert labels(db) == {}  # row 1 went with the checkpoint
        assert db.prepared_ops == {} and db.outcomes == {}

    def test_apply_frame_refused_inside_a_transaction(self, tmp_path):
        with Journal(tmp_path / "wal") as journal:
            journal.append(1, [insert(1, "new")])
        [frame] = read_frames(tmp_path / "wal")
        db = Database("live")
        db.create_table(EVENTS)
        db.begin()
        with pytest.raises(TransactionError):
            db.apply_frame(frame)
        db.rollback()
        db.apply_frame(frame)
        assert labels(db) == {1: "new"}


# ---------------------------------------------------------------------------
# (c) Journal.base_lsn vs the shipper method it replaces
# ---------------------------------------------------------------------------
def _reference_base_lsn(journal):
    """``WalShipper._base_lsn()`` as it stood before ``Journal.base_lsn``
    (verbatim but for ``self.journal`` → ``journal``): reads the whole
    file to look at its first frame."""
    for frame in read_frames(journal.path):
        if frame.kind == "ckpt":
            return frame.lsn
        return frame.lsn - 1
    return journal.last_lsn


class TestBaseLsn:
    def test_tracks_the_reference_at_every_step(self, tmp_path):
        path = tmp_path / "wal"
        seen = []

        def check(journal):
            assert journal.base_lsn == _reference_base_lsn(journal)
            seen.append(journal.base_lsn)

        journal = Journal(path)
        check(journal)                                   # fresh, empty
        journal.append(1, [insert(1, "a")]); check(journal)
        journal.append(2, [insert(2, "b")]); check(journal)
        journal.close()
        journal = Journal(path); check(journal)          # reopen, no ckpt
        journal.checkpoint(); check(journal)             # base -> 2
        journal.append(3, [insert(3, "c")]); check(journal)
        journal.append_2pc(prepare("g-1")); check(journal)
        journal.close()
        journal = Journal(path); check(journal)          # reopen on ckpt
        journal.checkpoint(3); check(journal)            # explicit, lower
        journal.append(5, [insert(5, "e")]); check(journal)
        journal.close()
        assert seen == [0, 0, 0, 0, 2, 2, 2, 2, 3, 3]

    def test_marker_completed_open(self, tmp_path):
        path = tmp_path / "wal"
        with Journal(path) as journal:
            journal.append(1, [insert(1, "a")])
            journal.append(2, [insert(2, "b")])
        marker = path.with_name(path.name + ".ckpt")
        marker.write_text(json.dumps({"last_lsn": 2}))
        with Journal(path) as journal:
            assert journal.base_lsn == 2 == _reference_base_lsn(journal)
            journal.append(3, [insert(3, "c")])
            assert journal.base_lsn == 2 == _reference_base_lsn(journal)

    def test_salvage_compacting_open(self, tmp_path):
        path = tmp_path / "wal"
        with Journal(path) as journal:
            journal.append(1, [insert(1, "a")])
            journal.checkpoint()
            first_end = journal.tell()
            journal.append(2, [insert(2, "b")])
            second_end = journal.tell()
            journal.append(3, [insert(3, "c")])
        data = bytearray(path.read_bytes())
        data[(first_end + second_end) // 2] ^= 0xFF  # damage record 2
        path.write_bytes(bytes(data))
        with Journal(path, salvage=True) as journal:
            assert journal.base_lsn == 1 == _reference_base_lsn(journal)
            assert journal.last_lsn == 3
        # Compaction rewrote the survivors' own bytes behind the
        # checkpoint frame: a strict read now succeeds.
        assert [(f.kind, f.lsn) for f in read_frames(path)] == \
            [("ckpt", 1), ("txn", 3)]
        assert bytes(data).endswith(list(read_frames(path))[-1].data)


# ---------------------------------------------------------------------------
# (d) the one append tail writes the same bytes and fsyncs as the three
# ---------------------------------------------------------------------------
#: SHA-256 of the file the script below wrote at the parent commit
#: (separate write/flush/LSN/sync tails in append, append_2pc, append_raw).
PINNED_SHA256 = (
    "c9ed99229575798f6cfb37e7cc2edd2355902070c39ccd0f17e21861c7060527"
)
#: fsyncs issued so far after each of the script's eight steps (seven
#: appends, then close), per sync policy, at the parent commit
PINNED_FSYNCS = {
    "none": [0, 1, 1, 2, 2, 2, 2, 2],
    "commit": [1, 2, 3, 4, 5, 6, 7, 7],
    "interval-3": [0, 1, 1, 2, 2, 2, 3, 3],
}


@pytest.mark.parametrize("spec", sorted(PINNED_FSYNCS))
def test_append_tail_bytes_and_fsyncs_are_pinned(tmp_path, spec):
    with Journal(tmp_path / "src.wal") as src:
        src.checkpoint(4)  # so the shipped frames carry LSNs 5 and 6
        for k in (5, 6):
            src.append(k, [insert(k, "shipped")])
    shipped = [f for f in read_frames(tmp_path / "src.wal")
               if f.kind == "txn"]

    syncs: list[int] = []
    base = SyncPolicy.parse(spec)
    journal = Journal(
        tmp_path / "dst.wal",
        sync=SyncPolicy(base.mode, base.interval, fsync=syncs.append),
    )
    steps = [
        lambda: journal.append(1, [insert(1, "a")]),
        lambda: journal.append_2pc(prepare("g-1", relabel(1, "b"))),
        lambda: journal.append(2, [insert(2, "c"), ["delete", "events", [2]]]),
        lambda: journal.append_2pc(outcome("commit", "g-1")),
        lambda: journal.append_raw(shipped[0]),
        lambda: journal.append_raw(shipped[1]),
        lambda: journal.append(3, [insert(3, "d")]),
        journal.close,
    ]
    fsyncs = []
    for step in steps:
        step()
        fsyncs.append(len(syncs))
    assert fsyncs == PINNED_FSYNCS[spec]
    # append_2pc forces whatever the policy: steps 2 and 4 each synced.
    assert fsyncs[1] == fsyncs[0] + 1 and fsyncs[3] == fsyncs[2] + 1
    written = (tmp_path / "dst.wal").read_bytes()
    assert hashlib.sha256(written).hexdigest() == PINNED_SHA256
    assert [f.lsn for f in read_frames(tmp_path / "dst.wal")] == \
        [1, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# (e) one open: Database.open against the recover-then-reopen recipe
# ---------------------------------------------------------------------------
def _reference_open(name, schemas, *, snapshot_path, journal_path, salvage):
    """The recipe five restart sites spelled before ``Database.open``,
    kept here as the reference: replay the journal read-only, then open
    it a second time for appending (which trims, compacts or completes
    the checkpoint), then attach."""
    db = Database.recover(
        name, schemas, snapshot_path=snapshot_path,
        journal_path=journal_path, salvage=salvage,
    )
    db.attach_journal(Journal(journal_path, sync="commit", salvage=salvage))
    return db


def _candidate_open(name, schemas, *, snapshot_path, journal_path, salvage):
    return Database.open(
        name, schemas, snapshot_path=snapshot_path,
        journal_path=journal_path, sync="commit", salvage=salvage,
    )


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _open_outcome(opener, directory, salvage):
    """Everything observable about opening the case in ``directory``."""
    before = _files(directory)
    try:
        db = opener(
            "crashdb", CRASH_SCHEMAS, snapshot_path=directory / "case.snap",
            journal_path=directory / "case.wal", salvage=salvage,
        )
    except JournalCorruptError as exc:
        # Strict refusal: nothing on disk may have moved.
        assert _files(directory) == before
        return ("corrupt", exc.offset, exc.reason)
    opened = (
        database_state(db), _files(directory), db.journal.last_lsn,
        db.journal.base_lsn, db.recovery_stats.as_dict(),
    )
    # It journals to that file from here on, at the next LSN.
    db.insert("crash_docs", {"doc_id": 10_000, "title": "after-open"})
    db.journal.close()
    return opened + (db.journal.last_lsn, _files(directory))


@pytest.fixture(scope="module")
def open_lattice(tmp_path_factory):
    """``(variant, kind, offset, files)`` over the crash kit's engine
    scenario: the golden journal cut (truncate) or bit-flipped (garble)
    at every record boundary and every 64 B, alone, beside a mid-run
    snapshot, and beside that snapshot plus its ``.ckpt`` marker (the
    crash between marker and truncation)."""
    golden = run_crash_workload(tmp_path_factory.mktemp("golden"), txns=12)
    data = golden.data
    bounds = frame_boundaries(golden.journal_path)
    half = golden.acks[len(golden.acks) // 2]
    snap = tmp_path_factory.mktemp("snap") / "case.snap"
    write_snapshot(
        snap,
        {table: list(rows.values()) for table, rows in half.state.items()},
        last_lsn=half.lsn,
    )
    beside = {
        "journal only": {},
        "snapshot": {"case.snap": snap.read_bytes()},
        "snapshot + marker": {
            "case.snap": snap.read_bytes(),
            "case.wal.ckpt": json.dumps({"last_lsn": half.lsn}).encode(),
        },
    }
    cases = []
    for variant, extra in beside.items():
        for offset in crash_points(len(data), bounds, stride=64):
            cases.append((variant, "truncate", offset,
                          {"case.wal": data[:offset], **extra}))
        for offset in crash_points(len(data) - 1, bounds, stride=64):
            garbled = bytearray(data)
            garbled[offset] ^= 0x40
            cases.append((variant, "garble", offset,
                          {"case.wal": bytes(garbled), **extra}))
    return cases


def _lattice_outcomes(opener, cases, workdir):
    for number, (variant, kind, offset, files) in enumerate(cases):
        for salvage in (False, True):
            directory = workdir / f"{number}-{int(salvage)}"
            directory.mkdir()
            for name, content in files.items():
                (directory / name).write_bytes(content)
            yield (variant, kind, offset, salvage), \
                _open_outcome(opener, directory, salvage)


#: SHA-256 over ``repr`` of every ``_reference_open`` outcome of the
#: lattice, computed at the parent commit — where ``Journal(...)`` still
#: ran its own second scan — so the reference is anchored too.
PINNED_LATTICE_SHA256 = (
    "60146ec0a3d5be19c1ad99acda97e66385a33fbc41307461111351d26fe3dce7"
)


def test_open_matches_recover_then_reopen(open_lattice, tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "new").mkdir()
    reference = _lattice_outcomes(_reference_open, open_lattice,
                                  tmp_path / "ref")
    candidate = _lattice_outcomes(_candidate_open, open_lattice,
                                  tmp_path / "new")
    digest = hashlib.sha256()
    refused = opened = 0
    for (case, expected), (_, got) in zip(reference, candidate, strict=True):
        assert got == expected, case
        digest.update(repr((case, got)).encode())
        if got[0] == "corrupt":
            refused += 1
        else:
            opened += 1
    # Both arms of the comparison were exercised, in both modes.
    assert refused > 50 and opened > 200
    assert digest.hexdigest() == PINNED_LATTICE_SHA256


# ---------------------------------------------------------------------------
# (f) one pass: every restart site parses each frame once, reads once
# ---------------------------------------------------------------------------
@pytest.fixture
def pass_counter(monkeypatch):
    """``count(path, restart)``: run ``restart`` and return (frames in
    ``path`` beforehand, ``_parse_frame`` calls, reads of ``path``)."""
    from pathlib import Path

    import repro.rdb.wal as wal

    def count(path, restart):
        frames = sum(1 for _ in read_frames(path))
        parses, reads = [], []
        real_parse, real_read = wal._parse_frame, Path.read_bytes

        def parse(data, pos, last_lsn):
            parses.append(pos)
            return real_parse(data, pos, last_lsn)

        def read_bytes(self):
            if self == Path(path):
                reads.append(self)
            return real_read(self)

        with monkeypatch.context() as patch:
            patch.setattr(wal, "_parse_frame", parse)
            patch.setattr(Path, "read_bytes", read_bytes)
            restart()
        return frames, len(parses), len(reads)

    return count


class TestRestartIsOnePass:
    """At the parent commit each of these made two passes: the replay,
    then ``Journal.__init__``'s scan of the same file."""

    def test_server(self, tmp_path, pass_counter):
        from repro.tiers.protocol import Request
        from repro.tiers.server import ClassAdministrator

        server = ClassAdministrator(data_dir=tmp_path)
        session = server.handle(Request(
            op="login", session_id=None,
            params={"user": "registrar", "role": "administrator"},
        )).unwrap()["session_id"]
        for k in range(5):
            server.handle(Request(
                op="admit_student", session_id=session,
                params={"student_id": f"s{k}", "name": f"S {k}"},
            )).unwrap()
        server.journal.close()
        restarted = []
        assert pass_counter(
            tmp_path / "class_admin.wal",
            lambda: restarted.append(ClassAdministrator(data_dir=tmp_path)),
        ) == (5, 5, 1)
        assert restarted[0].recovery_report()["records_recovered"] == 5
        restarted[0].journal.close()

    def test_shard(self, tmp_path, pass_counter):
        from repro.sharding.participant import recover_participant

        golden = run_crash_workload(tmp_path, txns=6)
        shards = []
        assert pass_counter(
            golden.journal_path,
            lambda: shards.append(recover_participant(
                0, CRASH_SCHEMAS, golden.journal_path, ddl_fn=crash_ddl,
            )),
        ) == (6, 6, 1)
        assert database_state(shards[0].db) == golden.acks[-1].state
        shards[0].close()

    def test_coordinator(self, tmp_path, pass_counter):
        from repro.sharding.coordinator import TwoPhaseCoordinator

        path = tmp_path / "coord.wal"
        with Journal(path) as journal:
            for gtxn in ("g-1", "g-2", "g-3"):
                journal.append_2pc({"2pc": "decision", "gtxn": gtxn,
                                    "outcome": "commit", "shards": [0, 1]})
            journal.append_2pc({"2pc": "end", "gtxn": "g-2"})
        coordinators = []
        assert pass_counter(
            path,
            lambda: coordinators.append(TwoPhaseCoordinator.recover(path, {})),
        ) == (4, 4, 1)
        assert coordinators[0].outstanding == {"g-1": [0, 1], "g-3": [0, 1]}
        assert coordinators[0].next_gtxn() == "g-4"
        coordinators[0].close()

    def test_follower(self, tmp_path, pass_counter):
        from repro.net.sim import Simulator
        from repro.net.station import Station
        from repro.net.transport import Network
        from repro.replication import Recoverer

        golden = run_crash_workload(tmp_path / "primary", txns=6)
        replica = tmp_path / "f1"
        replica.mkdir()
        (replica / "replica.wal").write_bytes(golden.data)
        network = Network(Simulator(), default_latency_s=0.002)
        network.add(Station("primary"))
        network.add(Station("f1"))
        follower = Recoverer(network, "f1", "primary", CRASH_SCHEMAS,
                             replica, ddl_fn=crash_ddl)
        assert pass_counter(replica / "replica.wal", follower.start) \
            == (6, 6, 1)
        assert follower.applied_lsn == golden.acks[-1].lsn
        assert database_state(follower.db) == golden.acks[-1].state
        follower.stop()
