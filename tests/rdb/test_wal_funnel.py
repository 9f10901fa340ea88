"""The one journal funnel: one replay, one base LSN, one append tail.

* :meth:`Database.recover` over hand-built journals holding two-phase
  commit frames — it used to skip them, silently dropping every
  cross-shard row of a shard's journal;
* :attr:`Journal.base_lsn` against a verbatim copy of the
  ``WalShipper._base_lsn()`` it replaces (which re-read the file);
* the bytes and fsyncs of a fixed ``append`` / ``append_2pc`` /
  ``append_raw`` script, pinned to what the three separate append
  tails wrote before they became one.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.rdb import Column, ColumnType, Database, Schema, TransactionError
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
