"""The resumable frame-streaming API replication is built on.

Covers :func:`repro.rdb.wal.read_frames`, :func:`parse_frame` and
:meth:`Journal.append_raw` — including the pinned regression that
reading a journal mid-append can never yield a torn frame.
"""

from __future__ import annotations

import pytest

from repro.rdb import Database, JournalCorruptError, Schema, Column, ColumnType
from repro.rdb.wal import (
    Journal,
    RecoveryStats,
    WalFrame,
    parse_frame,
    read_frames,
)

T = ColumnType

EVENTS = Schema(
    name="events",
    columns=(
        Column("event_id", T.INT, nullable=False),
        Column("label", T.TEXT, nullable=False, default=""),
    ),
    primary_key=("event_id",),
)


def _journal_with(path, n, *, start=1):
    journal = Journal(path, sync="commit")
    for k in range(start, start + n):
        journal.append(k, [["insert", "events", {"event_id": k, "label": f"e{k}"}]])
    return journal


class TestReadFrames:
    def test_yields_all_frames_in_order(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 5)
        journal.close()
        frames = list(read_frames(tmp_path / "j.wal"))
        assert [f.lsn for f in frames] == [1, 2, 3, 4, 5]
        assert all(f.kind == "txn" for f in frames)

    def test_from_lsn_resumes_exactly_above(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 5)
        journal.close()
        frames = list(read_frames(tmp_path / "j.wal", from_lsn=3))
        assert [f.lsn for f in frames] == [4, 5]

    def test_checkpoint_frames_are_yielded(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 3)
        journal.checkpoint(3)
        journal.append(4, [["insert", "events", {"event_id": 4, "label": ""}]])
        journal.close()
        kinds = [(f.kind, f.lsn) for f in read_frames(tmp_path / "j.wal")]
        assert kinds == [("ckpt", 3), ("txn", 4)]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_frames(tmp_path / "absent.wal")) == []

    def test_torn_tail_never_yielded(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 3)
        journal.close()
        data = (tmp_path / "j.wal").read_bytes()
        (tmp_path / "torn.wal").write_bytes(data[:-7])
        frames = list(read_frames(tmp_path / "torn.wal"))
        assert [f.lsn for f in frames] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 3)
        journal.close()
        data = bytearray((tmp_path / "j.wal").read_bytes())
        data[len(data) // 3] ^= 0x40  # damage with intact frames after it
        (tmp_path / "bad.wal").write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            list(read_frames(tmp_path / "bad.wal"))

    def test_resuming_mid_append_never_yields_torn_frame(self, tmp_path):
        """Pinned regression: resume at EVERY byte prefix of an in-flight
        append — a partially written frame must never surface, and once
        the final byte lands exactly the full frames appear."""
        journal = _journal_with(tmp_path / "whole.wal", 3)
        journal.close()
        whole = (tmp_path / "whole.wal").read_bytes()
        frame_ends = []
        pos = 0
        for frame in read_frames(tmp_path / "whole.wal"):
            pos += len(frame.data)
            frame_ends.append(pos)

        live = tmp_path / "live.wal"
        yielded: list[int] = []
        for cut in range(len(whole) + 1):
            live.write_bytes(whole[:cut])  # the append in flight
            last = yielded[-1] if yielded else 0
            # must not raise, must not tear
            yielded.extend(f.lsn for f in read_frames(live, from_lsn=last))
            complete = sum(1 for end in frame_ends if end <= cut)
            assert yielded == list(range(1, complete + 1)), (
                f"at byte {cut}: yielded {yielded}, "
                f"complete frames {complete}"
            )
        assert yielded == [1, 2, 3]


class TestResumeHint:
    """``read_frames(resume_at=…)``: a start offset that is verified,
    never trusted — anything but "the frame with LSN from_lsn + 1 starts
    here" falls back to the scan from the top."""

    @staticmethod
    def _lsns(path, **kwargs):
        return [(f.kind, f.lsn) for f in read_frames(path, **kwargs)]

    def test_hint_at_a_frame_boundary_yields_what_the_full_scan_yields(
        self, tmp_path
    ):
        path = tmp_path / "j.wal"
        _journal_with(path, 8).close()
        frames = list(read_frames(path))
        for frame in frames[:-1]:
            full = list(read_frames(path, from_lsn=frame.lsn))
            hinted = list(
                read_frames(path, from_lsn=frame.lsn, resume_at=frame.end)
            )
            assert hinted == full
            assert [f.data for f in hinted] == [f.data for f in full]
            # offsets stay file offsets, so the next hint chains
            assert hinted[0].start == frame.end
        # the hint past the last frame: nothing left, by either route
        last = frames[-1]
        assert self._lsns(path, from_lsn=last.lsn, resume_at=last.end) == []

    def test_hint_skips_the_decode_of_what_was_already_read(self, tmp_path):
        path = tmp_path / "j.wal"
        _journal_with(path, 6).close()
        frames = list(read_frames(path))
        scanned, hinted = RecoveryStats(), RecoveryStats()
        list(read_frames(path, from_lsn=4, stats=scanned))
        list(read_frames(path, from_lsn=4, resume_at=frames[3].end,
                         stats=hinted))
        assert scanned.records_skipped_watermark == 4
        assert hinted.records_skipped_watermark == 0
        assert scanned.records_recovered == hinted.records_recovered == 2

    def test_stale_hint_after_checkpoint_falls_back(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = _journal_with(path, 5)
        stale = list(read_frames(path))[2].end  # just past LSN 3
        journal.checkpoint(5)
        for k in (6, 7, 8):
            journal.append(k, [["insert", "events",
                                {"event_id": k, "label": f"e{k}"}]])
        journal.close()
        # The file was rewritten: whatever now sits at the old offset,
        # the read is the full scan's.
        for from_lsn in (3, 5, 6):
            assert self._lsns(path, from_lsn=from_lsn, resume_at=stale) == \
                self._lsns(path, from_lsn=from_lsn)
        assert self._lsns(path, from_lsn=5, resume_at=stale) == \
            [("txn", 6), ("txn", 7), ("txn", 8)]

    def test_hint_at_a_later_frame_boundary_skips_nothing(self, tmp_path):
        """A boundary, but of the wrong frame (what a stale offset can
        land on by coincidence): frames 3 and 4 must not be lost."""
        path = tmp_path / "j.wal"
        _journal_with(path, 6).close()
        frames = list(read_frames(path))
        assert self._lsns(path, from_lsn=2, resume_at=frames[3].end) == \
            [("txn", k) for k in (3, 4, 5, 6)]

    def test_hint_past_eof_falls_back(self, tmp_path):
        path = tmp_path / "j.wal"
        _journal_with(path, 4).close()
        size = path.stat().st_size
        for hint in (size, size + 1, size * 10):
            assert self._lsns(path, from_lsn=2, resume_at=hint) == \
                [("txn", 3), ("txn", 4)]

    def test_hint_mid_frame_falls_back(self, tmp_path):
        path = tmp_path / "j.wal"
        _journal_with(path, 4).close()
        boundary = list(read_frames(path))[1].end
        for hint in (boundary - 1, boundary + 1, boundary + 9):
            assert self._lsns(path, from_lsn=2, resume_at=hint) == \
                [("txn", 3), ("txn", 4)]

    def test_torn_tail_after_the_hint_is_tolerated_and_counted(
        self, tmp_path
    ):
        path = tmp_path / "j.wal"
        _journal_with(path, 5).close()
        hint = list(read_frames(path))[1].end
        path.write_bytes(path.read_bytes()[:-7])
        stats = RecoveryStats()
        assert self._lsns(path, from_lsn=2, resume_at=hint, stats=stats) == \
            [("txn", 3), ("txn", 4)]
        assert stats.torn_tails == 1
        assert stats.bytes_skipped > 0

    def test_damage_with_frames_after_it_still_raises(self, tmp_path):
        path = tmp_path / "j.wal"
        _journal_with(path, 6).close()
        frames = list(read_frames(path))
        data = bytearray(path.read_bytes())
        data[frames[3].start + 20] ^= 0x40  # inside LSN 4; 5 and 6 follow
        path.write_bytes(bytes(data))
        reader = read_frames(path, from_lsn=2, resume_at=frames[1].end)
        assert next(reader).lsn == 3
        with pytest.raises(JournalCorruptError):
            next(reader)
        # and salvage mode skips it, hint or no hint
        assert self._lsns(path, from_lsn=2, resume_at=frames[1].end,
                          salvage=True) == \
            [("txn", 3), ("txn", 5), ("txn", 6)]


class TestParseFrame:
    def test_roundtrip(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 2)
        journal.close()
        frames = list(read_frames(tmp_path / "j.wal"))
        for frame in frames:
            again = parse_frame(frame.data)
            assert isinstance(again, WalFrame)
            assert (again.lsn, again.txn_id, again.ops) == (
                frame.lsn, frame.txn_id, frame.ops,
            )

    def test_damage_is_detected(self, tmp_path):
        journal = _journal_with(tmp_path / "j.wal", 1)
        journal.close()
        [frame] = read_frames(tmp_path / "j.wal")
        data = bytearray(frame.data)
        data[-1] ^= 0x01
        with pytest.raises(JournalCorruptError):
            parse_frame(bytes(data))
        with pytest.raises(JournalCorruptError):
            parse_frame(b"not a frame at all")


class TestAppendRaw:
    def test_bytes_are_verbatim_and_recoverable(self, tmp_path):
        src = _journal_with(tmp_path / "src.wal", 4)
        src.close()
        dst = Journal(tmp_path / "dst.wal", sync="commit")
        for frame in read_frames(tmp_path / "src.wal"):
            dst.append_raw(frame)
        dst.close()
        assert (tmp_path / "dst.wal").read_bytes() == (
            (tmp_path / "src.wal").read_bytes()
        )
        db = Database.recover(
            "copy", [EVENTS], journal_path=str(tmp_path / "dst.wal")
        )
        assert db.count("events") == 4

    def test_lsn_must_advance(self, tmp_path):
        src = _journal_with(tmp_path / "src.wal", 2)
        src.close()
        frames = list(read_frames(tmp_path / "src.wal"))
        dst = Journal(tmp_path / "dst.wal", sync="commit")
        dst.append_raw(frames[0])
        with pytest.raises(ValueError):
            dst.append_raw(frames[0])
        dst.close()

    def test_interleaves_with_native_appends(self, tmp_path):
        src = _journal_with(tmp_path / "src.wal", 2)
        src.close()
        dst = Journal(tmp_path / "dst.wal", sync="commit")
        for frame in read_frames(tmp_path / "src.wal"):
            dst.append_raw(frame)
        lsn = dst.append(7, [["insert", "events", {"event_id": 7, "label": ""}]])
        assert lsn == 3  # adopted sequence continues
        dst.close()

    def test_adopts_the_lsn_in_the_frame_header(self, tmp_path):
        """Regression: ``append_raw(lsn, data)`` believed its caller, so
        ``append_raw(5, <frame 1>)`` left ``last_lsn == 5`` in memory and
        1 after reopen.  It now takes the frame, so the two cannot
        differ — whatever appends interleave."""
        src = _journal_with(tmp_path / "src.wal", 1)
        src.checkpoint(4)  # so the shipped frames carry LSNs 5 and 6
        for k in (5, 6):
            src.append(k, [["insert", "events", {"event_id": k, "label": ""}]])
        src.close()
        shipped = [f for f in read_frames(tmp_path / "src.wal")
                   if f.kind == "txn"]
        assert [f.lsn for f in shipped] == [5, 6]

        dst = Journal(tmp_path / "dst.wal", sync="commit")
        with pytest.raises(TypeError):
            dst.append_raw(9, shipped[0].data)  # the old two-opinion call
        seen = []
        seen.append(dst.append(1, [["insert", "events", {"event_id": 1}]]))
        seen.append(dst.append_2pc({"2pc": "prepare", "gtxn": "g-1", "ops": []}))
        seen.append(dst.append_raw(shipped[0]))
        seen.append(dst.append_2pc({"2pc": "abort", "gtxn": "g-1"}))
        assert seen == [1, 2, 5, 6]
        with pytest.raises(ValueError, match="does not advance"):
            dst.append_raw(shipped[1])  # header says 6; 6 is taken
        seen.append(dst.append(2, [["insert", "events", {"event_id": 2}]]))
        assert dst.last_lsn == 7
        dst.close()
        reopened = Journal(tmp_path / "dst.wal")
        assert reopened.last_lsn == 7
        reopened.close()
        assert [f.lsn for f in read_frames(tmp_path / "dst.wal")] == \
            [1, 2, 5, 6, 7]
