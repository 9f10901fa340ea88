"""Differential: shard recovery through the engine's one replay vs the
loop it replaced.

:func:`~repro.sharding.participant.recover_participant` used to carry
its own snapshot load and its own journal→state loop; it is now
:meth:`Database.recover` (``load_snapshot`` + ``apply_frame`` per
frame).  The old body is kept here as the oracle — ``_reference_recover``,
verbatim but for applying each shipped transaction as a txn frame, with
its own 2PC bookkeeping — and Hypothesis drives one live participant
through random sequences of direct transactions, two-phase commits and
aborts, prepares left in doubt by a crash, and checkpoints.  At every
crash point and at the end both recoveries run over the same files and
must agree on the rows, the in-doubt set, the journaled outcomes and
the LSN horizon.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    crash_ddl,
    database_state,
    verify_database,
)
from repro.rdb import Database
from repro.rdb.errors import RdbError
from repro.rdb.wal import (
    RecoveryStats,
    WalFrame,
    decode_row,
    encode_row,
    parse_snapshot,
    read_frames,
)
from repro.sharding import recover_participant


def _read_records(path, *, start_lsn, stats):
    """The record shapes the deleted ``Journal.read_records`` yielded,
    so the loop below can stay word for word."""
    for frame in read_frames(path, from_lsn=start_lsn, stats=stats):
        if frame.kind == "2pc":
            yield {"kind": "2pc", "payload": frame.payload, "lsn": frame.lsn}
        elif frame.kind == "txn":
            yield {"kind": "txn", "txn": frame.txn_id, "ops": frame.ops,
                   "lsn": frame.lsn}


def _shipped(ops, txn=None):
    """One txn frame carrying ``ops``, as a primary ships them."""
    return WalFrame("txn", 0, txn, ops, None, b"", 0, 0)


def _reference_recover(shard_id, schemas, journal_path, *,
                       snapshot_path=None, ddl_fn=None):
    """``recover_participant`` as it stood before the funnel — its own
    snapshot load and replay loop, kept verbatim up to the point where
    it opened the journal for appending (its snapshot read restated as
    ``parse_snapshot`` plus ``decode_row``)."""
    db = Database(f"shard-{shard_id}")
    for schema in schemas:
        db.create_table(schema)
    if ddl_fn is not None:
        ddl_fn(db)

    watermark = 0
    snapshot_path = Path(snapshot_path) if snapshot_path else None
    if snapshot_path is not None and snapshot_path.exists():
        tables, watermark = parse_snapshot(snapshot_path)
        for table, rows in tables.items():
            if rows:
                db.apply_frame(_shipped(
                    [["insert", table, encode_row(decode_row(r))]
                     for r in rows]
                ))

    stats = RecoveryStats()
    pending: dict = {}
    committed: set = set()
    aborted: set = set()
    for record in _read_records(
        journal_path, start_lsn=watermark, stats=stats
    ):
        if record["kind"] == "txn":
            db.apply_frame(_shipped(record["ops"], record["txn"]))
            continue
        payload = record["payload"] or {}
        kind, gtxn = payload.get("2pc"), payload.get("gtxn")
        if kind == "prepare":
            pending[gtxn] = payload.get("ops") or []
        elif kind == "commit":
            ops = pending.pop(gtxn, None)
            if ops is not None:
                db.apply_frame(_shipped(ops))
            committed.add(gtxn)
        elif kind == "abort":
            pending.pop(gtxn, None)
            aborted.add(gtxn)
    return db, pending, committed, aborted, stats


KEYS = st.integers(1, 6)
STATEMENT = st.one_of(
    st.tuples(st.just("insert"), KEYS),
    st.tuples(st.just("update"), KEYS),
    st.tuples(st.just("delete"), KEYS),
)
STATEMENTS = st.lists(STATEMENT, min_size=1, max_size=3)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("direct"), STATEMENTS),
        st.tuples(st.just("commit"), STATEMENTS),
        st.tuples(st.just("abort"), STATEMENTS),
        st.tuples(st.just("doubt"), STATEMENTS,
                  st.sampled_from(["commit", "abort"])),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=1, max_size=12,
)


def routed(statements, step_no):
    """Turn ``(verb, key)`` pairs into routed shard statements."""
    out = []
    for verb, key in statements:
        if verb == "insert":
            out.append(["insert", "crash_docs", {
                "doc_id": key, "title": f"doc-{key}", "version": 1,
                "body": "x" * key,
            }])
        elif verb == "update":
            out.append(["update_pk", "crash_docs", (key,),
                        {"version": 100 + step_no}])
        else:
            out.append(["delete_pk", "crash_docs", (key,)])
    return out


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_shard_recovery_matches_the_replaced_loop(steps):
    workdir = Path(tempfile.mkdtemp(prefix="recover-diff-"))
    journal_path, snapshot_path = workdir / "shard.wal", workdir / "shard.snap"

    def recover_both():
        ref_db, pending, committed, aborted, ref_stats = _reference_recover(
            0, CRASH_SCHEMAS, journal_path,
            snapshot_path=snapshot_path, ddl_fn=crash_ddl,
        )
        participant = recover_participant(
            0, CRASH_SCHEMAS, journal_path,
            snapshot_path=snapshot_path, ddl_fn=crash_ddl,
        )
        assert database_state(participant.db) == database_state(ref_db)
        assert participant.in_doubt == pending
        assert participant.db.outcomes == {
            **dict.fromkeys(committed, "commit"),
            **dict.fromkeys(aborted, "abort"),
        }
        assert participant.last_lsn() == ref_stats.last_lsn
        stats = participant.recovery_stats
        assert stats.records_recovered == ref_stats.records_recovered
        assert stats.records_skipped_watermark == \
            ref_stats.records_skipped_watermark
        assert verify_database(participant.db) == []
        return participant

    try:
        participant = recover_both()  # nothing on disk yet
        for step_no, step in enumerate(steps):
            kind = step[0]
            if kind == "checkpoint":
                participant.checkpoint(snapshot_path)
                continue
            statements = routed(step[1], step_no)
            if kind == "direct":
                try:
                    participant.execute(statements)
                except RdbError:
                    pass  # refused (duplicate key): nothing journaled
                continue
            gtxn = f"g-{step_no}"
            if not participant.prepare(gtxn, statements)["vote"]:
                continue
            if kind == "commit":
                participant.commit(gtxn)
            elif kind == "abort":
                participant.abort(gtxn)
            else:
                # Crash with the vote on disk and no outcome: recover
                # both ways while in doubt, then let the coordinator's
                # answer settle it and carry on.
                participant.close()
                participant = recover_both()
                assert list(participant.in_doubt) == [gtxn]
                participant.resolve_in_doubt(lambda _gtxn, _o=step[2]: _o)
        participant.close()
        recover_both().close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
