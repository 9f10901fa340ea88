"""Property: a shard's live state is the replay of its own journal.

A participant moves its two-phase-commit state one way only — journal
the protocol record, then apply that same record as recovery would — so
after *every* step of any sequence of direct transactions, prepares
(yes and no votes), commits, aborts, redelivered outcomes, in-doubt
resolutions and restarts, the live shard's rows, held prepares and
journaled outcomes equal what :meth:`Database.recover` rebuilds from
the shard's snapshot and journal.  Checkpoints are left out: a snapshot
carries no outcomes, so a live shard remembers the outcomes journaled
before its checkpoint until it restarts.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.fault.crashsim import CRASH_SCHEMAS, crash_ddl, database_state
from repro.rdb import Database
from repro.rdb.errors import RdbError
from repro.sharding import recover_participant

from tests.sharding.test_recover_differential import STATEMENTS, routed

PICK = st.integers(0, 7)  # which gtxn seen so far an outcome names
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("execute"), STATEMENTS),
        st.tuples(st.just("prepare"), STATEMENTS),
        st.tuples(st.just("commit"), PICK),
        st.tuples(st.just("abort"), PICK),
        st.tuples(st.just("resolve"), st.sampled_from(["commit", "abort"])),
        st.tuples(st.just("restart")),
    ),
    min_size=1, max_size=14,
)


@settings(max_examples=80, deadline=None)
@given(steps=STEPS)
def test_live_shard_equals_the_replay_of_its_journal(steps):
    workdir = Path(tempfile.mkdtemp(prefix="live-replay-"))
    journal_path, snapshot_path = workdir / "shard.wal", workdir / "shard.snap"

    def start():
        return recover_participant(
            0, CRASH_SCHEMAS, journal_path,
            snapshot_path=snapshot_path, ddl_fn=crash_ddl,
        )

    def assert_live_is_replay(participant):
        replay = Database.recover(
            "replay", CRASH_SCHEMAS,
            snapshot_path=snapshot_path, journal_path=journal_path,
        )
        assert database_state(participant.db) == database_state(replay)
        assert participant.db.prepared_ops == replay.prepared_ops
        assert participant.db.outcomes == replay.outcomes
        assert not participant.db.in_transaction

    participant = start()
    gtxns: list[str] = []
    try:
        for step_no, step in enumerate(steps):
            kind = step[0]
            if kind == "execute":
                try:
                    participant.execute(routed(step[1], step_no))
                except RdbError:
                    pass  # duplicate key, or blocked by a prepare
            elif kind == "prepare":
                gtxn = f"g-{step_no}"
                gtxns.append(gtxn)
                participant.prepare(gtxn, routed(step[1], step_no))
            elif kind in ("commit", "abort"):
                # The open prepare, a settled one (redelivery) or one
                # this shard never prepared (it voted no).
                gtxn = gtxns[step[1] % len(gtxns)] if gtxns else "g-none"
                try:
                    getattr(participant, kind)(gtxn)
                except RdbError:
                    pass  # the contrary outcome is already journaled
            elif kind == "resolve":
                participant.resolve_in_doubt(lambda _g, _o=step[1]: _o)
            else:
                participant.close()
                participant = start()
            assert_live_is_replay(participant)
    finally:
        participant.close()
        shutil.rmtree(workdir, ignore_errors=True)
