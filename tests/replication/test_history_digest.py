"""The history digest: one integer per LSN that names the whole history
up to it (``repro.rdb.wal``), and the one rule a rejoining follower is
judged by (``WalShipper._history_differs``)."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    build_crash_db,
    crash_ddl,
    database_state,
)
from repro.net.messages import ReplSubscribe
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb import Database
from repro.rdb.wal import Journal, read_frames
from repro.replication import Recoverer, RecoveryStage, WalShipper


def _insert(db, doc_id, title):
    db.insert("crash_docs", {"doc_id": doc_id, "title": f"{title} {doc_id}"})


def _reopen(db, directory, name):
    """Close ``db`` and bring it back from its own snapshot + journal."""
    db.journal.close()
    reopened = Database.open(
        name, CRASH_SCHEMAS, snapshot_path=str(directory / f"{name}.snapshot"),
        journal_path=str(directory / f"{name}.wal"),
    )
    crash_ddl(reopened)
    return reopened


def test_a_rejoin_at_the_masters_checkpoint_base_is_judged_across_a_reopen(
    repl_cluster, tmp_path
):
    """f1 is promoted and journals two commits the primary never sees,
    at LSNs 7 and 8; the primary commits its own 7 and 8, snapshots
    there (its journal's base is now 8) and is reopened from disk.  f1
    rejoins at exactly that base: the digest the snapshot recorded tells
    the two histories apart, so f1 is resynced, not taken at its word."""
    cluster = repl_cluster()
    rec = cluster.recoverers["f1"]
    rec.start()
    cluster.write(6)
    cluster.sync()
    own = rec.promote()
    for doc_id in (9001, 9002):
        _insert(own, doc_id, "f1 only")
    own.journal.close()
    cluster.write(2)
    cluster.db.snapshot(str(tmp_path / "primary.snapshot"))
    cluster.shipper.close()
    master = _reopen(cluster.db, tmp_path, "primary")
    assert (master.journal.base_lsn, master.journal.last_lsn) == (8, 8)
    shipper = WalShipper(cluster.network, "primary", master)

    rejoined = Recoverer(
        cluster.network, "f1", "primary", CRASH_SCHEMAS, tmp_path / "f1",
        sync_policy="commit", ddl_fn=crash_ddl,
    )
    rejoined.start()
    assert rejoined.applied_lsn == 8
    cluster.network.quiesce()
    assert shipper.snapshots_served == 1
    assert RecoveryStage.DOWNLOADING_SNAPSHOT in rejoined.stage_history
    assert rejoined.applied_lsn == 8 and rejoined.caught_up
    assert database_state(rejoined.db) == database_state(master)
    # The install seeded f1's fresh journal with the master's digest.
    assert rejoined.journal.digest == master.journal.digest


def test_histories_equal_at_the_lsn_but_not_below_it_differ(tmp_path):
    """f1's frames 1 and 3 are the primary's, byte for byte, but its
    frame 2 is not: its frame at LSN 3 matches, its history does not."""
    network = Network(Simulator(), default_latency_s=0.002)
    network.add(Station("primary"))
    network.add(Station("f1"))
    primary = build_crash_db("primary", Journal(tmp_path / "primary.wal"))
    other = build_crash_db("other", Journal(tmp_path / "other.wal"))
    for db, title in ((primary, "ours"), (other, "theirs")):
        _insert(db, 1, "shared")
        _insert(db, 2, title)
        _insert(db, 3, "shared")
        db.journal.close()
    ours = list(read_frames(tmp_path / "primary.wal"))
    theirs = list(read_frames(tmp_path / "other.wal"))
    assert ours[2].data == theirs[2].data and ours[1].data != theirs[1].data
    (tmp_path / "f1").mkdir()
    (tmp_path / "f1" / "replica.wal").write_bytes(
        ours[0].data + theirs[1].data + ours[2].data
    )
    primary.attach_journal(Journal(tmp_path / "primary.wal"))
    shipper = WalShipper(network, "primary", primary)

    follower = Recoverer(
        network, "f1", "primary", CRASH_SCHEMAS, tmp_path / "f1",
        ddl_fn=crash_ddl,
    )
    follower.start()
    assert follower.db.get("crash_docs", (2,))["title"] == "theirs 2"
    network.quiesce()
    assert shipper.snapshots_served == 1
    assert follower.applied_lsn == 3 and follower.caught_up
    assert database_state(follower.db) == database_state(primary)


def test_a_shipper_that_cannot_vouch_for_its_base_restarts_the_chain(
    tmp_path,
):
    """A journal reattached without the digest its snapshot recorded
    knows nothing of the history below its base.  The one follower is
    resynced from a fresh snapshot, which starts a new digest chain,
    and is then streamed to, not resynced forever."""
    network = Network(Simulator(), default_latency_s=0.002)
    network.add(Station("primary"))
    network.add(Station("f1"))
    primary = build_crash_db("primary", Journal(tmp_path / "primary.wal"))
    for doc_id in range(1, 4):
        _insert(primary, doc_id, "before")
    primary.snapshot(str(tmp_path / "primary.snapshot"))
    _insert(primary, 4, "after")
    primary.journal.close()
    primary.attach_journal(Journal(tmp_path / "primary.wal"))
    assert primary.journal.base_digest is None
    shipper = WalShipper(network, "primary", primary)
    follower = Recoverer(
        network, "f1", "primary", CRASH_SCHEMAS, tmp_path / "f1",
        ddl_fn=crash_ddl,
    )
    follower.start()
    network.quiesce()
    assert shipper.snapshots_served == 1
    assert primary.journal.base_digest == follower.journal.digest
    _insert(primary, 5, "streamed")
    shipper.pump()
    network.quiesce()
    assert shipper.snapshots_served == 1 and follower.caught_up
    assert database_state(follower.db) == database_state(primary)


# ---------------------------------------------------------------------------
# Property: the digest answers exactly what comparing frames answers
# ---------------------------------------------------------------------------
SIDE = st.fixed_dictionaries({
    "fork": st.integers(min_value=0, max_value=3),
    # checkpoint after this many of the side's frames (None: never)
    "checkpoint": st.none() | st.integers(min_value=0, max_value=9),
    "reopen": st.booleans(),
})


def _build(directory, name, titles, side):
    """A journaled engine that commits one frame per title; returns the
    (possibly reopened) engine, each LSN's frame bytes and the digest
    its journal held right after that LSN."""
    db = build_crash_db(name, Journal(directory / f"{name}.wal"))
    frames, digests = {}, {0: 0}
    for lsn, title in enumerate(titles, start=1):
        if side["checkpoint"] == lsn - 1:
            db.snapshot(str(directory / f"{name}.snapshot"))
        _insert(db, lsn, title)
        assert db.journal.last_lsn == lsn
        (frame,) = read_frames(db.journal.path, from_lsn=lsn - 1)
        frames[lsn], digests[lsn] = frame.data, db.journal.digest
    if side["checkpoint"] == len(titles):
        db.snapshot(str(directory / f"{name}.snapshot"))
    if side["reopen"]:
        db = _reopen(db, directory, name)
        assert db.journal.digest == digests[len(titles)]
    return db, frames, digests


@settings(max_examples=60, deadline=None)
@given(
    shared=st.integers(min_value=0, max_value=4),
    rejoined=st.integers(min_value=0, max_value=2),
    master=SIDE,
    follower=SIDE,
)
@example(  # the subscriber at exactly the master's base, across a reopen
    shared=6, rejoined=0,
    master={"fork": 2, "checkpoint": 8, "reopen": True},
    follower={"fork": 2, "checkpoint": None, "reopen": False},
)
@example(  # equal frame at the LSN, different frame below it
    shared=1, rejoined=2,
    master={"fork": 1, "checkpoint": None, "reopen": False},
    follower={"fork": 1, "checkpoint": 0, "reopen": True},
)
def test_history_differs_exactly_when_a_frame_at_or_below_differs(
    shared, rejoined, master, follower
):
    """Two engines share ``shared`` frames, fork for a few frames each
    and then commit ``rejoined`` frames alike again (byte-identical
    only when both forks are the same length); either may checkpoint
    and reopen.  For every LSN the follower's history passes through
    that the master's journal holds, ``_history_differs`` is True
    exactly when some frame at or below that LSN differs.  Snapshots
    and checkpoints fsync into a no-op: what is checked is bytes, and
    unlinking freshly fsynced files dominates the wall time otherwise."""
    directory = Path(tempfile.mkdtemp(prefix="digest-prop-"))
    fsyncs = mock.patch("os.fsync")
    try:
        fsyncs.start()
        built = {}
        for name, side in (("master", master), ("follower", follower)):
            titles = (
                ["shared"] * shared + [name] * side["fork"]
                + ["rejoined"] * rejoined
            )
            built[name] = _build(directory, name, titles, side)
        db, ours, _ = built["master"]
        follower_db, theirs, digests = built["follower"]
        network = Network(Simulator())
        network.add(Station("master"))
        shipper = WalShipper(network, "master", db)
        journal = db.journal
        judged = 0
        for lsn, digest in digests.items():
            if not journal.base_lsn <= lsn <= journal.last_lsn:
                continue
            if lsn == follower_db.journal.last_lsn:
                digest = follower_db.journal.digest  # what it would send
            differs = any(ours[k] != theirs[k] for k in range(1, lsn + 1))
            sub = ReplSubscribe("follower", applied_lsn=lsn, digest=digest)
            assert shipper._history_differs(sub) is differs, lsn
            judged += 1
        assert judged >= 1 or journal.base_lsn > follower_db.journal.last_lsn
    finally:
        fsyncs.stop()
        shutil.rmtree(directory, ignore_errors=True)
