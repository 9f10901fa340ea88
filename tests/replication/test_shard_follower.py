"""A follower of a *shard's* journal — direct writes interleaved with
two-phase-commit frames.

Regression: the shipper used to drop every non-``txn`` frame, so the
follower read the LSN hole a PREPARE/COMMIT pair leaves as a lost batch
and resubscribed forever.  Now every frame kind is shipped verbatim and
applied through :meth:`Database.apply_frame`, so prepared ops become
visible on the follower at their commit frame — and the follower's
journal is a byte copy of the shard's.
"""

from __future__ import annotations

import pytest

from repro.fault.crashsim import CRASH_SCHEMAS, database_state, verify_database
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.replication import Recoverer, RecoveryStage, WalShipper
from repro.sharding import ShardParticipant, TwoPhaseError
from repro.sharding.crash2pc import twopc_shard_map

from tests.sharding.test_twopc import doc, ids_for

#: a healthy catch-up of four frames takes a handful of events; the
#: livelock burned 2,000 without advancing past LSN 1
EVENT_BUDGET = 200


def drain(network: Network, budget: int = EVENT_BUDGET) -> int:
    """Step the simulator dry; fail instead of spinning past ``budget``."""
    events = 0
    while network.sim.step():
        events += 1
        assert events < budget, f"still busy after {budget} events"
    return events


def follower(network: Network, data_dir) -> Recoverer:
    return Recoverer(
        network, "f1", "shard-0-primary", CRASH_SCHEMAS, data_dir,
        sync_policy="commit",
    )


def test_follower_of_a_shard_journal_catches_up(shard_cluster, tmp_path):
    smap = twopc_shard_map(2)
    cluster = shard_cluster(2, shard_map=smap, use_net=False)
    a, b, c = ids_for(smap, 0, 3)
    (other,) = ids_for(smap, 1, 1)
    cluster.sharded.insert("crash_docs", doc(a)[2])       # direct
    cluster.sharded.transact([doc(b), doc(other)])        # cross-shard 2PC
    cluster.sharded.insert("crash_docs", doc(c)[2])       # direct
    shard = cluster.participants[0]
    assert shard.journal.last_lsn == 4  # txn, prepare, commit, txn

    network = Network(Simulator(), default_latency_s=0.002)
    network.add(Station("shard-0-primary"))
    network.add(Station("f1"))
    WalShipper(network, "shard-0-primary", shard.db)
    recoverer = follower(network, tmp_path / "f1")
    recoverer.start()
    events = drain(network)

    assert events < 20
    assert recoverer.stage is RecoveryStage.CAUGHT_UP
    assert recoverer.resubscribes == 1
    assert recoverer.applied_lsn == 4
    expected = database_state(shard.db)
    assert sorted(expected["crash_docs"]) == [(a,), (b,), (c,)]
    assert database_state(recoverer.db) == expected
    assert recoverer.db.prepared_ops == {}
    assert recoverer.journal_path.read_bytes() == \
        shard.journal.path.read_bytes()

    # A cold restart over the same directory replays the copied journal
    # through the same apply_frame and lands on the same rows.
    recoverer.stop()
    restarted = follower(network, tmp_path / "f1")
    restarted.start()
    drain(network)
    assert restarted.stage is RecoveryStage.CAUGHT_UP
    assert restarted.applied_lsn == 4
    assert database_state(restarted.db) == expected
    restarted.stop()


class LostCommit:
    """A shard handle whose commit never arrives."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def commit(self, gtxn):
        raise RuntimeError("message lost")


@pytest.mark.parametrize("decided", [True, False],
                         ids=["decision journaled", "no decision"])
def test_a_promoted_shard_follower_is_an_in_doubt_participant(
    shard_cluster, tmp_path, decided
):
    """A follower promoted while it holds a PREPARE with no outcome
    becomes a shard that refuses writes until the coordinator settles
    the doubt — commit iff the decision was journaled."""
    smap = twopc_shard_map(2)
    cluster = shard_cluster(2, shard_map=smap, use_net=False)
    (a,), (b,) = ids_for(smap, 0, 1), ids_for(smap, 1, 1)
    shard = cluster.participants[0]
    if decided:
        # Acked: the decision is durable, shard 0 never hears it.
        cluster.coordinator.participants[0] = LostCommit(shard)
        cluster.sharded.transact([doc(a), doc(b)])
    else:
        assert shard.prepare("g-1", [doc(a)])["vote"] is True
    (gtxn,) = shard.in_doubt

    network = Network(Simulator(), default_latency_s=0.002)
    network.add(Station("shard-0-primary"))
    network.add(Station("f1"))
    WalShipper(network, "shard-0-primary", shard.db)
    recoverer = follower(network, tmp_path / "f1")
    recoverer.start()
    drain(network)
    assert recoverer.applied_lsn == shard.journal.last_lsn
    db = recoverer.promote()

    promoted = ShardParticipant(0, db)
    assert list(promoted.in_doubt) == [gtxn]
    assert not db.exists("crash_docs", a)
    with pytest.raises(TwoPhaseError, match="in-doubt"):
        promoted.execute([doc(a)])
    outcome = "commit" if decided else "abort"
    assert promoted.resolve_in_doubt(cluster.coordinator.resolve) == \
        {gtxn: outcome}
    assert promoted.in_doubt == {}
    assert db.exists("crash_docs", a) is decided
    assert verify_database(db) == []
    promoted.close()
