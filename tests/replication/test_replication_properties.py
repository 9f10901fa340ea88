"""Property: a follower is always a committed prefix of the primary.

Hypothesis drives arbitrary interleavings of primary writes,
checkpoints, follower disconnects/reconnects, and pump/drain cycles.
After every step the invariant holds: the follower's table state equals
the primary's state *as of the follower's applied LSN* — never a torn
or reordered intermediate.  After a final reconcile the follower
converges to the primary exactly.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    apply_workload_txn,
    build_crash_db,
    crash_ddl,
    database_state,
    verify_database,
)
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb.wal import Journal
from repro.replication import Recoverer, WalShipper
from repro.util.rng import make_rng


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("disconnect")),
        st.tuples(st.just("reconnect")),
        st.tuples(st.just("pump")),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=35, deadline=None)
@given(actions=ACTIONS, seed=st.integers(min_value=0, max_value=2**16))
def test_follower_state_is_always_an_acked_prefix(actions, seed):
    workdir = Path(tempfile.mkdtemp(prefix="repl-prop-"))
    try:
        network = Network(Simulator(), default_latency_s=0.002)
        network.add(Station("primary"))
        network.add(Station("follower"))
        journal = Journal(workdir / "primary.wal", sync="commit")
        db = build_crash_db("primary", journal=journal)
        rng = make_rng(seed, "repl-prop-workload")
        shipper = WalShipper(network, "primary", db)
        rec = Recoverer(
            network, "follower", "primary", CRASH_SCHEMAS,
            workdir / "follower", sync_policy="commit", ddl_fn=crash_ddl,
        )
        rec.start()
        network.quiesce()

        acked = {0: database_state(db)}
        next_txn = 1
        connected = True

        def check_prefix():
            lsn = rec.applied_lsn
            assert lsn in acked, (
                f"follower applied LSN {lsn} was never a committed "
                f"primary state (known: {sorted(acked)})"
            )
            assert database_state(rec.db) == acked[lsn], (
                f"follower state at LSN {lsn} diverges from the "
                "primary's state at that LSN"
            )

        for action in actions:
            kind = action[0]
            if kind == "write":
                for _ in range(action[1]):
                    apply_workload_txn(db, next_txn, rng)
                    next_txn += 1
                    acked[journal.last_lsn] = database_state(db)
            elif kind == "checkpoint":
                db.snapshot(str(workdir / "primary.snapshot"))
            elif kind == "disconnect":
                if connected:
                    network.set_down("follower", True)
                    network.quiesce()  # in-flight batches are dropped
                    connected = False
            elif kind == "reconnect":
                if not connected:
                    network.set_down("follower", False)
                    connected = True
                    # The stream contract: a reconnecting follower must
                    # resubscribe; the primary does not track liveness.
                    rec.retarget("primary")
            elif kind == "pump":
                shipper.pump()
            network.quiesce()
            check_prefix()

        # Final reconcile: reconnect, resubscribe, drain — exact match.
        if not connected:
            network.set_down("follower", False)
            rec.retarget("primary")
        shipper.pump()
        network.quiesce()
        assert rec.applied_lsn == journal.last_lsn
        assert database_state(rec.db) == database_state(db)
        assert verify_database(rec.db) == []
        rec.stop()
        journal.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
