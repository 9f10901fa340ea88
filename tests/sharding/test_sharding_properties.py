"""Property: cross-shard transactions are atomic under any crash order.

Hypothesis drives arbitrary interleavings of single-shard writes,
cross-shard writes, node crash-restarts, armed failpoints (a node dies
mid-append at some *future* byte), and full-cluster recoveries.  The
invariant, checked at every recovery point and at the end:

* every **acked** transaction's rows are present on all of its shards
  (no lost acked write);
* every transaction that failed with a *crash* is all-or-nothing —
  its rows are either on every one of its shards or on none
  (no split commit);
* every transaction that was cleanly *refused* (vote-no, blocked or
  in-doubt shard) left no rows anywhere;
* every shard passes the full constraint/index audit and holds no
  unresolved doubt.

A second property drives the write router itself: streams of
transactions over all seven statement forms, shard-key changes
included, on 2-4 shards.  A shard-key change is refused with nothing
written; after every statement list each row sits on the shard its
shard key routes to, and a keyed read finds it.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    FailpointFile,
    SimulatedCrashError,
    verify_database,
)
from repro.rdb import Column, ColumnType, Schema
from repro.rdb.errors import RdbError
from repro.rdb.predicate import col
from repro.sharding import TwoPhaseError
from repro.sharding.cluster import COORD, ShardCluster
from repro.sharding.crash2pc import twopc_shard_map
from repro.sharding.shardmap import ShardMap, TableSharding
from repro.tiers.shards import ShardedDatabase

NUM_SHARDS = 2

#: write patterns: which shards one transaction touches
PATTERNS = [(0,), (1,), (0, 1), (1, 0)]

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("write"),
                  st.integers(0, len(PATTERNS) - 1)),
        st.tuples(st.just("arm"), st.integers(0, NUM_SHARDS),
                  st.integers(1, 200)),
        st.tuples(st.just("restart"), st.integers(0, NUM_SHARDS)),
        st.tuples(st.just("recover")),
    ),
    min_size=1, max_size=14,
)


def node_key(index):
    return COORD if index == NUM_SHARDS else index


@settings(max_examples=25, deadline=None)
@given(actions=ACTIONS)
def test_cross_shard_atomicity_under_arbitrary_crashes(actions):
    workdir = Path(tempfile.mkdtemp(prefix="shard-prop-"))
    try:
        shard_map = twopc_shard_map(NUM_SHARDS)
        cluster = ShardCluster(
            workdir, CRASH_SCHEMAS, NUM_SHARDS,
            sync="commit", use_net=False,
        )
        sharded = ShardedDatabase(
            shard_map, cluster.handles, lambda: cluster.coordinator,
            schemas=CRASH_SCHEMAS,
        )

        # Fresh per-shard doc ids, probed out of the hash map.
        pools = {s: [] for s in range(NUM_SHARDS)}
        candidate = 1
        while any(len(p) < 40 for p in pools.values()):
            owner = shard_map.shard_for_key("crash_docs", (candidate,))
            if len(pools[owner]) < 40:
                pools[owner].append(candidate)
            candidate += 1
        cursors = {s: 0 for s in range(NUM_SHARDS)}

        def fresh(shard):
            doc_id = pools[shard][cursors[shard]]
            cursors[shard] += 1
            return doc_id

        acked = []      # groups of doc ids that must survive
        uncertain = []  # crash-interrupted groups: all-or-nothing
        rejected = set()  # refused writes: must never appear

        def attempt(shards):
            ids = [fresh(s) for s in shards]
            stmts = [
                ["insert", "crash_docs", {
                    "doc_id": i, "title": f"doc-{i:05d}",
                    "version": 1, "body": "",
                }]
                for i in ids
            ]
            stmts.append(["insert", "crash_refs", {
                "ref_id": ids[0], "doc_id": ids[0], "anchor": "p",
            }])
            try:
                sharded.transact(stmts)
            except SimulatedCrashError:
                uncertain.append(set(ids))
            except TwoPhaseError:
                # Cleanly refused before any decision: vote-no,
                # blocked or in-doubt shard.  Nothing may land.
                rejected.update(ids)
            except RdbError:
                # A crashed-but-unrestarted node refusing work (e.g.
                # its engine transaction was left open mid-prepare).
                # No decision was journaled, but a live shard may hold
                # a durable prepare — all-or-nothing must still hold.
                uncertain.append(set(ids))
            else:
                acked.append(set(ids))

        def check_after_recovery():
            actual = set()
            for participant in cluster.participants.values():
                assert verify_database(participant.db) == []
                assert participant.in_doubt == {}
                actual.update(
                    row["doc_id"]
                    for row in participant.db.select("crash_docs")
                )
            for group in acked:
                assert group <= actual, \
                    f"lost acked write: {group - actual}"
            for group in list(uncertain):
                landed = group & actual
                assert landed in (set(), group), \
                    f"split commit: {landed} of {group}"
                uncertain.remove(group)
                if landed:
                    acked.append(group)
                else:
                    rejected.update(group)
            assert not (rejected & actual), \
                f"refused write appeared: {rejected & actual}"

        for action in actions:
            if action[0] == "write":
                attempt(PATTERNS[action[1]])
            elif action[0] == "arm":
                _, index, delta = action
                node = node_key(index)
                path = cluster.coord_journal_path() if node == COORD \
                    else cluster.shard_journal_path(node)
                size = path.stat().st_size if path.exists() else 0
                at = size + delta

                def wrapper(fh, at=at):
                    return FailpointFile(fh, at)

                try:
                    if node == COORD:
                        cluster.restart_coordinator(wrapper)
                    else:
                        cluster.restart_shard(node, wrapper)
                except SimulatedCrashError:
                    pass  # died during its own restart bookkeeping
            elif action[0] == "restart":
                node = node_key(action[1])
                try:
                    if node == COORD:
                        cluster.restart_coordinator()
                    else:
                        cluster.restart_shard(node)
                except SimulatedCrashError:
                    pass
            else:  # recover
                cluster.recover_all()
                check_after_recovery()

        cluster.recover_all()
        check_after_recovery()
        cluster.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Rows stay where they route
# ----------------------------------------------------------------------
T = ColumnType

#: ``p`` shards on its primary key, ``t`` on ``grp`` (pk ``id``); a
#: ``t`` row's ``grp`` is ``id % 3`` whenever it is written whole, so
#: one ``id`` never routes to two shards.
ROUTER_SCHEMAS = (
    Schema(
        name="p",
        columns=(Column("id", T.INT, nullable=False), Column("val", T.INT)),
        primary_key=("id",),
    ),
    Schema(
        name="t",
        columns=(
            Column("id", T.INT, nullable=False),
            Column("grp", T.INT, nullable=False),
            Column("val", T.INT),
        ),
        primary_key=("id",),
    ),
)
SHARD_KEY = {"p": "id", "t": "grp"}

IDS = st.integers(0, 9)
VALS = st.integers(0, 3)


def router_row(table, pk, val):
    row = {"id": pk, "val": val}
    if table == "t":
        row["grp"] = pk % 3
    return row


@st.composite
def router_statement(draw):
    table = draw(st.sampled_from(sorted(SHARD_KEY)))
    op = draw(st.sampled_from((
        "insert", "upsert", "insert_many", "update", "delete",
        "update_pk", "delete_pk",
    )))
    if op in ("insert", "upsert"):
        return [op, table, router_row(table, draw(IDS), draw(VALS))]
    if op == "insert_many":
        pks = draw(st.lists(IDS, max_size=3, unique=True))
        return [op, table, [router_row(table, pk, draw(VALS)) for pk in pks]]
    if op == "delete_pk":
        return [op, table, draw(IDS)]
    columns = draw(st.lists(
        st.sampled_from(("val", SHARD_KEY[table])),
        min_size=1, max_size=2, unique=True,
    ))
    changes = {column: draw(IDS) for column in columns}
    if op == "update_pk":
        return [op, table, draw(IDS), changes]
    where = draw(st.one_of(
        st.none(),
        IDS.map(lambda pk: col("id") == pk),
        VALS.map(lambda val: col("val") == val),
        IDS.map(lambda grp: col(SHARD_KEY[table]) == grp),
    ))
    if op == "delete":
        return [op, table, where]
    return [op, table, changes, where]


def changes_shard_key(stmts):
    return any(
        SHARD_KEY[stmt[1]] in stmt[2 if stmt[0] == "update" else 3]
        for stmt in stmts if stmt[0] in ("update", "update_pk")
    )


@settings(max_examples=40, deadline=None)
@given(
    num_shards=st.integers(2, 4),
    stream=st.lists(
        st.lists(router_statement(), min_size=1, max_size=3),
        min_size=1, max_size=8,
    ),
)
def test_rows_stay_on_the_shard_their_key_routes_to(num_shards, stream):
    workdir = Path(tempfile.mkdtemp(prefix="shard-router-"))
    try:
        shard_map = ShardMap(num_shards, {
            table: TableSharding(key=(key,))
            for table, key in SHARD_KEY.items()
        })
        cluster = ShardCluster(
            workdir, ROUTER_SCHEMAS, num_shards, sync="none", use_net=False,
        )
        sharded = ShardedDatabase(
            shard_map, cluster.handles, lambda: cluster.coordinator,
            schemas=ROUTER_SCHEMAS,
        )

        def placement():
            return {
                (shard, table): participant.db.select(
                    table, order_by="id"
                )
                for shard, participant in cluster.participants.items()
                for table in SHARD_KEY
            }

        for stmts in stream:
            before = placement()
            if changes_shard_key(stmts):
                with pytest.raises(ValueError, match="shard key"):
                    sharded.transact(stmts)
                assert placement() == before
            else:
                try:
                    sharded.transact(stmts)
                except (RdbError, TwoPhaseError):
                    assert placement() == before
            for (shard, table), rows in placement().items():
                for row in rows:
                    assert shard_map.shard_for_row(table, row) == shard
                    assert sharded.get(table, row["id"]) == row
        cluster.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
