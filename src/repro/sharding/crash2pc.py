"""The 2PC scenario of the crash-matrix kit (E20): kill any node at
any byte, recover, audit.

:mod:`repro.fault.crashsim` proves the committed-prefix guarantee for
one engine and :mod:`repro.replication.chaos` for a WAL-shipped
follower.  This scenario proves **distributed atomicity**: a cluster
of journal-backed shards runs a deterministic mix of single-shard and
cross-shard transactions with a failpoint armed on exactly one node's
journal — the coordinator's or any participant's.  After it fires,
full-cluster recovery (restart every node, redeliver outstanding
decisions, resolve in-doubt transactions by presumed abort) must land
the cluster on an **all-or-nothing** state:

* every acknowledged transaction is durable on *all* of its shards
  (no lost acked write), and
* the in-flight transaction is either applied everywhere or nowhere
  (no split commit),

i.e. the recovered cluster state equals the golden state after the
last acked transaction, or that state plus the whole in-flight
transaction — nothing else — and every shard passes
:func:`~repro.fault.crashsim.verify_database`.

The workload is conflict-free by construction (fresh doc ids come from
per-shard pools probed out of the shard map), so in the golden run
every transaction commits and "state after transaction *k*" is well
defined.  ``crash_refs`` rows are co-located with their parent docs —
sharded by ``doc_id``, not their primary key — so per-shard foreign
keys stay meaningful.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    CrashCase,
    CrashReport,
    CutStream,
    database_state,
    frame_boundaries,
    run_scenario,
    verify_database,
)
from repro.rdb.errors import RdbError
from repro.sharding.cluster import COORD, ShardCluster
from repro.sharding.shardmap import ShardMap, TableSharding
from repro.util.rng import make_rng

__all__ = [
    "build_2pc_workload",
    "run_2pc_golden",
    "run_2pc_crash_matrix",
    "twopc_shard_map",
]

#: cluster state: ``{shard_id: {table: {pk: row}}}``
ClusterState = dict[int, dict[str, dict[tuple, dict[str, Any]]]]


def _open(workdir: Path, shard_map: ShardMap, file_wrappers=None):
    """A journal-backed cluster under ``workdir`` plus its routing tier.
    ``tiers.shards`` is imported lazily: it imports ``repro.sharding``
    itself, so a module-level import here would close a cycle."""
    from repro.tiers.shards import ShardedDatabase

    cluster = ShardCluster(
        workdir, CRASH_SCHEMAS, shard_map.num_shards,
        sync="commit", use_net=False, file_wrappers=file_wrappers,
    )
    return cluster, ShardedDatabase(
        shard_map, cluster.handles, lambda: cluster.coordinator,
        schemas=CRASH_SCHEMAS,
    )


def twopc_shard_map(num_shards: int) -> ShardMap:
    """The matrix's map: both workload tables hash on ``doc_id`` so a
    ref always lands on its parent doc's shard (co-location)."""
    return ShardMap(num_shards, {
        "crash_docs": TableSharding(key=("doc_id",)),
        "crash_refs": TableSharding(key=("doc_id",)),
    })


def _id_pools(
    shard_map: ShardMap, per_shard: int
) -> dict[int, list[int]]:
    """``per_shard`` fresh doc ids per shard, probed out of the map."""
    pools: dict[int, list[int]] = {s: [] for s in shard_map.all_shards()}
    candidate = 1
    while any(len(pool) < per_shard for pool in pools.values()):
        owner = shard_map.shard_for_key("crash_docs", (candidate,))
        if len(pools[owner]) < per_shard:
            pools[owner].append(candidate)
        candidate += 1
    return pools


def build_2pc_workload(
    shard_map: ShardMap, *, txns: int, seed: int = 0
) -> list[list[list[Any]]]:
    """The deterministic transaction list both the golden run and every
    crash run execute, as :meth:`~repro.tiers.shards.ShardedDatabase
    .transact` statement batches.

    A three-beat cycle: a single-shard doc+ref insert, a cross-shard
    double insert, and a cross-shard insert-plus-update of an earlier
    doc.  Conflict-free: ids are fresh and updates only touch docs a
    previous transaction committed, so each transaction's outcome does
    not depend on which later ones survive a crash.
    """
    rng = make_rng(seed, "crash2pc-workload")
    num_shards = shard_map.num_shards
    pools = _id_pools(shard_map, 2 * txns + 4)
    cursor = {s: 0 for s in shard_map.all_shards()}
    landed: dict[int, list[int]] = {s: [] for s in shard_map.all_shards()}

    def fresh(shard: int) -> int:
        doc_id = pools[shard][cursor[shard]]
        cursor[shard] += 1
        landed[shard].append(doc_id)
        return doc_id

    def doc(doc_id: int) -> list[Any]:
        return ["insert", "crash_docs", {
            "doc_id": doc_id,
            "title": f"doc-{doc_id:05d}",
            "version": 1,
            "body": "x" * int(rng.integers(0, 120)),
        }]

    def ref(doc_id: int) -> list[Any]:
        return ["insert", "crash_refs", {
            "ref_id": doc_id, "doc_id": doc_id, "anchor": f"a{doc_id}",
        }]

    workload: list[list[list[Any]]] = []
    for k in range(1, txns + 1):
        first = k % num_shards
        second = (k + 1) % num_shards
        beat = k % 3
        if num_shards == 1 or beat == 1:
            doc_id = fresh(first)
            stmts = [doc(doc_id), ref(doc_id)]
        elif beat == 2:
            one, two = fresh(first), fresh(second)
            stmts = [doc(one), ref(one), doc(two)]
        else:
            stmts = [doc(fresh(first))]
            settled = landed[second][:-1] if second == first \
                else landed[second]
            if settled:
                victim = settled[int(rng.integers(0, len(settled)))]
                stmts.append(["update_pk", "crash_docs", victim, {
                    "version": int(rng.integers(2, 9)),
                }])
            else:
                stmts.append(doc(fresh(second)))
        workload.append(stmts)
    return workload


# ---------------------------------------------------------------------------
# Golden run
# ---------------------------------------------------------------------------
@dataclass
class TwoPCGolden:
    """The crash-free reference run every kill point is judged against."""

    shard_map: ShardMap
    workload: list[list[list[Any]]]
    #: ``states[k]`` is the cluster state after transaction ``k``
    #: (``states[0]`` is the empty initial state)
    states: list[ClusterState]
    #: per journal stream (``"coord"``, ``"shard-N"``): the node key
    #: (:data:`COORD` or shard id) failpoints are armed by
    nodes: dict[str, Any]
    #: per journal stream: golden frame boundaries (the last is its size)
    boundaries: dict[str, list[int]]


def cluster_state(cluster: ShardCluster) -> ClusterState:
    """Deep-enough copy of every shard's table state."""
    return {
        shard_id: database_state(participant.db)
        for shard_id, participant in cluster.participants.items()
    }


def run_2pc_golden(
    workdir: str | Path,
    shard_map: ShardMap,
    *,
    txns: int,
    seed: int = 0,
) -> TwoPCGolden:
    """Run the workload crash-free, capturing per-transaction cluster
    states and every node's journal geometry."""
    cluster, sharded = _open(Path(workdir), shard_map)
    workload = build_2pc_workload(shard_map, txns=txns, seed=seed)
    states: list[ClusterState] = [cluster_state(cluster)]
    for stmts in workload:
        sharded.transact(stmts)
        states.append(cluster_state(cluster))
    cluster.close()

    journals = dict(zip(
        [COORD, *range(shard_map.num_shards)], cluster.journal_paths()
    ))
    return TwoPCGolden(
        shard_map=shard_map, workload=workload, states=states,
        nodes={path.stem: node for node, path in journals.items()},
        boundaries={
            path.stem: frame_boundaries(path) for path in journals.values()
        },
    )


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------
def _twopc_case(
    golden: TwoPCGolden, case: CrashCase, closing: ExitStack
) -> Iterator[str]:
    """Replay the workload with one node armed to die at ``case.offset``,
    then recover the whole cluster and audit atomicity."""
    cluster, sharded = _open(
        case.dir, golden.shard_map,
        {golden.nodes[case.stream]: case.failpoint},
    )
    closing.callback(cluster.close)
    case.facts.update(acked=0, matched="")

    def workload() -> None:
        for stmts in golden.workload:
            sharded.transact(stmts)
            case.facts["acked"] += 1

    # First failure of any kind ends the run: either the armed journal
    # died mid-append, or a transaction was refused/aborted because an
    # earlier crash left its shard dead or blocked.  Either way every
    # transaction before this one was acked.
    case.drive(workload, RdbError)
    acked = case.facts["acked"]

    cluster.recover_all()
    recovered = cluster_state(cluster)
    for shard_id, participant in cluster.participants.items():
        for problem in verify_database(participant.db):
            yield f"shard {shard_id}: {problem}"
        if participant.in_doubt:
            yield (f"shard {shard_id}: still in doubt after recovery: "
                   f"{sorted(participant.in_doubt)}")

    # All-or-nothing: the recovered cluster must equal the golden state
    # after the last acked transaction, or that state plus the whole
    # in-flight transaction.  A split commit matches neither.
    if recovered == golden.states[acked]:
        case.facts["matched"] = "complete" \
            if acked == len(golden.workload) else "last-acked"
    elif acked < len(golden.workload) \
            and recovered == golden.states[acked + 1]:
        case.facts["matched"] = "in-flight"
    else:
        yield (f"recovered state matches neither golden[{acked}] nor "
               f"golden[{acked + 1}] (split or lost write)")
    if not case.crashed and acked != len(golden.workload):
        yield f"run stopped at txn {acked + 1} without a crash"


def run_2pc_crash_matrix(
    workdir: str | Path,
    *,
    num_shards: int = 2,
    txns: int = 12,
    stride: int = 64,
    seed: int = 0,
) -> CrashReport:
    """Sweep every node's journal with kill points and audit each one.

    For each target node — the coordinator and every shard — the sweep
    covers every frame boundary of that node's golden journal plus
    every ``stride``-byte offset, including the end-of-file no-crash
    control point.  Facts per case: ``acked`` (transactions
    acknowledged before the run stopped) and ``matched`` (which golden
    state the recovered cluster equals: ``"last-acked"``,
    ``"in-flight"``, ``"complete"``, or ``""`` on failure).
    """
    workdir = Path(workdir)
    golden = run_2pc_golden(
        workdir / "golden", twopc_shard_map(num_shards), txns=txns,
        seed=seed,
    )
    return run_scenario(
        workdir, "2pc crash matrix",
        [CutStream(stream, bounds[-1], bounds, stride)
         for stream, bounds in golden.boundaries.items()],
        lambda case, closing: _twopc_case(golden, case, closing),
    )
