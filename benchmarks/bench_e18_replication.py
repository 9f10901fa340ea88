"""E18 (extension) — replication: read scaling, replica lag, failover.

The paper runs the class administrator on a single station and scales
reads by throwing more client workstations at it; our reproduction adds
WAL-shipping replication (:mod:`repro.replication`) so the *server*
side scales too.  E18 measures the three promises the subsystem makes:

* **read scaling** — the library-search workload round-robins across
  the N fresh members of the primary's replication star, as
  :class:`~repro.tiers.replicaset.ReplicaSet` routes it, each hosted
  behind its network station
  (:class:`~repro.tiers.remote.RemoteTierServer`); virtual-time
  makespan of a fixed search batch should shrink roughly linearly in N
  because each replica answers over its own link;
* **bounded lag** — under sustained primary writes with periodic pumps
  the follower's record lag stays bounded (it must not grow with the
  length of the run) and collapses to zero once the stream drains;
* **failover loses nothing acked** — crash the primary, promote the
  best follower (:meth:`~repro.distribution.syncdb.MetadataReplicator
  .promote` on the replication tree at m = N-1, a star), and check the
  promoted state against the crashsim committed-prefix ledger: every commit that was shipped
  before the crash survives, bit for bit, constraints and indexes
  intact.  Commits the primary journaled but never shipped are
  *expected* casualties — that is the async-replication contract.

A dense follower crash matrix (the E17 harness pointed at a follower
killed mid-download and mid-replay) rounds it out, and a wall-clock row
checks that a follower catching up from nothing costs time *linear* in
the records it is behind: the shipper hands ``read_frames`` the offset
where its last batch ended, so the n-th batch does not re-read and
re-decode the n-1 before it.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import print_table
from repro.distribution import MAryTree, MetadataReplicator
from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    CrashWorkload,
    apply_workload_txn,
    build_crash_db,
    crash_ddl,
    database_state,
    verify_database,
)
from repro.net.link import DuplexLink
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb.wal import Journal
from repro.replication import (
    Recoverer,
    WalShipper,
    run_follower_crash_matrix,
)
from repro.tiers import ClassAdministrator, ReplicaSet, Request
from repro.tiers.remote import RemoteTierClient, RemoteTierServer
from repro.util.rng import make_rng

LINK_MBPS = 10.0
LATENCY_S = 0.005


# ---------------------------------------------------------------------------
# E18a: read throughput scaling with replica count
# ---------------------------------------------------------------------------
def _measure_read_makespan(
    workdir: Path, replicas: int, docs: int, searches: int
) -> float:
    """Virtual seconds to answer ``searches`` library searches spread
    over ``replicas`` members of the primary's replication star
    (0 = primary answers everything).  The set picks each search's
    station (:meth:`~repro.tiers.replicaset.ReplicaSet.route`); the
    search travels there from that station's own client."""
    sim = Simulator()
    network = Network(sim, default_latency_s=LATENCY_S)
    link = lambda: DuplexLink.symmetric_mbps(LINK_MBPS)  # noqa: E731
    names = ["primary"] + [f"replica-{i + 1}" for i in range(replicas)]
    for name in names:
        network.add(Station(name, link()))

    primary = ClassAdministrator(data_dir=workdir / "primary")
    replicator = MetadataReplicator(
        network, MAryTree(len(names), max(1, replicas), names=names),
        primary.admin_db, workdir,
    )
    rs = ReplicaSet(primary, replicator)
    session = rs.handle(Request(
        op="login", session_id=None,
        params={"user": "shih", "role": "instructor"},
    )).unwrap()["session_id"]
    for k in range(docs):
        rs.handle(Request(
            op="publish_course_document", session_id=session,
            params={"doc_id": f"d{k}", "title": f"Lecture {k}",
                    "course_number": "MM1", "keywords": ["video"]},
        )).unwrap()
    network.quiesce()

    clients = {}
    for i, server_name in enumerate(names[1:] or names):
        admin = primary if replicas == 0 else rs.member(server_name)
        RemoteTierServer(network, server_name, administrator=admin)
        client_name = f"client-{i + 1}"
        network.add(Station(client_name, link()))
        client = RemoteTierClient(network, client_name, server_name)
        client.session_id = session
        clients[server_name] = client

    start = sim.now
    for _ in range(searches):
        server_name, _admin, _degraded = rs.route("search_library")
        clients[server_name].call("search_library", {"keywords": "video"})
    network.quiesce()
    return sim.now - start


def read_scaling_rows(
    replica_counts=(0, 1, 2, 4), docs: int = 12, searches: int = 96
):
    """Makespan / throughput per replica count; returns (rows, tputs)."""
    rows, tputs = [], []
    for n in replica_counts:
        with tempfile.TemporaryDirectory() as workdir:
            makespan = _measure_read_makespan(
                Path(workdir), n, docs, searches
            )
        tput = searches / makespan
        tputs.append(tput)
        rows.append([
            "primary only" if n == 0 else f"{n}",
            f"{makespan:.2f} s",
            f"{tput:,.1f} req/s",
            f"{tput / tputs[0]:.2f}x",
        ])
    return rows, tputs


# ---------------------------------------------------------------------------
# E18b: bounded replica lag under sustained writes
# ---------------------------------------------------------------------------
def lag_rows(
    workdir: Path, rounds: int = 40, writes_per_round: int = 8,
    slice_s: float = 0.05,
):
    """Sustained write rounds; the lag is sampled right after each pump,
    while the round's batch is still in flight — in a healthy stream it
    equals one write burst every round; a stalled stream would grow it
    linearly.  Each round then runs one bounded time slice (not a full
    drain).  Returns (rows, samples, final_lag)."""
    sim = Simulator()
    network = Network(sim, default_latency_s=0.002)
    network.add(Station("primary"))
    network.add(Station("follower"))
    journal = Journal(workdir / "primary.wal", sync="commit")
    db = build_crash_db("primary", journal=journal)
    rng = make_rng(0, "e18-lag-workload")
    shipper = WalShipper(network, "primary", db)
    recoverer = Recoverer(
        network, "follower", "primary", CRASH_SCHEMAS,
        workdir / "follower", sync_policy="commit", ddl_fn=crash_ddl,
    )
    recoverer.start()
    network.quiesce()

    samples = []
    next_txn = 1
    for _ in range(rounds):
        for _ in range(writes_per_round):
            apply_workload_txn(db, next_txn, rng)
            next_txn += 1
        shipper.pump()
        samples.append(journal.last_lsn - recoverer.applied_lsn)
        sim.run(until=sim.now + slice_s)
    network.quiesce()
    final_lag = journal.last_lsn - recoverer.applied_lsn
    half = len(samples) // 2
    rows = [
        ["write rounds x txns/round", f"{rounds} x {writes_per_round}"],
        ["total txns", journal.last_lsn],
        ["max lag (records)", max(samples)],
        ["mean lag, steady half", f"{sum(samples[half:]) / half:.1f}"],
        ["max lag, first half", max(samples[:half])],
        ["max lag, second half", max(samples[half:])],
        ["lag after final drain", final_lag],
    ]
    recoverer.stop()
    journal.close()
    return rows, samples, final_lag


# ---------------------------------------------------------------------------
# E18c: failover loses no acked commit
# ---------------------------------------------------------------------------
def failover_rows(workdir: Path, txns: int = 24, unshipped: int = 3):
    """Crash the primary, promote, audit the survivor state against the
    committed-prefix ledger.  Returns (rows, ok)."""
    network = Network(Simulator(), default_latency_s=0.002)
    names = ["primary", "f1", "f2"]
    for name in names:
        network.add(Station(name))
    # The kit's workload + ack ledger (the same loop the crash matrices
    # judge against), journaling under sync=commit.
    workload = CrashWorkload(workdir / "primary.wal", name="primary")
    journal = workload.journal
    group = MetadataReplicator(
        network, MAryTree(len(names), len(names) - 1, names=names),
        workload.db, workdir, ddl_fn=crash_ddl,
    )

    workload.run(txns)
    group.flush()
    network.quiesce()
    acked_horizon = journal.last_lsn

    # Crash: the primary keeps journaling commits nobody will ever see.
    network.set_down("primary", True)
    workload.run(unshipped)

    report = group.promote()
    lost_acked = acked_horizon - report.promoted_lsn
    # Committed prefix: the promoted state is the ledger's state at the
    # promoted LSN, which must not lie beyond what was ever shipped.
    prefix_ok = (
        report.promoted_lsn <= acked_horizon
        and database_state(group.master)
        == workload.state_at_lsn(report.promoted_lsn)
    )
    integrity = verify_database(group.master)
    ok = prefix_ok and not integrity and lost_acked == 0
    rows = [
        ["txns acked before crash", acked_horizon],
        ["txns journaled but unshipped", unshipped],
        ["promoted follower", report.new_primary],
        ["promoted LSN", report.promoted_lsn],
        ["new epoch", report.epoch],
        ["acked commits lost", lost_acked],
        ["committed-prefix check", "ok" if prefix_ok else "FAIL"],
        ["constraint/index violations", len(integrity)],
    ]
    return rows, ok


# ---------------------------------------------------------------------------
# E18d: follower crash matrix
# ---------------------------------------------------------------------------
def chaos_rows(txns: int, stride: int, snapshot_stride: int):
    with tempfile.TemporaryDirectory() as workdir:
        report = run_follower_crash_matrix(
            workdir, txns=txns, stride=stride,
            snapshot_stride=snapshot_stride, seed=0,
        )
    by_stream = {"replay": 0, "snapshot": 0}
    for case in report.cases:
        by_stream[case.stream] += 1
    rows = [
        ["crash points (replay sweep)", by_stream["replay"]],
        ["crash points (snapshot sweep)", by_stream["snapshot"]],
        ["crashes fired", report.fired],
        ["recovery failures", len(report.failures)],
    ]
    return report, rows


# ---------------------------------------------------------------------------
# E18e: follower catch-up is linear in the records behind (wall clock)
# ---------------------------------------------------------------------------
CATCHUP_SIZES = (2_000, 4_000, 8_000)
#: t(8,000)/t(2,000) above this fails --smoke: 4 is linear, the full
#: re-scan per batch measured 13
CATCHUP_RATIO_LIMIT = 6.0


def _catchup_seconds(records: int) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        network = Network(Simulator(), default_latency_s=0.002)
        network.add(Station("primary"))
        network.add(Station("follower"))
        # Written straight to the journal: the primary's engine is not
        # what this row times (its tables stay empty; nothing resyncs).
        journal = Journal(workdir / "primary.wal", sync="none")
        primary = build_crash_db("primary", journal=journal)
        for txn in range(1, records + 1):
            journal.append(txn, [["insert", "crash_docs", {
                "doc_id": txn, "title": f"doc-{txn:05d}",
                "version": 1, "body": "x" * (txn % 120),
            }]])
        WalShipper(network, "primary", primary)
        recoverer = Recoverer(
            network, "follower", "primary", CRASH_SCHEMAS,
            workdir / "follower", sync_policy="none", ddl_fn=crash_ddl,
        )
        started = time.perf_counter()
        recoverer.start()
        network.quiesce()
        elapsed = time.perf_counter() - started
        assert recoverer.applied_lsn == journal.last_lsn == records
        recoverer.stop()
        journal.close()
    return elapsed


def catchup_rows(sizes=CATCHUP_SIZES, repeats: int = 3):
    """A fresh follower streams a journal of n records in batches of 64;
    wall seconds from subscribe to caught up (best of ``repeats``).
    Journals sync lazily on both sides so the row times reading and
    applying, not fsync.  Returns (rows, seconds per size)."""
    seconds = [
        min(_catchup_seconds(records) for _ in range(repeats))
        for records in sizes
    ]
    rows = [
        [records, f"{elapsed:.2f}", f"{elapsed / records * 1e6:.0f}",
         f"{elapsed / seconds[0]:.1f}"]
        for records, elapsed in zip(sizes, seconds)
    ]
    return rows, seconds


# ---------------------------------------------------------------------------
# pytest checks
# ---------------------------------------------------------------------------
def test_e18_reads_scale_with_replicas():
    _rows, tputs = read_scaling_rows(
        replica_counts=(0, 2), docs=8, searches=48
    )
    assert tputs[1] >= tputs[0] * 1.3


def test_e18_lag_stays_bounded():
    with tempfile.TemporaryDirectory() as workdir:
        _rows, samples, final_lag = lag_rows(Path(workdir), rounds=20)
    half = len(samples) // 2
    # Steady state: the slice is shorter than a full drain, so lag is
    # genuinely nonzero mid-run — but it must not grow with run length
    # (second half bounded by first half plus one write burst) and must
    # collapse once the stream drains.
    assert max(samples) > 0
    assert max(samples[half:]) <= max(samples[:half]) + 8
    assert final_lag == 0


def test_e18_failover_loses_no_acked_commit():
    with tempfile.TemporaryDirectory() as workdir:
        rows, ok = failover_rows(Path(workdir), txns=12, unshipped=2)
    assert ok, rows


# ---------------------------------------------------------------------------
def smoke() -> int:
    """CI guard: scaled-down versions of the first four sections and
    the catch-up row at full size; exit 1 on any lost commit, unbounded
    lag, failed crash recovery, or catch-up time growing faster than
    ``CATCHUP_RATIO_LIMIT`` for 4x the records."""
    ok = True

    _rows, tputs = read_scaling_rows(replica_counts=(0, 2), docs=8,
                                     searches=48)
    scaled = tputs[1] >= tputs[0] * 1.3
    print(f"read scaling (2 replicas vs primary): "
          f"{tputs[1] / tputs[0]:.2f}x -> "
          f"{'ok' if scaled else 'FAIL'}")
    ok &= scaled

    with tempfile.TemporaryDirectory() as workdir:
        _rows, samples, final_lag = lag_rows(Path(workdir), rounds=20)
    half = len(samples) // 2
    bounded = max(samples[half:]) <= max(samples[:half]) + 8
    drained = final_lag == 0
    print(f"replica lag bounded: max {max(samples)} records, "
          f"final {final_lag} -> "
          f"{'ok' if bounded and drained else 'FAIL'}")
    ok &= bounded and drained

    with tempfile.TemporaryDirectory() as workdir:
        rows, fo_ok = failover_rows(Path(workdir), txns=16, unshipped=2)
    lost = dict((r[0], r[1]) for r in rows)["acked commits lost"]
    print(f"failover acked commits lost: {lost} -> "
          f"{'ok' if fo_ok else 'FAIL'}")
    ok &= fo_ok

    report, _rows = chaos_rows(txns=10, stride=512, snapshot_stride=8192)
    print(f"follower crash matrix: {len(report.cases)} points, "
          f"{len(report.failures)} failures -> "
          f"{'ok' if report.ok else 'FAIL'}")
    ok &= report.ok

    _rows, seconds = catchup_rows()
    ratio = seconds[-1] / seconds[0]
    linear = ratio <= CATCHUP_RATIO_LIMIT
    print(f"follower catch-up t({CATCHUP_SIZES[-1]})/t({CATCHUP_SIZES[0]}): "
          f"{ratio:.1f} (limit {CATCHUP_RATIO_LIMIT:.0f}) -> "
          f"{'ok' if linear else 'FAIL'}")
    ok &= linear

    print("E18 smoke:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    if "--smoke" in sys.argv[1:]:
        return smoke()

    rows, _ = read_scaling_rows()
    print_table(
        "E18a: library-search makespan vs replica count "
        "(96 searches, 10 Mb/s links)",
        ["replicas", "makespan", "throughput", "speedup"],
        rows,
    )

    with tempfile.TemporaryDirectory() as workdir:
        rows, _samples, _final = lag_rows(Path(workdir))
    print_table(
        "E18b: replica lag under sustained writes "
        "(pump per round, time-sliced drains)",
        ["measure", "value"],
        rows,
    )

    with tempfile.TemporaryDirectory() as workdir:
        rows, ok = failover_rows(Path(workdir))
    print_table(
        "E18c: failover after primary crash (committed-prefix audit)",
        ["check", "value"],
        rows,
    )
    if not ok:
        print("  E18c FAILED")
        return 1

    report, rows = chaos_rows(txns=18, stride=128, snapshot_stride=2048)
    print_table(
        "E18d: follower crash matrix (killed mid-replay and "
        "mid-snapshot-download)",
        ["check", "value"],
        rows,
    )
    if not report.ok:
        print(report.summary())
        return 1

    rows, _seconds = catchup_rows()
    print_table(
        "E18e: fresh follower catching up in batches of 64 (wall clock)",
        ["records", "seconds", "us_per_record", "vs_first"],
        rows,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
