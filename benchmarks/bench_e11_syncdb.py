"""E11 — metadata replication latency and convergence.

Paper claim (§4): "From different perspectives, all database users look
at the same database, which is stored across many networked stations."
The document layer's small rows replicate everywhere (BLOBs move only
through pre-broadcast/watermark), so the question is how quickly a
course edit at the instructor's master becomes visible fleet-wide.

The table replays a burst of course-authoring activity (generated
courses inserted at the master), ships the master's journal frames down
trees of varying arity and membership size, and reports convergence
time and the bytes the network carried (frames, subscriptions and
status acks alike).
Expected shape: convergence time grows ~log_m N like any tree fan-out;
batching amortizes per-message latency.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.common import build_network, names, print_table
from repro.distribution import MAryTree, MetadataReplicator
from repro.core import WebDocumentDatabase
from repro.fault.crashsim import database_state
from repro.rdb.wal import Journal
from repro.workloads import CourseGenerator

N_COURSES = 25


def run_sync(n_stations: int, m: int, *, flush_every: int = 1) -> dict:
    """Author N_COURSES at the master, ship, measure convergence."""
    with tempfile.TemporaryDirectory(prefix="e11-") as workdir:
        return _run_sync(Path(workdir), n_stations, m, flush_every)


def _run_sync(workdir: Path, n_stations: int, m: int, flush_every: int) -> dict:
    net = build_network(n_stations)
    tree = MAryTree(n_stations, m, names=names(n_stations))
    master_wddb = WebDocumentDatabase("master", with_integrity=False)
    master = master_wddb.engine
    master.attach_journal(Journal(workdir / "master.wal"))
    replicator = MetadataReplicator(net, tree, master, workdir)
    net.quiesce()  # every member subscribed before authoring begins
    master_wddb.create_document_database("mmu", author="shih")
    generator = CourseGenerator(seed=42, pages_per_course=4,
                                media_per_course=2)
    flushes = 0
    for index in range(N_COURSES):
        generator.generate_course(master_wddb, "mmu")
        if (index + 1) % flush_every == 0:
            flushes += replicator.flush() > 0
    flushes += replicator.flush() > 0
    start = net.sim.now
    net.quiesce()
    convergence = (
        max(replicator.last_applied_at.values()) - start
        if replicator.last_applied_at
        else 0.0
    )
    # The replicator's own check compares LSNs; the bench also holds it
    # to the row-by-row oracle.
    wanted = database_state(master)
    return {
        "converged": replicator.converged() and all(
            database_state(member.db) == wanted
            for member in replicator.members.values()
        ),
        "convergence_s": convergence,
        "flushes": flushes,
        "frames": master.journal.last_lsn,
        "bytes": net.total_bytes,
    }


def experiment_rows() -> list[list]:
    rows = []
    for n in (4, 16, 64):
        for m in (2, 3, 8):
            outcome = run_sync(n, m, flush_every=5)
            rows.append([
                n, m,
                "yes" if outcome["converged"] else "NO",
                f"{outcome['convergence_s']:.2f}",
                outcome["flushes"],
                outcome["frames"],
                outcome["bytes"] // 1024,
            ])
    return rows


def batching_rows() -> list[list]:
    rows = []
    for flush_every in (1, 5, 25):
        outcome = run_sync(16, 3, flush_every=flush_every)
        rows.append([
            flush_every,
            "yes" if outcome["converged"] else "NO",
            f"{outcome['convergence_s']:.2f}",
            outcome["flushes"],
            outcome["bytes"] // 1024,
        ])
    return rows


def test_e11_replicas_converge():
    assert run_sync(16, 3)["converged"]


def test_e11_convergence_grows_with_depth():
    shallow = run_sync(64, 8)["convergence_s"]
    deep = run_sync(64, 2)["convergence_s"]
    # deeper trees pay more forwarding hops for the trailing batch
    assert deep >= shallow * 0.5  # same order; exact ordering depends on batching


def test_e11_every_op_reaches_every_station():
    outcome = run_sync(8, 2, flush_every=3)
    assert outcome["converged"]
    assert outcome["frames"] > N_COURSES  # several rows per course


def test_e11_bench_sync_round(benchmark):
    benchmark(run_sync, 16, 3)


def main() -> int:
    rows = experiment_rows()
    print_table(
        f"E11a: replicating {N_COURSES} authored courses fleet-wide",
        ["N", "m", "converged", "convergence_s", "flushes", "frames",
         "wire_KiB"],
        rows,
    )
    batching = batching_rows()
    print_table(
        "E11b: batching sweep (N=16, m=3)",
        ["flush_every", "converged", "convergence_s", "flushes",
         "wire_KiB"],
        batching,
    )
    return int(any("NO" in row for row in rows + batching))


if __name__ == "__main__":
    sys.exit(main())
