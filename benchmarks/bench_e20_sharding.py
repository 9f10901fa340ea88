"""E20 (extension) — horizontal sharding: pruned reads + 2PC writes.

The corpus is hash-partitioned on ``author`` across N simulated shards
behind :class:`~repro.tiers.shards.ShardedDatabase`.  Three questions:

* **partition pruning** — a shard-key-equality scan (one author's
  documents, a non-PK predicate, so every candidate row is actually
  scanned) touches ``rows/N`` rows on one shard instead of all rows on
  one node.  Throughput should scale with the shard count; the smoke
  floor is a deliberately generous >=1.6x at 4 shards vs 1.
* **2PC write cost** — a cross-shard transaction pays two forced
  journal syncs per participant (prepare + commit) plus the
  coordinator's decision record, vs one direct commit for a
  single-shard write.  The table reports both rates and the ratio —
  the price of distributed atomicity, the reason routing keeps
  single-shard statements off the 2PC path.
* **crash safety** — a coarse pass of the 2PC crash matrix
  (:mod:`repro.sharding.crash2pc`): truncate each node's journal at
  swept byte offsets, recover, and require every acked transaction to
  be all-or-nothing everywhere.  ``--smoke`` fails (exit 1) if any
  kill point splits, if pruning scaling falls under its floor, or if
  scatter-gather disagrees with a single-node baseline on the same
  rows.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import print_table
from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.sharding.cluster import ShardCluster
from repro.sharding.crash2pc import run_2pc_crash_matrix
from repro.sharding.shardmap import ShardMap, TableSharding
from repro.tiers.shards import ShardedDatabase

T = ColumnType

REPEATS = 5
SHARD_COUNTS = (1, 2, 4)
AUTHORS = 32  # distinct shard-key values; queries probe one each

DOCS = Schema(
    name="docs",
    columns=(
        Column("doc_id", T.INT, nullable=False),
        Column("author", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False),
        Column("size_kb", T.INT, nullable=False),
    ),
    primary_key=("doc_id",),
)


def corpus(rows: int) -> list[dict]:
    return [
        {
            "doc_id": i,
            "author": f"a{i % AUTHORS}",
            "version": i % 7,
            "size_kb": (i * 13) % 2000,
        }
        for i in range(rows)
    ]


def build_cluster(
    workdir: Path, num_shards: int, rows: list[dict]
) -> tuple[ShardCluster, ShardedDatabase]:
    """N in-process shards, docs hash-partitioned on author."""
    shard_map = ShardMap(num_shards, {
        "docs": TableSharding(key=("author",)),
    })
    cluster = ShardCluster(
        workdir / f"shards-{num_shards}", (DOCS,), num_shards,
        sync="commit", use_net=False,
    )
    sharded = ShardedDatabase(
        shard_map, cluster.handles, lambda: cluster.coordinator,
        schemas=(DOCS,),
    )
    sharded.insert_many("docs", rows)
    return cluster, sharded


def _qps_once(fn, iters: int) -> float:
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    elapsed = time.perf_counter() - start
    return iters / elapsed if elapsed else float("inf")


def _best(fn, iters: int) -> float:
    return max(_qps_once(fn, iters) for _ in range(REPEATS))


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------
def measure_pruning(
    workdir: Path, rows: int, iters: int
) -> dict[int, float]:
    """{num_shards: pruned-scan q/s} — one author's large documents.

    ``author == aK`` pins one shard; ``size_kb`` keeps the predicate
    off every index so the owning shard scans its full fragment.
    Shard counts are measured interleaved per repeat (the E19
    pattern), so machine drift lands on every configuration instead
    of biasing whichever one ran last.
    """
    data = corpus(rows)
    clusters = {}
    queries = {}
    for num_shards in SHARD_COUNTS:
        cluster, sharded = build_cluster(workdir, num_shards, data)
        clusters[num_shards] = cluster
        probe = [0]

        def query(sharded=sharded, probe=probe) -> None:
            author = f"a{probe[0] % AUTHORS}"
            probe[0] += 1
            sharded.select(
                "docs",
                (col("author") == author) & (col("size_kb") > 1000),
            )

        queries[num_shards] = query
    best = {n: 0.0 for n in SHARD_COUNTS}
    try:
        for _ in range(REPEATS):
            for num_shards in SHARD_COUNTS:
                best[num_shards] = max(
                    best[num_shards],
                    _qps_once(queries[num_shards], iters),
                )
    finally:
        for cluster in clusters.values():
            cluster.close()
    return best


def measure_write_paths(
    workdir: Path, txns: int
) -> tuple[float, float]:
    """(direct single-shard txn/s, cross-shard 2PC txn/s), 4 shards."""
    cluster, sharded = build_cluster(workdir / "writes", 4, [])
    smap = sharded.shard_map
    # Two authors on distinct shards → a guaranteed cross-shard pair.
    by_shard: dict[int, str] = {}
    for k in range(64):
        author = f"w{k}"
        by_shard.setdefault(
            smap.shard_for_row("docs", {"author": author}), author
        )
        if len(by_shard) >= 2:
            break
    (a1, a2) = list(by_shard.values())[:2]
    seq = [1_000_000]

    def doc(author: str) -> dict:
        seq[0] += 1
        return {"doc_id": seq[0], "author": author, "version": 1,
                "size_kb": 10}

    start = time.perf_counter()
    for _ in range(txns):
        sharded.transact([["insert", "docs", doc(a1)]])
    direct = txns / (time.perf_counter() - start)

    start = time.perf_counter()
    for _ in range(txns):
        sharded.transact([
            ["insert", "docs", doc(a1)],
            ["insert", "docs", doc(a2)],
        ])
    twopc = txns / (time.perf_counter() - start)
    cluster.close()
    return direct, twopc


def differential_check(workdir: Path, rows: int) -> list[str]:
    """Scatter-gather vs one Database on identical rows.  Returns
    mismatch descriptions (empty = agree)."""
    data = corpus(rows)
    baseline = Database("baseline")
    baseline.create_table(DOCS)
    baseline.insert_many("docs", data)

    queries = [
        ("pruned scan", lambda db: db.select(
            "docs", (col("author") == "a3") & (col("size_kb") > 500),
            order_by="doc_id",
        )),
        ("top-k", lambda db: db.select(
            "docs", order_by=("size_kb", "doc_id"), descending=True,
            limit=25,
        )),
        ("grouped agg", lambda db: db.aggregate(
            "docs",
            {"n": ("count", None), "mean": ("avg", "size_kb")},
            None, ("version",),
        )),
    ]
    problems = []
    for num_shards in SHARD_COUNTS:
        cluster, sharded = build_cluster(workdir / "diff", num_shards, data)
        for label, run in queries:
            if run(sharded) != run(baseline):
                problems.append(f"{label} diverges at {num_shards} shards")
        cluster.close()
    return problems


# ---------------------------------------------------------------------------
# pytest checks (generous bounds: CI machines are shared and noisy)
# ---------------------------------------------------------------------------
def test_e20_differential_agrees(tmp_path):
    assert differential_check(tmp_path, 2_000) == []


def test_e20_coarse_crash_matrix_holds(tmp_path):
    report = run_2pc_crash_matrix(
        tmp_path, num_shards=2, txns=6, stride=512
    )
    assert report.ok, report.summary()


def test_e20_pruned_scan_scales(tmp_path):
    qps = measure_pruning(tmp_path, 6_000, 15)
    assert qps[4] >= 1.2 * qps[1]  # full run shows ~Nx; CI floor


def test_e20_bench_pruned_scan(benchmark, tmp_path):
    cluster, sharded = build_cluster(tmp_path, 4, corpus(4_000))
    try:
        benchmark(lambda: sharded.select(
            "docs", (col("author") == "a5") & (col("size_kb") > 1000)
        ))
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
def smoke() -> int:
    """CI perf + safety guard at small scale."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="e20-") as tmp:
        workdir = Path(tmp)
        qps = measure_pruning(workdir, 8_000, 50)
        ratio = qps[4] / qps[1]
        print(
            f"pruned scan: {qps[1]:,.0f} q/s at 1 shard, "
            f"{qps[4]:,.0f} q/s at 4 shards ({ratio:.1f}x, floor 1.6x)"
        )
        if ratio < 1.6:
            failures.append(
                f"4-shard pruned-scan throughput is only {ratio:.2f}x "
                f"the 1-shard rate (floor 1.6x)"
            )
        direct, twopc = measure_write_paths(workdir, 150)
        print(f"writes: direct {direct:,.0f} txn/s, "
              f"cross-shard 2PC {twopc:,.0f} txn/s "
              f"({direct / twopc:.1f}x cost)")
        problems = differential_check(workdir, 4_000)
        for problem in problems:
            failures.append(f"differential: {problem}")
        print("differential vs single node:",
              "FAIL" if problems else "ok (3 shapes x 3 shard counts)")
        report = run_2pc_crash_matrix(
            workdir / "crash", num_shards=2, txns=8, stride=256
        )
        print(report.summary())
        if not report.ok:
            failures.append(
                f"2PC crash matrix: {len(report.failures)} kill points "
                f"violated all-or-nothing"
            )
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    print("sharding guard:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    if "--smoke" in sys.argv[1:]:
        return smoke()
    rows, iters = 24_000, 25
    with tempfile.TemporaryDirectory(prefix="e20-") as tmp:
        workdir = Path(tmp)
        qps = measure_pruning(workdir, rows, iters)
        print_table(
            f"E20: partition-pruned scan throughput "
            f"({rows:,} documents hashed on author over N shards; "
            f"best of {REPEATS})",
            ["shards", "rows/shard", "pruned q/s", "speedup"],
            [
                [n, rows // n, f"{qps[n]:,.0f}",
                 f"{qps[n] / qps[1]:.1f}x"]
                for n in SHARD_COUNTS
            ],
        )
        direct, twopc = measure_write_paths(workdir, 400)
        print_table(
            "E20: write-path cost on 4 shards "
            "(journaled, sync-on-commit)",
            ["path", "txn/s", "relative"],
            [
                ["single-shard direct", f"{direct:,.0f}", "1.0x"],
                ["cross-shard 2PC", f"{twopc:,.0f}",
                 f"{twopc / direct:.2f}x"],
            ],
        )
        report = run_2pc_crash_matrix(
            workdir / "crash", num_shards=2, txns=10, stride=96
        )
        print_table(
            "E20: 2PC crash matrix (journal truncation sweep, "
            "coordinator + both shards)",
            ["quantity", "value"],
            [
                ["kill points", len(report.cases)],
                ["failpoints fired", report.fired],
                ["all-or-nothing violations", len(report.failures)],
            ],
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
