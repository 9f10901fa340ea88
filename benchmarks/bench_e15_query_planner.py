"""E15 (extension) — cost-based planning and the versioned result cache.

Paper claims spanned: the three-tier architecture funnels every browser
action through the class administrator into the relational store, and
the ROADMAP's north star is serving heavy read traffic "as fast as the
hardware allows".  E15 measures the two layers this PR adds to that hot
read path:

* in :mod:`repro.rdb` — the cost-based planner: selectivity-chosen hash
  probes for point queries, sorted-index range pushdown, and streaming
  top-k for ORDER BY + LIMIT, each against the seed's full-scan path —
  and the ordered walk that stops at the k-th key when the ORDER BY
  column is the one the range was pushed down on;
* in :mod:`repro.tiers` — the versioned LRU result cache: repeated
  reads served from memory, with every write an implicit invalidation
  (version-keyed entries make stale reads impossible).

Run ``--smoke`` for the CI plan-regression guard: it fails (exit 1) if
a selective predicate — the indexed point query, a narrow range, an
IN-list over a hashed column — ever plans as ``scan``, if a range
covering more than half the table is pushed through the sorted index
(an index row costs about four heap rows; DESIGN §6), or if a top-10
ordered by the pushed-down column examines every row of its range.
"""

from __future__ import annotations

import heapq
import sys
import time
from operator import itemgetter
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.common import print_table
from repro.obs import MetricsRegistry, enabled
from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.tiers import QueryCache, TableVersions

T = ColumnType

DEPTS = ("cs", "ee", "me", "ed", "mm")


def build_catalog(rows: int, *, indexed: bool = True) -> Database:
    """A course-catalog database: ``rows`` courses + an enrollment table."""
    db = Database("catalog")
    db.create_table(Schema(
        name="courses",
        columns=(
            Column("course_number", T.TEXT, nullable=False),
            Column("title", T.TEXT, nullable=False),
            Column("dept", T.TEXT, nullable=False),
            Column("instructor", T.TEXT, nullable=False),
            Column("enrolled", T.INT, nullable=False),
        ),
        primary_key=("course_number",),
    ))
    db.create_table(Schema(
        name="sections",
        columns=(
            Column("section_id", T.INT, nullable=False),
            Column("course_number", T.TEXT, nullable=False),
            Column("room", T.TEXT, nullable=False),
        ),
        primary_key=("section_id",),
    ))
    if indexed:
        db.create_hash_index("courses", "by_instructor", ["instructor"])
        db.create_sorted_index("courses", "by_enrolled", "enrolled")
    for i in range(rows):
        db.insert("courses", {
            "course_number": f"c{i:06d}",
            "title": f"course {i:06d}",
            "dept": DEPTS[i % len(DEPTS)],
            "instructor": f"prof{i % (rows // 10 or 1):04d}",
            "enrolled": (i * 37) % 500,
        })
    for i in range(rows // 4):
        db.insert("sections", {
            "section_id": i,
            "course_number": f"c{(i * 3) % rows:06d}",
            "room": f"r{i % 40}",
        })
    return db


def _qps(fn, iters: int) -> float:
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    elapsed = time.perf_counter() - start
    return iters / elapsed if elapsed else float("inf")


def rows_examined(db: Database, **select) -> int:
    """``rdb.rows_scanned`` for one select over ``courses``."""
    with enabled(registry=MetricsRegistry()) as (registry, _):
        db.select("courses", **select)
    return registry.snapshot().counter_total("rdb.rows_scanned")


def planner_rows(rows: int, iters: int) -> list[list]:
    """Point / range / top-k / join throughput, indexed vs scan path."""
    db = build_catalog(rows)
    out: list[list] = []

    # point query: pk hash probe vs the seed full-scan path (equality on
    # the unindexed title column selects the same single row).
    probe = _qps(lambda: db.select(
        "courses", where=col("course_number") == "c000042"), iters)
    scan = _qps(lambda: db.select(
        "courses", where=col("title") == "course 000042"),
        max(1, iters // 20))
    plan = db.explain_plan("courses", col("course_number") == "c000042")
    out.append(["point", plan.access_path, f"{probe:,.0f}",
                f"{scan:,.0f}", f"{probe / scan:.1f}x"])

    # range query: sorted-index pushdown vs heap scan.
    where = (col("enrolled") >= 480) & (col("enrolled") < 495)
    no_index = build_catalog(0, indexed=False)  # same schema, plan only
    ranged = _qps(lambda: db.select("courses", where=where),
                  max(1, iters // 5))
    scan_range = _qps(
        lambda: [r for r in db.table("courses").rows() if where.eval(r)],
        max(1, iters // 20))
    plan = db.explain_plan("courses", where)
    out.append(["range", plan.access_path, f"{ranged:,.0f}",
                f"{scan_range:,.0f}", f"{ranged / scan_range:.1f}x"])

    # top-k: ORDER BY + LIMIT streams a bounded heap vs a full sort.
    topk = _qps(lambda: db.select("courses", order_by="enrolled", limit=10),
                max(1, iters // 20))
    full = _qps(lambda: db.select("courses", order_by="enrolled"),
                max(1, iters // 100))
    out.append(["top-k", "heap(k=10)", f"{topk:,.0f}",
                f"{full:,.0f}", f"{topk / full:.1f}x"])

    # ordered top-k: ORDER BY the pushed-down column + LIMIT walks the
    # index in key order and stops at the k-th key, against fetching the
    # whole range (a tenth of the table) and selecting the top outside.
    band = (col("enrolled") >= 400) & (col("enrolled") < 450)
    walked = _qps(lambda: db.select(
        "courses", where=band, order_by="enrolled", limit=10),
        max(1, iters // 5))
    fetched = _qps(lambda: heapq.nsmallest(
        10, db.select("courses", where=band), key=itemgetter("enrolled")),
        max(1, iters // 20))
    examined = rows_examined(db, where=band, order_by="enrolled", limit=10)
    out.append(["ordered top-k",
                f"walk, {examined} of {db.count('courses', band)} rows",
                f"{walked:,.0f}", f"{fetched:,.0f}",
                f"{walked / fetched:.1f}x"])

    # join: sections ⋈ courses (hash join over selected inputs).
    join = _qps(lambda: db.join(
        "sections", "courses", on=[("course_number", "course_number")],
        where_right=col("dept") == "cs"), max(1, iters // 100))
    out.append(["join", "hash join", f"{join:,.0f}", "-", "-"])
    assert no_index.explain_plan(
        "courses", where).access_path == "scan"  # sanity: pushdown needs index
    return out


def cache_rows(rows: int, reads: int) -> list[list]:
    """Cache hit ratios and throughput on a repeated-read workload."""
    db = build_catalog(rows)
    versions = TableVersions()
    versions.attach(db)
    cache = QueryCache(versions, max_entries=64)
    hot = [col("instructor") == f"prof{i:04d}" for i in range(8)]

    def cached() -> None:
        for where in hot:
            cache.select(db, "courses", where=where, order_by="course_number")

    def uncached() -> None:
        for where in hot:
            db.select("courses", where=where, order_by="course_number")

    out: list[list] = []
    cold = _qps(uncached, max(1, reads // 8))
    warm = _qps(cached, reads)
    stats = cache.stats()
    ratio = stats["hits"] / (stats["hits"] + stats["misses"])
    out.append(["read-only", f"{ratio:.3f}", f"{warm:,.0f}",
                f"{cold:,.0f}", f"{warm / cold:.1f}x"])

    # 10% writes: every write bumps the version, forcing re-reads.
    cache2 = QueryCache(versions, max_entries=64)
    counter = [0]

    def mixed() -> None:
        counter[0] += 1
        if counter[0] % 10 == 0:
            db.update_pk("courses", (f"c{counter[0] % rows:06d}",),
                         {"enrolled": counter[0] % 500})
        for where in hot:
            cache2.select(db, "courses", where=where,
                          order_by="course_number")

    mixed_qps = _qps(mixed, max(1, reads // 4))
    stats2 = cache2.stats()
    ratio2 = stats2["hits"] / (stats2["hits"] + stats2["misses"])
    out.append(["10% writes", f"{ratio2:.3f}", f"{mixed_qps:,.0f}",
                "-", "-"])
    return out


# ---------------------------------------------------------------------------
# pytest checks (the acceptance criteria, runnable stand-alone)
# ---------------------------------------------------------------------------
def test_e15_indexed_point_query_at_least_5x_scan():
    db = build_catalog(10_000)
    indexed = _qps(lambda: db.select(
        "courses", where=col("course_number") == "c000042"), 60)
    scan = _qps(lambda: db.select(
        "courses", where=col("title") == "course 000042"), 6)
    assert db.explain_plan(
        "courses", col("course_number") == "c000042"
    ).access_path.startswith("index:")
    assert indexed >= 5 * scan


def test_e15_range_uses_sorted_index_path():
    db = build_catalog(2_000)
    plan = db.explain_plan(
        "courses", (col("enrolled") >= 480) & (col("enrolled") < 495))
    assert plan.access_path == "index:by_enrolled"
    assert plan.pushdown is not None


def test_e15_write_between_cached_reads_is_fresh():
    db = build_catalog(500)
    versions = TableVersions()
    versions.attach(db)
    cache = QueryCache(versions)
    where = col("course_number") == "c000007"
    first = cache.select(db, "courses", where=where)
    db.update_pk("courses", ("c000007",), {"enrolled": 499})
    second = cache.select(db, "courses", where=where)
    assert first[0]["enrolled"] != 499
    assert second[0]["enrolled"] == 499


def test_e15_topk_equals_full_sort_prefix():
    db = build_catalog(1_000)
    full = db.select("courses", order_by=("enrolled", "course_number"))
    topk = db.select("courses", order_by=("enrolled", "course_number"),
                     limit=25)
    assert topk == full[:25]


def test_e15_bench_point_query(benchmark):
    db = build_catalog(2_000)
    benchmark(lambda: db.select(
        "courses", where=col("course_number") == "c000042"))


# ---------------------------------------------------------------------------
def smoke() -> int:
    """CI plan-regression guard at small scale (fast, deterministic)."""
    db = build_catalog(1_000)
    # (label, predicate, must plan through an index?)
    shapes = [
        ("point", col("course_number") == "c000042", True),
        ("range", (col("enrolled") >= 480) & (col("enrolled") < 495), True),
        ("in-list",
         col("instructor").isin(["prof0007", "prof0042", "prof0099"]), True),
        ("wide range", col("enrolled") >= 200, False),  # ~60 % of the table
    ]
    failures = []
    for label, where, indexed in shapes:
        plan = db.explain_plan("courses", where)
        print(f"{label} plan: {plan.describe()}")
        if indexed and not plan.access_path.startswith("index:"):
            failures.append(
                f"{label} query fell back to {plan.access_path!r}: "
                f"{plan.describe()}"
            )
        if not indexed and plan.access_path != "scan":
            failures.append(
                f"{label} query reads most of the table through "
                f"{plan.access_path!r}: {plan.describe()}"
            )
    # Counts only, no timing floor: ordered by the pushed-down column,
    # a top-10 stops at a key boundary short of the range's end.
    narrow = shapes[1][1]
    print("ordered top-10 plan:",
          db.explain("courses", narrow, order_by="enrolled", limit=10))
    examined = rows_examined(db, where=narrow, order_by="enrolled", limit=10)
    held = db.count("courses", narrow)
    print(f"ordered top-10 examined {examined} of the range's {held} rows")
    if examined >= held:
        failures.append(
            f"ordered top-10 examined {examined} rows of a {held}-row range"
        )
    for failure in failures:
        print(f"PLAN REGRESSION: {failure}", file=sys.stderr)
    print("plan guard:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    if "--smoke" in sys.argv[1:]:
        return smoke()
    rows, iters = 10_000, 400
    print_table(
        "E15: cost-based planner on the course catalog "
        f"({rows:,} rows; queries/s)",
        ["query", "access path", "planned q/s", "scan q/s", "speedup"],
        planner_rows(rows, iters),
    )
    print_table(
        "E15: versioned result cache at the class administrator "
        "(8 hot queries)",
        ["workload", "hit ratio", "cached q/s", "uncached q/s", "speedup"],
        cache_rows(rows, 200),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
