"""E19 (extension) — compiled, vectorized execution on the scan/join path.

``repro.rdb`` lowers each predicate tree to one generated Python
function (``repro.rdb.compile``) and pulls rows through the executor in
batches, so a full scan is a single fused list comprehension instead of
a tree walk per row.  Since PR 13 that is the *only* executor: the
per-row pipeline PR 7 kept behind an environment kill switch as its
in-run baseline is gone.

E19 therefore measures the executor against the **oracle the test
suites judge it by** — the semantics written down as naively as
possible, timed in the same process:

* **full scan** — a 3-conjunct WHERE over the document corpus through
  ``Database.select``, against ``[dict(r) for r in rows if
  where.eval(r)]``.
* **join query** — filtered documents ⋈ course catalog through
  ``Database.join`` (the paper's "documents of one author with their
  course records" shape), against two naive scans feeding
  ``tests.rdb.oracles._reference_join`` (the seed hash join).
* **pure merge** — ``join_rows`` against ``_reference_join`` over the
  same pre-materialized inputs.  Both build one fresh output dict per
  matched pair (~1 us each), so the honest ceiling here is ~2x.
* **bare filter** — the generated batch filter against per-row
  ``Expr.eval``: the codegen ablation with no executor around it.
* **grouped aggregate** — a per-course count and size total over the
  filtered documents through ``Database.aggregate`` (filter, group and
  fold in one generated pass), against the naive scan feeding the
  bucket loop kept as ``tests.rdb.oracles._reference_aggregate``.
* **obs overhead** — the enabled-observability cost on a scan.
  Batches are counted analytically (one add per batch, never per
  row), so the target is <1%.

**These ratios are not comparable with PR 7's 13.5x / 13.2x.**  Those
were measured against the seed executor's generator pipeline (plan,
per-row rowid hop, ``table.get``, counting iterator, ``Expr.eval``,
defensive copy) — a pipeline that no longer exists.  The naive oracle
skips all of that machinery, so it is a *faster* baseline and the
ratios below are smaller; what they isolate is tree interpretation vs
generated code (scan, filter) and per-column dict building vs
``dict(zip)`` (merge).

Sides are interleaved A/B across repeats and the best run per side is
kept.  ``--smoke`` is the CI perf guard at small scale with generous
floors re-derived from the measured ratios against the new baseline
(10k rows, three runs: full scan 8.5-9.5x, join query 5.9-8.0x; the
floors are about half of that because shared runners are noisy): it
fails (exit 1) if the executor falls below 4x the naive oracle on the
full scan, 3x on the join query, 3x on the grouped aggregate, or the
enabled-obs overhead exceeds 10%.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import print_table
from repro.obs import MetricsRegistry, disable, enable
from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.rdb.compile import batch_filter
from repro.rdb.query import join_rows
from tests.rdb.oracles import _reference_aggregate, _reference_join

T = ColumnType

REPEATS = 5

# 3-conjunct scan predicate: selects ~0.1% of the corpus.
SCAN_WHERE = (
    (col("version") == 3)
    & (col("size_kb") > 1500)
    & (col("author").isin(("a13", "a14", "a15")))
)
# Join-side filter: one author's current large documents (~0.04%).
JOIN_WHERE = (
    (col("version") == 3)
    & (col("size_kb") > 1500)
    & (col("author") == "a13")
)
ON = [("course", "course")]
# Grouped report: per-course count and size of one version's larger
# documents (~3.5% of the corpus, every course a group).
AGG_WHERE = (col("version") == 3) & (col("size_kb") > 1000)
AGG_SPEC = {"n": ("count", None), "kb": ("sum", "size_kb")}


def build_corpus(rows: int) -> Database:
    """``rows`` web documents plus the 200-course catalog they cite."""
    db = Database("corpus")
    db.create_table(Schema(
        name="docs",
        columns=(
            Column("doc_id", T.INT, nullable=False),
            Column("course", T.TEXT, nullable=False),
            Column("version", T.INT, nullable=False),
            Column("size_kb", T.INT, nullable=False),
            Column("author", T.TEXT, nullable=False),
        ),
        primary_key=("doc_id",),
    ))
    db.create_table(Schema(
        name="courses",
        columns=(
            Column("course", T.TEXT, nullable=False),
            Column("dept", T.TEXT, nullable=False),
            Column("credits", T.INT, nullable=False),
        ),
        primary_key=("course",),
    ))
    db.insert_many("docs", [
        {
            "doc_id": i,
            "course": f"c{i % 200}",
            "version": i % 7,
            "size_kb": (i * 13) % 2000,
            "author": f"a{i % 97}",
        }
        for i in range(rows)
    ])
    db.insert_many("courses", [
        {"course": f"c{i}", "dept": f"d{i % 10}", "credits": i % 4}
        for i in range(200)
    ])
    return db


def _qps_once(fn, iters: int) -> float:
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    elapsed = time.perf_counter() - start
    return iters / elapsed if elapsed else float("inf")


def _best_of_pair(oracle, executor, iters: int) -> tuple[float, float]:
    """(oracle q/s, executor q/s), sides interleaved per repeat."""
    best = [0.0, 0.0]
    for _ in range(REPEATS):
        for index, fn in enumerate((oracle, executor)):
            best[index] = max(best[index], _qps_once(fn, iters))
    return best[0], best[1]


def naive_scan(db: Database, table: str, where=None) -> list[dict]:
    """The scan oracle: ``Expr.eval`` on every row, copy what matches."""
    return [
        dict(row) for row in db.table(table).rows()
        if where is None or where.eval(row)
    ]


def _workloads(db: Database, iters: int):
    """(label, oracle fn, executor fn, iters) covered by table and smoke."""
    # Pure-merge inputs are pre-materialized so only the merge is timed.
    left = db.select("docs", where=col("version") == 3)
    right = db.select("courses")
    rows_list = db.table("docs").rows_list()
    evaluate = SCAN_WHERE.eval
    return [
        ("full scan",
         lambda: naive_scan(db, "docs", SCAN_WHERE),
         lambda: db.select("docs", where=SCAN_WHERE),
         iters),
        ("join query",
         lambda: _reference_join(naive_scan(db, "docs", JOIN_WHERE),
                                 naive_scan(db, "courses"), ON),
         lambda: db.join("docs", "courses", ON, where_left=JOIN_WHERE),
         iters),
        ("pure merge",
         lambda: _reference_join(left, right, ON),
         lambda: join_rows(left, right, ON),
         max(1, iters // 2)),
        ("bare filter",
         lambda: [row for row in rows_list if evaluate(row)],
         lambda: batch_filter(SCAN_WHERE)(rows_list),
         iters),
        ("grouped aggregate",
         lambda: _reference_aggregate(
             [row for row in db.table("docs").rows() if AGG_WHERE.eval(row)],
             AGG_SPEC, ["course"]),
         lambda: db.aggregate("docs", AGG_SPEC, where=AGG_WHERE,
                              group_by=["course"]),
         iters),
    ]


def measure(rows: int, iters: int) -> dict[str, tuple[float, float]]:
    """{workload: (oracle q/s, executor q/s)} on the corpus."""
    db = build_corpus(rows)
    return {
        label: _best_of_pair(oracle, executor, n)
        for label, oracle, executor, n in _workloads(db, iters)
    }


def measure_obs_overhead(rows: int, iters: int) -> tuple[float, float, float]:
    """(fixed us/statement, big-scan ms, overhead %) for scans.

    Batches are counted analytically — the instrumentation cost of a
    select is a fixed handful of counter adds per *statement*, never
    per row.  That fixed cost (~1 us) is invisible inside a ~2 ms
    40k-row scan — wall-clock A/B at that scale just measures machine
    drift (the sign flips run to run) — so it is measured where it is
    observable: a micro scan whose total time is ~15 us.  The big-scan
    overhead is then ``fixed_cost / scan_time``, both terms measured by
    toggling instrumentation in-process.
    """
    micro = build_corpus(64)
    big = build_corpus(rows)

    def micro_scan() -> None:
        micro.select("docs", where=SCAN_WHERE)

    def big_scan() -> None:
        big.select("docs", where=SCAN_WHERE)

    best = [0.0, 0.0]
    for _ in range(REPEATS):
        for index, setup in enumerate(
            (disable, lambda: enable(registry=MetricsRegistry()))
        ):
            setup()
            try:
                best[index] = max(
                    best[index], _qps_once(micro_scan, iters * 40)
                )
            finally:
                disable()
    fixed_s = max(0.0, 1.0 / best[1] - 1.0 / best[0])
    scan_qps = max(_qps_once(big_scan, iters) for _ in range(REPEATS))
    scan_s = 1.0 / scan_qps
    return fixed_s * 1e6, scan_s * 1e3, fixed_s / scan_s * 100.0


def speedup_rows(rows: int, iters: int) -> list[list]:
    out = []
    for label, (oracle, executor) in measure(rows, iters).items():
        out.append([
            label,
            f"{oracle:,.0f}",
            f"{executor:,.0f}",
            f"{executor / oracle:.1f}x",
        ])
    return out


# ---------------------------------------------------------------------------
# pytest checks (generous bounds: CI machines are shared and noisy)
# ---------------------------------------------------------------------------
def test_e19_executor_and_oracle_agree():
    db = build_corpus(3_000)
    for label, oracle, executor, _iters in _workloads(db, 1):
        assert executor() == oracle(), label
    assert db.select("docs", where=SCAN_WHERE)  # non-degenerate
    assert db.join("docs", "courses", ON, where_left=JOIN_WHERE)


def test_e19_explain_has_no_exec_suffix():
    db = build_corpus(100)
    assert "exec=" not in db.explain("docs", SCAN_WHERE)


def test_e19_executor_scan_beats_naive_scan():
    db = build_corpus(8_000)
    _label, oracle, executor, iters = _workloads(db, 30)[0]
    naive, batched = _best_of_pair(oracle, executor, iters)
    assert batched >= 2.0 * naive  # full run shows ~9x; CI floor


def test_e19_bench_compiled_scan(benchmark):
    db = build_corpus(4_000)
    benchmark(lambda: db.select("docs", where=SCAN_WHERE))


# ---------------------------------------------------------------------------
def smoke() -> int:
    """CI perf guard at small scale (naive-oracle baseline measured
    in-run, floors generous for shared runners)."""
    failures = []
    results = measure(10_000, 40)
    floors = {"full scan": 4.0, "join query": 3.0, "grouped aggregate": 3.0}
    for label, (oracle, executor) in results.items():
        ratio = executor / oracle
        floor = floors.get(label)
        print(f"{label}: naive oracle {oracle:,.0f} q/s, "
              f"executor {executor:,.0f} q/s ({ratio:.1f}x"
              + (f", floor {floor:.1f}x)" if floor else ")"))
        if floor is not None and ratio < floor:
            failures.append(
                f"{label} executor throughput is only {ratio:.2f}x "
                f"the naive oracle (floor {floor:.1f}x)"
            )
    fixed_us, scan_ms, overhead = measure_obs_overhead(10_000, 40)
    print(f"obs overhead on compiled scan: {fixed_us:.1f}us fixed / "
          f"{scan_ms:.2f}ms scan = {overhead:+.2f}% (ceiling 10%)")
    if overhead > 10.0:
        failures.append(
            f"enabled-obs overhead on compiled scan is {overhead:.1f}% "
            f"(>10% ceiling)"
        )
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    print("compiled-exec guard:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    if "--smoke" in sys.argv[1:]:
        return smoke()
    rows, iters = 40_000, 30
    print_table(
        f"E19: batched executor vs the naive Expr.eval / reference-join "
        f"oracle ({rows:,} documents; best of {REPEATS} interleaved repeats)",
        ["workload", "naive oracle q/s", "executor q/s", "ratio"],
        speedup_rows(rows, iters),
    )
    fixed_us, scan_ms, overhead = measure_obs_overhead(rows, iters)
    print_table(
        "E19: observability overhead on the compiled full scan "
        "(fixed per-statement cost vs scan time)",
        ["quantity", "value"],
        [
            ["fixed obs cost / statement", f"{fixed_us:.1f} us"],
            [f"compiled scan ({rows:,} rows)", f"{scan_ms:.2f} ms"],
            ["overhead with obs enabled", f"{overhead:+.2f}%"],
        ],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
