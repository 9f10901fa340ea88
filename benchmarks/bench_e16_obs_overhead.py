"""E16 (extension) — observability overhead on the E15 planner workload.

The ``repro.obs`` layer pre-instruments every hot path in the stack
behind one boolean (``OBS.enabled``).  E16 quantifies what that costs:

* **disabled** — the switch off: each instrument point is a single
  attribute read.  Target: indistinguishable from the seed (~0%).
* **enabled** — a live registry: cached counter handles, one integer
  add per point plus two clock reads per timed statement — a fixed
  ~1 us per statement, never per row.  Target: <5% on any workload
  whose per-statement work dominates (the full scan here); the indexed
  point query is the adversarial floor — the query itself is a single
  ~15 us hash probe, so the fixed cost has nowhere to hide and shows
  up as a few percent more.

Each workload's timed calls are split over ``PAIRS`` short pairs, one
run per mode, and the pairs alternate which mode runs first.  The
overhead is one minus the median of the per-pair (enabled / disabled)
q/s ratios: a shift in the host's speed tilts the pairs it falls in,
not the verdict, as it would a best run per mode taken across it.
``--smoke`` is the CI guard: it fails (exit 1) when the *enabled*
overhead exceeds a deliberately generous 25% ceiling (shared CI runners
are noisy; the tracked <5% claim is checked on quiet hardware via
``main``).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_e15_query_planner import build_catalog
from benchmarks.common import print_table
from repro.obs import MetricsRegistry, disable, enable
from repro.rdb import col

#: Timed calls per mode are ``REPEATS`` times a workload's ``iters``,
#: split as evenly as they go over ``PAIRS`` interleaved pairs.
REPEATS = 5
PAIRS = 25


def _qps_once(fn, iters: int) -> float:
    """``fn``'s q/s over ``iters`` calls.  One untimed call runs under
    the caller's tracer (a coverage run still sees every function it
    enters); the timed loop runs with that tracer suspended, as a
    tracer's per-call charge would tilt the enabled/disabled ratio."""
    fn()
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        elapsed = time.perf_counter() - start
    finally:
        sys.settrace(tracer)
    return iters / elapsed if elapsed else float("inf")


def _paired(fn, total: int, setups) -> list[list[float]]:
    """Per-pair q/s of each mode: ``total`` calls per mode over
    :data:`PAIRS` pairs, the first mode leading in even pairs and the
    second in odd ones."""
    if total < PAIRS:
        raise ValueError(f"{total} calls cannot fill {PAIRS} pairs")
    runs: list[list[float]] = [[] for _ in setups]
    for pair in range(PAIRS):
        calls = total // PAIRS + (pair < total % PAIRS)
        order = list(range(len(setups)))
        if pair % 2:
            order.reverse()
        for index in order:
            setups[index]()
            try:
                runs[index].append(_qps_once(fn, calls))
            finally:
                disable()
    return runs


def _workloads(rows: int, iters: int):
    """(label, fn, iters) triples: adversarial point query + full scan.

    The indexed point query is the worst case — the query itself is a
    single hash probe (~15 us), so the fixed ~1 us instrumentation cost
    (two clock reads, one histogram observe, five counter adds) has
    nowhere to hide.  The full scan represents every query whose own
    work dominates; its instrumentation cost is the same fixed ~1 us
    (rows scanned are counted analytically, never per row).
    """
    db = build_catalog(rows)
    point_where = col("course_number") == "c000042"
    scan_where = col("dept") == "d042"  # not indexed -> heap scan

    def point_query() -> None:
        db.select("courses", where=point_where)

    def full_scan() -> None:
        db.select("courses", where=scan_where)

    return [
        ("point query", point_query, iters),
        ("full scan", full_scan, max(1, iters // 30)),
    ]


def measure(rows: int, iters: int) -> dict[str, dict[str, float]]:
    """{workload: {disabled, enabled, ratio}} on the E15 catalog: each
    mode's median q/s over the pairs, and the median of the per-pair
    enabled / disabled ratios (what the overhead is read from)."""
    out: dict[str, dict[str, float]] = {}
    for label, fn, n in _workloads(rows, iters):
        disabled, enabled_qps = _paired(
            fn, REPEATS * n,
            [disable, lambda: enable(registry=MetricsRegistry())],
        )
        out[label] = {
            "disabled": statistics.median(disabled),
            "enabled": statistics.median(enabled_qps),
            "ratio": statistics.median(
                on / off for off, on in zip(disabled, enabled_qps)
            ),
        }
    return out


def _overhead(result: dict[str, float]) -> float:
    """The enabled mode's cost in percent of the disabled mode's q/s."""
    return (1.0 - result["ratio"]) * 100.0


def overhead_rows(rows: int, iters: int) -> list[list]:
    out = []
    for label, result in measure(rows, iters).items():
        for mode, overhead in (("disabled", 0.0),
                               ("enabled", _overhead(result))):
            out.append([label, mode, f"{result[mode]:,.0f}",
                        f"{overhead:+.1f}%"])
    return out


# ---------------------------------------------------------------------------
# pytest checks (generous bounds: CI machines are shared and noisy)
# ---------------------------------------------------------------------------
def test_e16_enabled_overhead_is_bounded():
    for result in measure(2_000, 150).values():
        assert result["ratio"] >= 0.70


def test_e16_enabled_run_actually_recorded_metrics():
    db = build_catalog(100)
    registry, _ = enable(registry=MetricsRegistry())
    try:
        db.select("courses", where=col("course_number") == "c000042")
    finally:
        disable()
    snap = registry.snapshot()
    assert snap.counter_total("rdb.statements") == 1
    assert snap.counter_total("rdb.rows_scanned") == 1


def test_e16_disabled_run_records_nothing():
    db = build_catalog(100)
    registry = MetricsRegistry()
    db.select("courses", where=col("course_number") == "c000042")
    assert len(registry) == 0


# ---------------------------------------------------------------------------
def smoke() -> int:
    """CI overhead guard at small scale."""
    failed = False
    for label, result in measure(1_000, 500).items():
        overhead = _overhead(result)
        print(f"{label}: disabled {result['disabled']:,.0f} q/s, "
              f"enabled {result['enabled']:,.0f} q/s ({overhead:+.1f}%)")
        if overhead > 25.0:
            failed = True
            print(
                f"OBS OVERHEAD REGRESSION: {label} enabled costs "
                f"{overhead:.1f}% (>25% ceiling)", file=sys.stderr,
            )
    print("overhead guard:", "FAIL" if failed else "ok")
    return 1 if failed else 0


def main() -> int:
    if "--smoke" in sys.argv[1:]:
        return smoke()
    rows, iters = 10_000, 2_000
    print_table(
        f"E16: observability overhead on E15 catalog queries "
        f"({rows:,} rows; median of {PAIRS} interleaved pairs)",
        ["workload", "obs mode", "q/s", "overhead"],
        overhead_rows(rows, iters),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
