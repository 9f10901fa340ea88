"""E17 (extension) — crash recovery: the committed-prefix guarantee,
recovery scaling, and the price of sync policies.

The paper's class administrator "performs book keeping" in an
off-the-rack RDBMS and simply assumes its tables survive crashes; our
reproduction has to earn that assumption.  E17 measures the durability
layer three ways:

* **crash matrix** — the deterministic harness from
  :mod:`repro.fault.crashsim` kills the journal write stream at every
  record boundary and every 64-byte offset (plus a bit-flip sweep) and
  verifies that recovery restores exactly the committed prefix with
  every constraint and secondary index intact;
* **recovery scaling** — journal replay is a single forward scan, so
  recovery time must grow linearly with journal size (time per record
  roughly constant as the journal doubles); ``Database.open`` — what a
  restart runs, the database back *and* journaling again — is timed
  beside the read-only ``Database.recover``: one pass each;
* **sync policy throughput** — ``none`` (flush only), ``interval-N``
  (group commit) and ``commit`` (fsync per transaction) bracket the
  durability/throughput trade: group commit amortizes the fsync cost
  across N transactions, which is why the paper-era "lazy write"
  default survives in the ``interval`` mode.

The v1 (JSON-lines) journal format was retired in PR 13; one line of
output shows such a file is refused untouched, not trimmed as a torn
tail.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import print_table
from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    build_crash_db,
    run_crash_matrix,
)
from repro.rdb import Database, JournalCorruptError
from repro.rdb.wal import Journal, SyncPolicy

MATRIX_TXNS = 30
MATRIX_STRIDE = 64


# ---------------------------------------------------------------------------
# Crash matrix
# ---------------------------------------------------------------------------
def matrix_rows(txns: int, stride: int, seed: int = 0):
    """One row per sweep of the kill-at-point matrix."""
    with tempfile.TemporaryDirectory() as workdir:
        report = run_crash_matrix(
            workdir, txns=txns, stride=stride, seed=seed
        )
    return report, [
        ["crash points tested", len(report.cases)],
        ["torn tails tolerated", report.total("torn_tails")],
        ["corruptions detected (strict)",
         report.total("corruption_detected")],
        ["records recovered (total)", report.total("records_recovered")],
        ["committed-prefix violations", len(report.failures)],
        ["constraint/index violations", 0 if report.ok else "see failures"],
    ]


# ---------------------------------------------------------------------------
# Recovery scaling
# ---------------------------------------------------------------------------
def _write_journal(path: Path, records: int) -> None:
    with Journal(path) as journal:
        for k in range(1, records + 1):
            journal.append(k, [[
                "insert", "crash_docs",
                {"doc_id": k, "title": f"doc-{k:06d}", "version": 1,
                 "body": "x" * 64},
            ]])


def _time_recovery(path: Path) -> float:
    start = time.perf_counter()
    Database.recover("r", CRASH_SCHEMAS, journal_path=str(path))
    return time.perf_counter() - start


def _time_open(path: Path) -> float:
    start = time.perf_counter()
    db = Database.open("r", CRASH_SCHEMAS, journal_path=str(path))
    elapsed = time.perf_counter() - start
    db.journal.close()
    return elapsed


def scaling_rows(sizes: list[int], repeats: int = 3):
    """Wall-clock recovery latency per journal size, read-only and as a
    restart opens it; us/record should stay flat."""
    rows = []
    per_record: list[float] = []
    with tempfile.TemporaryDirectory() as workdir:
        for records in sizes:
            path = Path(workdir) / f"scale-{records}.wal"
            _write_journal(path, records)
            best = min(_time_recovery(path) for _ in range(repeats))
            best_open = min(_time_open(path) for _ in range(repeats))
            per_record.append(best / records * 1e6)
            rows.append([
                f"{records:,}",
                f"{path.stat().st_size / 1024:.0f} KiB",
                f"{best * 1e3:.1f} ms",
                f"{per_record[-1]:.1f} us",
                f"{best_open * 1e3:.1f} ms",
            ])
    return rows, per_record


# ---------------------------------------------------------------------------
# Sync policies
# ---------------------------------------------------------------------------
def sync_policy_rows(txns: int):
    """Committed transactions/s under each sync policy, one fsync count."""
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for spec in ("none", "interval-64", "interval-8", "commit"):
            fsyncs = 0
            base = SyncPolicy.parse(spec)
            real_fsync = base.fsync

            def counting_fsync(fd: int) -> None:
                nonlocal fsyncs
                fsyncs += 1
                real_fsync(fd)

            policy = SyncPolicy(base.mode, base.interval, counting_fsync)
            path = Path(workdir) / f"sync-{spec}.wal"
            journal = Journal(path, sync=policy)
            db = build_crash_db(journal=journal)
            start = time.perf_counter()
            for k in range(1, txns + 1):
                db.insert("crash_docs", {
                    "doc_id": k, "title": f"doc-{k:06d}",
                })
            elapsed = time.perf_counter() - start
            journal.close()
            rows.append([
                spec,
                f"{txns / elapsed:,.0f}",
                fsyncs,
                "flush only" if spec == "none" else
                f"1 per {txns // max(1, fsyncs)} txns",
            ])
    return rows


# ---------------------------------------------------------------------------
# Retired v1 format
# ---------------------------------------------------------------------------
def v1_refused() -> bool:
    """A v1 JSON-lines journal is refused and left byte-identical."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "legacy.jsonl"
        path.write_text(json.dumps({"txn": 1, "ops": []}) + "\n")
        before = path.read_bytes()
        try:
            Journal(path, salvage=True)
        except JournalCorruptError as exc:
            return "v1 JSON-lines" in str(exc) and path.read_bytes() == before
        return False


# ---------------------------------------------------------------------------
# pytest checks
# ---------------------------------------------------------------------------
def test_e17_crash_matrix_holds():
    report, _ = matrix_rows(txns=10, stride=96)
    assert report.ok, report.failures[:3]


def test_e17_recovery_scales_linearly():
    _, per_record = scaling_rows([200, 800], repeats=2)
    # Doubling twice must not super-linearly inflate the per-record
    # cost (generous 3x bound: CI machines are shared and noisy).
    assert per_record[1] <= per_record[0] * 3.0


def test_e17_v1_journal_refused():
    assert v1_refused()


# ---------------------------------------------------------------------------
def smoke() -> int:
    """CI guard: small crash matrix + v1 refusal, exit 1 on any
    committed-prefix or integrity violation."""
    report, rows = matrix_rows(txns=12, stride=MATRIX_STRIDE)
    for label, value in rows:
        print(f"{label}: {value}")
    refused = v1_refused()
    print("v1 journal (retired format):",
          "refused, untouched" if refused else "FAIL")
    ok = report.ok and refused
    print("crash matrix guard:", "ok" if ok else "FAIL")
    if not ok:
        for failure in report.failures[:10]:
            print(f"  {failure.kind} @ byte {failure.offset}: "
                  f"{failure.detail}", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    if "--smoke" in sys.argv[1:]:
        return smoke()
    report, rows = matrix_rows(MATRIX_TXNS, MATRIX_STRIDE)
    print_table(
        f"E17a: crash-injection matrix ({MATRIX_TXNS} txns, every record "
        f"boundary + every {MATRIX_STRIDE} B, truncate + bit-flip sweeps)",
        ["check", "value"],
        rows,
    )
    if not report.ok:
        for failure in report.failures[:10]:
            print(f"  FAILURE {failure.kind} @ byte {failure.offset}: "
                  f"{failure.detail}")
    sizes = [200, 400, 800, 1600]
    scale_rows, _ = scaling_rows(sizes)
    print_table(
        "E17b: recovery time vs journal size (wall-clock, best of 3; "
        "linear scan)",
        ["records", "journal", "recover (read-only)", "per record",
         "open (restart)"],
        scale_rows,
    )
    print_table(
        "E17c: sync policy throughput (1,500 autocommit inserts)",
        ["policy", "txns/s", "fsyncs", "fsync amortization"],
        sync_policy_rows(1_500),
    )
    print("v1 journal (retired in PR 13):",
          "refused, file untouched" if v1_refused() else "FAIL: not refused")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
