"""E22 command line: one workload per process, or the whole suite.

Driver form (``BENCHMARK.json``)::

    python3 benchmarks/e22/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric of that pass by name with its unit and ends with one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` (or with several) it runs every (workload, pass) pair in
a child process each — so ``peak_rss_mb`` stays per run — and ends with
a summary whose last key is ``"claim": null``: this benchmark reports
numbers, it claims no gain.

Other forms: ``--smoke`` (everything at 1/20 size in seconds),
``--check-repeat`` (counts that must repeat exactly do), ``--json PATH``
(results plus provenance; a shell loop over seeds adds its runs to one
file), ``--compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.3
#: Counts later issues may rest a claim on — only because they repeat.
EXACT_REPEAT = (
    "rdb.wal.records", "rdb.wal.bytes_per_txn", "rdb.wal.fsyncs_per_txn",
    "tiers.cache.hit_ratio", "net.transport.sends", "net.sim.events",
    "wal_bytes_per_user_byte",
)
REPEAT_OPS = 2000


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, sub-second phases")
    parser.add_argument("--json", type=Path, default=None,
                        help="also add results and provenance to this file")
    parser.add_argument("--check-repeat", action="store_true",
                        help=f"run {REPEAT_OPS} ops of each workload twice "
                             "and require identical counts")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        )["run_seconds"])
    return args


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    from benchmarks.e22.workloads import DEADLINE_S, SEMESTER_MIX_RATE

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "scale": SMOKE_SCALE if args.smoke else 1.0,
        "sync_policy": "commit (os.fsync per acknowledged write)",
        "open_loop_rate_per_s": SEMESTER_MIX_RATE,
        "open_loop_deadline_s": DEADLINE_S,
    }


# ---------------------------------------------------------------------------
# One pass of one workload, in this process
# ---------------------------------------------------------------------------
def run_one(
    name: str, *, seed: int, trace: int, seconds: float | None = None,
    ops: int | None = None, scale: float = 1.0,
) -> dict[str, Any]:
    """Measure for ``seconds``, or exactly ``ops`` operations."""
    from benchmarks.e22 import harness
    from benchmarks.e22.workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, scale, workdir)
        common = dict(seed=seed, seconds=seconds, ops=ops, scratch=workdir)
        if trace:
            result = harness.traced_pass(
                workload, trace_path=OUT / f"trace-{name}.json", **common
            )
            units = harness.PER_LAYER
        else:
            result = harness.end_to_end_pass(workload, **common)
            units = harness.END_TO_END
        workload.discard()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            key: {"value": result.metrics[key], "unit": unit}
            for key, unit in units.items()
        },
        "samples": result.samples,
        "notes": result.notes,
    }


def print_metrics(result: dict[str, Any]) -> None:
    kind = "per-layer" if result["trace"] else "end-to-end"
    print(f"== {result['workload']} ({kind}) ==")
    for name, cell in result["metrics"].items():
        samples = result["samples"].get(name)
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{name:42s} {cell['value']:>14.6g} {cell['unit']}{suffix}")
    if "p99_ms" in result["notes"]:
        print(f"{'p99_ms (printed, not bounded)':42s} "
              f"{result['notes']['p99_ms']:>14.6g} ms"
              f"  (n={result['attempted']})")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} notes={json.dumps(result['notes'])}")


def driver_line(result: dict[str, Any]) -> str:
    return json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


# ---------------------------------------------------------------------------
# The suite: every (workload, pass) in a child process
# ---------------------------------------------------------------------------
def run_suite(names: list[str], args: argparse.Namespace) -> int:
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = []
    for name in names:
        for trace in passes:
            part = OUT / f"part-{os.getpid()}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--trace", str(trace),
                "--seconds", str(args.seconds), "--json", str(part),
            ]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, cwd=ROOT, timeout=900)
            if not part.exists():
                print(f"{name} trace={trace}: exited {child.returncode} "
                      "without a result", file=sys.stderr)
                return child.returncode or 1
            document = json.loads(part.read_text(encoding="utf-8"))
            results += document["results"]
            part.unlink()
    ok = all(r["correct"] for r in results)
    if args.json is not None:
        write_json(args.json, results, args)
    print(json.dumps({
        "workloads": names,
        "passes": list(passes),
        "all_correct": ok,
        "failed": sum(r["failed"] for r in results),
        "claim": None,
    }))
    return 0 if ok else 1


def write_json(path: Path, results: list[dict[str, Any]],
               args: argparse.Namespace) -> None:
    """Write ``results`` to ``path``, after the runs it already holds —
    ``--compare`` needs several runs a side to tell a change from the
    spread, and a shell loop over seeds collects them."""
    earlier = []
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))["results"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"provenance": provenance(args), "results": earlier + results,
         "claim": None},
        indent=1,
    ), encoding="utf-8")


# ---------------------------------------------------------------------------
# --check-repeat
# ---------------------------------------------------------------------------
def check_repeat(names: list[str], args: argparse.Namespace) -> int:
    """Counts a later claim may rest on must read identically twice."""
    differing = 0
    for name in names:
        first, second = (
            run_one(name, seed=args.seed, trace=1, ops=REPEAT_OPS)["metrics"]
            for _ in range(2)
        )
        for metric in EXACT_REPEAT:
            a, b = first[metric]["value"], second[metric]["value"]
            verdict = "identical" if a == b else "DIFFERS"
            differing += a != b
            print(f"{name:20s} {metric:28s} {a!r:>22} {b!r:>22} {verdict}")
    print(json.dumps({"exact_repeat": differing == 0, "claim": None}))
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        from benchmarks.e22.compare import compare_files

        return compare_files(*args.compare, ROOT / "BENCHMARK.json")
    from benchmarks.e22.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {unknown}; choose from "
              f"{list(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.check_repeat:
        return check_repeat(names, args)
    if len(names) != 1 or args.trace is None:
        return run_suite(names, args)
    result = run_one(
        names[0], seed=args.seed, trace=args.trace, seconds=args.seconds,
        scale=SMOKE_SCALE if args.smoke else 1.0,
    )
    print_metrics(result)
    if args.json is not None:
        write_json(args.json, [result], args)
    print(driver_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # The benchmark measures the checkout it sits in; without the
    # program's source there is nothing to measure, and it says so
    # before printing any result.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"E22: no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT))
    import benchmarks.e22  # noqa: F401  (puts src/ on the path)

    sys.exit(main())
