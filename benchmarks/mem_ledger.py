#!/usr/bin/env python3
"""What a stored row costs: the memory ledger behind DESIGN §6.

Loads E22's two datasets exactly as the benchmark does — the tier
through ``benchmarks.e22.dataset.load_tier`` (bulk load, checkpoint,
reopen from the snapshot), the report corpus through ``build_corpus`` —
each twice, in child processes of this script:

* an **rss** child reads the resident set at each stage (bare
  interpreter, serving-path imports, plan, loaded) and the process
  high-water mark, with nothing else switched on;
* a **trace** child starts stdlib ``tracemalloc`` after the imports and
  the plan, loads, collects garbage, and groups the bytes still live by
  the file that allocated them — one line per ``src/repro`` file, the
  rest under the directory they belong to (``json`` holds the decoded
  value strings of recovered rows).

**Bytes per stored row** is the traced live total divided by the rows
the loaded tables hold.  ``--check`` (the CI ``benchmark-smoke`` step,
with ``--smoke``) fails if any child imported numpy or a dataset's bytes
per stored row exceed :data:`COMMITTED_SMOKE_BYTES_PER_ROW` by more than
15 %.

Usage:  python benchmarks/mem_ledger.py [--smoke] [--seed N]
                                        [--json PATH] [--check]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # for benchmarks.e22, which adds src/ itself
#: ``--smoke --check`` ceiling: what PR 21 measured at seed 11 (its
#: parent: 1,440 and 773).  Lower it when a PR cuts a row's cost.
COMMITTED_SMOKE_BYTES_PER_ROW = {"tier": 977, "corpus": 556}
CHECK_SLACK = 0.15
MB = 1024 * 1024


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _group(filename: str) -> str:
    """``src/repro/...`` files by name, everything else by directory."""
    path = Path(filename)
    for base in (ROOT / "src", ROOT):
        if path.is_relative_to(base):
            relative = path.relative_to(base)
            if relative.parts[0] == "repro":
                return relative.as_posix()
            return relative.parent.as_posix() + "/"
    return (path.parent.name or filename) + "/ (stdlib)"


def _tier(seed: int, scale: float, scratch: Path) -> Callable[[], Any]:
    from benchmarks.e22.dataset import TierSizes, load_tier, plan_tier

    plan = plan_tier(seed, TierSizes().scaled(scale))
    return lambda: load_tier(plan, scratch / "tier")


def _corpus(seed: int, scale: float, scratch: Path) -> Callable[[], Any]:
    from benchmarks.e22.dataset import CorpusSizes, build_corpus, corpus_rows

    docs, courses = corpus_rows(seed, CorpusSizes().scaled(scale))
    return lambda: build_corpus(docs, courses)


def child(
    mode: str, target: str, seed: int, scale: float, scratch: Path
) -> dict[str, Any]:
    """One measurement in this (fresh) process; the result as a dict."""
    stages = {"bare": resident_bytes()}  # interpreter + this script's imports
    import benchmarks.e22.workloads  # noqa: F401 - the whole serving path

    stages["imports"] = resident_bytes()
    load = (_tier if target == "tier" else _corpus)(seed, scale, scratch)
    stages["plan"] = resident_bytes()
    if mode == "trace":
        tracemalloc.start()
    loaded = load()
    gc.collect()
    db = getattr(loaded, "admin_db", loaded)  # the tier's server, or the corpus
    result: dict[str, Any] = {
        "target": target, "mode": mode, "numpy": "numpy" in sys.modules,
        "rows": sum(len(db.table(name)) for name in db.table_names()),
    }
    if mode == "rss":
        stages["loaded"] = resident_bytes()
        stages["high_water"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        )
        result["rss"] = stages
        return result
    live, peak = tracemalloc.get_traced_memory()
    by_file: dict[str, int] = {}
    for stat in tracemalloc.take_snapshot().statistics("filename"):
        key = _group(stat.traceback[0].filename)
        by_file[key] = by_file.get(key, 0) + stat.size
    tracemalloc.stop()
    result.update(live=live, traced_peak=peak, by_file=by_file,
                  bytes_per_row=live / result["rows"])
    return result


def _spawn(mode: str, target: str, seed: int, scale: float) -> dict[str, Any]:
    import subprocess  # here, so a child's "bare" reading is not charged it

    done = subprocess.run(
        [sys.executable, __file__, "--child", mode, target,
         "--seed", str(seed), "--scale", str(scale)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def report(ledger: dict[str, Any]) -> str:
    lines = []
    for target, entry in ledger["datasets"].items():
        rss, trace = entry["rss"], entry["trace"]
        lines.append(
            f"{target}: {trace['rows']:,} stored rows, "
            f"{trace['bytes_per_row']:,.0f} B/row live "
            f"({trace['live'] / MB:.1f} MB traced, "
            f"{trace['traced_peak'] / MB:.1f} MB at the traced peak)"
        )
        lines.append("  RSS MB   " + "   ".join(
            f"{stage} {value / MB:.1f}" for stage, value in rss["rss"].items()
        ))
        lines.append(f"  {'allocated in':<40}{'MB':>8}{'B/row':>9}")
        ranked = sorted(trace["by_file"].items(), key=lambda kv: -kv[1])
        for name, size in ranked:
            if size < trace["live"] / 500:  # under 0.2 %: not a row cost
                continue
            lines.append(
                f"  {name:<40}{size / MB:>8.2f}{size / trace['rows']:>9.0f}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="E22's --smoke scale (1/20)")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument("--check", action="store_true",
                        help="fail on numpy or on bytes per row over the "
                             "committed --smoke figure by more than 15 %%")
    parser.add_argument("--child", nargs=2, metavar=("MODE", "TARGET"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # always spawned with an explicit --scale
        with tempfile.TemporaryDirectory(prefix="mem-ledger-") as scratch:
            print(json.dumps(
                child(*args.child, args.seed, args.scale, Path(scratch))
            ))
        return 0
    from benchmarks.e22.run import SMOKE_SCALE

    scale = args.scale if args.scale is not None else (
        SMOKE_SCALE if args.smoke else 1.0
    )
    ledger = {
        "seed": args.seed, "scale": scale,
        "datasets": {
            target: {mode: _spawn(mode, target, args.seed, scale)
                     for mode in ("rss", "trace")}
            for target in ("tier", "corpus")
        },
    }
    print(report(ledger))
    if args.json is not None:
        args.json.write_text(json.dumps(ledger, indent=1) + "\n",
                             encoding="utf-8")
    if not args.check:
        return 0
    status = 0
    for target, entry in ledger["datasets"].items():
        if entry["rss"]["numpy"] or entry["trace"]["numpy"]:
            print(f"FAIL {target}: numpy was imported on the serving path")
            status = 1
        ceiling = COMMITTED_SMOKE_BYTES_PER_ROW[target] * (1 + CHECK_SLACK)
        measured = entry["trace"]["bytes_per_row"]
        if measured > ceiling:
            print(f"FAIL {target}: {measured:,.0f} B/row > {ceiling:,.0f} "
                  f"(committed figure + {CHECK_SLACK:.0%})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
