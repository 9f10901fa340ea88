"""``--compare A.json B.json``: verdict per (end-to-end metric, workload).

Both files come from ``run.py --json`` and may hold several runs of a
workload (every run with the same ``--json PATH`` adds to the file, so
a shell loop over seeds fills it).  The bounds are the ones ``BENCHMARK.json``
fixes; the rule is the choosing-metrics guide's:

* **worse** — B's median is worse than A's by more than the bound;
* **better** — every run of B reads better than every run of A;
* **unresolved** — neither of the above, and the run-to-run spread of
  either side (quartile distance over median) is wider than the bound,
  so "unchanged" cannot be told from "changed";
* **within bound** — otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

__all__ = ["verdict", "compare_files"]


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / abs(median) if median else 0.0


def verdict(
    a: list[float], b: list[float], *, better: str, bound: float
) -> str:
    """Classify B against A for one metric on one workload."""
    if not a or not b:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    if worse_by > bound:
        return "worse"
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "better"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "within bound"


def _values(path: Path) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    document = json.loads(path.read_text(encoding="utf-8"))
    for result in document["results"]:
        if result["trace"]:
            continue
        for name, cell in result["metrics"].items():
            out.setdefault((result["workload"], name), []).append(cell["value"])
    return out


def compare_files(a_path: Path, b_path: Path, benchmark_json: Path) -> int:
    """Print the table; exit status 1 when any pair is worse."""
    spec: dict[str, Any] = json.loads(benchmark_json.read_text(encoding="utf-8"))
    a, b = _values(a_path), _values(b_path)
    worse = 0
    print(f"{'workload':20s} {'metric':14s} {'A median':>12s} "
          f"{'B median':>12s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            left, right = a.get(key, []), b.get(key, [])
            result = verdict(
                left, right, better=metric["better"], bound=metric["bound"]
            )
            worse += result == "worse"
            shown = [
                f"{statistics.median(v):12.5g}" if v else f"{'-':>12s}"
                for v in (left, right)
            ]
            print(f"{workload:20s} {metric['name']:14s} {shown[0]} {shown[1]} "
                  f"{metric['bound']:6.2f}  {result} "
                  f"(runs {len(left)}/{len(right)})")
    return 1 if worse else 0
