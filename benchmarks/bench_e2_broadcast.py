"""E2 — tree multicast vs flat broadcast.

Paper claim (§4): "With the appropriate selection of m, the propagation
of physical data can be proceeded in an efficient manner, starting from
the instructor station as the root of the m-ary tree."  The table
sweeps the arity for several class sizes pushing a 50 MB lecture over
10 Mb/s links, against the flat baseline (root unicasts every copy) and
a chunked-pipeline ablation.

Expected shape: flat grows linearly with N; the tree grows ~log N with
a shallow optimum near m=3; chunking pipelines a further ~2-3x.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.common import build_network, names, print_table
from repro.distribution import MAryTree, PreBroadcaster
from repro.util.units import MIB

LECTURE = 50 * MIB
ARITIES = (1, 2, 3, 4, 8)
SIZES = (16, 64, 256)


def tree_makespan(n: int, m: int, chunk: int | None = None) -> float:
    net = build_network(n)
    tree = MAryTree(n, m, names=names(n))
    report = PreBroadcaster(net).broadcast(
        "lec", LECTURE, tree, chunk_size_bytes=chunk
    )
    net.quiesce()
    return report.makespan


def flat_makespan(n: int) -> float:
    net = build_network(n)
    # The flat baseline is the tree with m >= N - 1: the root's
    # children are everyone, and every copy queues on its one uplink.
    report = PreBroadcaster(net).broadcast(
        "lec", LECTURE, MAryTree(n, n - 1, names=names(n))
    )
    net.quiesce()
    return report.makespan


def experiment_rows() -> list[list]:
    rows = []
    for n in SIZES:
        flat = flat_makespan(n)
        per_arity = {m: tree_makespan(n, m) for m in ARITIES}
        best_m = min(per_arity, key=per_arity.get)
        chunked = tree_makespan(n, best_m, chunk=MIB)
        for m in ARITIES:
            rows.append([
                n, f"tree m={m}", per_arity[m], flat / per_arity[m],
            ])
        rows.append([n, "flat (baseline)", flat, 1.0])
        rows.append([
            n, f"tree m={best_m} + 1MiB chunks", chunked, flat / chunked,
        ])
    return rows


def test_e2_tree_beats_flat():
    assert tree_makespan(64, 3) * 2 < flat_makespan(64)


def test_e2_optimum_is_small_arity():
    per_arity = {m: tree_makespan(64, m) for m in ARITIES}
    best = min(per_arity, key=per_arity.get)
    assert best in (2, 3, 4)


def test_e2_bench_tree_broadcast(benchmark):
    """Kernel: full 64-station m=3 broadcast simulation."""
    benchmark(tree_makespan, 64, 3)


def test_e2_bench_chunked_broadcast(benchmark):
    benchmark(tree_makespan, 64, 3, MIB)


def main() -> None:
    print_table(
        "E2: 50 MiB lecture push, 10 Mb/s links (makespan seconds)",
        ["N", "strategy", "makespan_s", "speedup_vs_flat"],
        experiment_rows(),
    )


if __name__ == "__main__":
    sys.exit(main())
