"""E6 — instance -> reference migration bounds buffer usage.

Paper claim (§4): "the duplicated document instances live only within a
duration of time.  After a lecture is presented, duplicated document
instances migrate to document references.  Essentially, buffer spaces
are used only.  However, the instructor workstation has document
instances and classes as persistence objects."

The scenario: 32 stations, 20 lectures of 50 MiB broadcast one per
hour, each buffered for a 45-minute lecture duration on every student
station.  We sample total student disk over the day with migration ON
(the paper's design) and OFF (ablation: duplicates are never demoted).
Expected shape: with migration, student usage plateaus at ~one lecture
per station; without it, usage grows linearly with the lecture count.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.common import build_network, names, print_table
from repro.distribution import MAryTree, PreBroadcaster, ReplicaManager
from repro.util.units import GIB, MIB, format_bytes

N_STATIONS = 32
N_LECTURES = 20
LECTURE_BYTES = 50 * MIB
LECTURE_GAP_S = 3600.0
LECTURE_DURATION_S = 45 * 60.0


def run_day(migrate: bool) -> dict:
    net = build_network(N_STATIONS)
    station_names = names(N_STATIONS)
    tree = MAryTree(N_STATIONS, 3, names=station_names)
    broadcaster = PreBroadcaster(net)
    managers = {
        name: ReplicaManager.of(net.station(name)) for name in station_names
    }
    samples: list[tuple[float, int, int]] = []

    def sample() -> None:
        student_buffer = sum(
            managers[name].buffer_bytes for name in station_names[1:]
        )
        instructor = managers["s1"].persistent_bytes
        samples.append((net.sim.now, student_buffer, instructor))

    for index in range(N_LECTURES):
        start = index * LECTURE_GAP_S
        net.sim.run(until=start)
        lecture_id = f"lecture-{index}"
        broadcaster.broadcast(
            lecture_id, LECTURE_BYTES, tree, chunk_size_bytes=MIB
        )
        # let the push finish; the instructor keeps the lecture, each
        # student's buffered copy lives for the lecture
        net.sim.run(until=start + LECTURE_GAP_S * 0.25)
        managers["s1"].hold_persistent(lecture_id, LECTURE_BYTES)
        for name in station_names[1:]:
            managers[name].touch(
                lecture_id, LECTURE_DURATION_S if migrate else 10 * 86400.0
            )
        sample()
    net.sim.run(until=N_LECTURES * LECTURE_GAP_S + 2 * LECTURE_DURATION_S)
    sample()
    migrations = sum(m.migrations for m in managers.values())
    peak = max(buffer for _t, buffer, _p in samples)
    final = samples[-1]
    return {
        "samples": samples,
        "migrations": migrations,
        "peak_buffer": peak,
        "final_buffer": final[1],
        "instructor_persistent": final[2],
    }


def experiment_rows() -> list[list]:
    rows = []
    for migrate in (True, False):
        outcome = run_day(migrate)
        rows.append([
            "on (paper)" if migrate else "off (ablation)",
            format_bytes(outcome["peak_buffer"]),
            format_bytes(outcome["final_buffer"]),
            outcome["migrations"],
            format_bytes(outcome["instructor_persistent"]),
        ])
    return rows


def test_e6_migration_reclaims_buffers():
    outcome = run_day(migrate=True)
    assert outcome["final_buffer"] == 0
    assert outcome["migrations"] == (N_STATIONS - 1) * N_LECTURES


def test_e6_without_migration_disk_grows_linearly():
    outcome = run_day(migrate=False)
    expected = (N_STATIONS - 1) * N_LECTURES * LECTURE_BYTES
    assert outcome["final_buffer"] == expected


def test_e6_peak_bounded_with_migration():
    with_migration = run_day(True)["peak_buffer"]
    without = run_day(False)["peak_buffer"]
    assert with_migration < without / 4


def test_e6_instructor_keeps_persistent_objects():
    outcome = run_day(True)
    assert outcome["instructor_persistent"] == N_LECTURES * LECTURE_BYTES


def test_e6_bench_day_simulation(benchmark):
    benchmark(run_day, True)


def main() -> None:
    print(
        f"\n{N_STATIONS} stations, {N_LECTURES} x "
        f"{format_bytes(LECTURE_BYTES)} lectures, one per hour, "
        f"{LECTURE_DURATION_S / 60:.0f}-minute lecture duration"
    )
    print_table(
        "E6: buffer usage with and without instance->reference migration",
        ["migration", "peak_student_buffer", "final_student_buffer",
         "migrations", "instructor_persistent"],
        experiment_rows(),
    )
    outcome = run_day(True)
    print("\nstudent-buffer timeline (migration on):")
    for time, buffer, _persistent in outcome["samples"][:: max(1, len(outcome["samples"]) // 8)]:
        bar = "#" * int(buffer / GIB * 20)
        print(f"  t={time / 3600:5.1f}h  {format_bytes(buffer):>10}  {bar}")


if __name__ == "__main__":
    sys.exit(main())
