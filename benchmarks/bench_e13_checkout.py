"""E13 (extension) — course check-out cost: notes vs full duplicate.

Paper claims spanned: §5's off-line learning ("students 'check out'
lecture notes from a virtual library") and §4's size-based split
(duplication copies "objects of relatively smaller sizes, such as HTML
files" while "BLOBs in large sizes are shared").

The table checks one generated course out of the instructor's station
onto a student workstation over a 10 Mb/s link, in both modes, across
course sizes.  Expected shape: notes-only check-out is near-instant and
nearly size-independent (metadata + HTML is tiny); full duplication is
dominated by media bytes — the very asymmetry that justifies the
paper's reference/on-demand design.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.common import build_network, print_table
from repro.core import WebDocumentDatabase
from repro.distribution import CourseShipper, package_course
from repro.net import Station
from repro.util.units import format_bytes, format_duration
from repro.workloads import CourseGenerator


def _author(
    station: Station, pages: int, media: int
) -> tuple[WebDocumentDatabase, str]:
    db = WebDocumentDatabase(station)
    db.create_document_database("mmu", author="shih")
    course = CourseGenerator(
        seed=pages * 100 + media, pages_per_course=pages,
        media_per_course=media,
    ).generate_course(db, "mmu", author="shih")
    return db, course.script.script_name


def checkout(pages: int, media: int, include_blobs: bool) -> dict:
    net = build_network(2)
    db, script_name = _author(net.station("s1"), pages, media)
    shipper = CourseShipper(net)
    shipper.attach(db)
    student = WebDocumentDatabase(net.station("s2"))
    shipper.attach(student)
    start = net.sim.now
    shipper.request_course("s2", "s1", script_name,
                           include_blobs=include_blobs)
    net.quiesce()
    package = package_course(db, script_name, include_blobs=include_blobs)
    return {
        "latency": net.sim.now - start,
        "bytes": net.total_bytes,
        "blob_bytes": package.blob_bytes,
        "installed": student.script(script_name) is not None,
        "student_disk": student.station.disk.used_bytes,
        "student_blobs": student.station.blobs.physical_bytes,
    }


def experiment_rows() -> list[list]:
    rows = []
    for pages, media in ((4, 2), (10, 5), (20, 12)):
        for include_blobs, label in ((False, "notes only"),
                                     (True, "full duplicate")):
            outcome = checkout(pages, media, include_blobs)
            rows.append([
                pages, media, label,
                format_bytes(outcome["bytes"]),
                format_duration(outcome["latency"]),
                "yes" if outcome["installed"] else "NO",
            ])
    return rows


def test_e13_notes_checkout_is_cheap():
    notes = checkout(10, 5, include_blobs=False)
    full = checkout(10, 5, include_blobs=True)
    assert notes["installed"] and full["installed"]
    assert notes["bytes"] < full["bytes"] / 5
    assert notes["latency"] < full["latency"]


def test_e13_notes_cost_nearly_size_independent():
    small = checkout(4, 2, include_blobs=False)["latency"]
    large = checkout(20, 12, include_blobs=False)["latency"]
    assert large < small * 10  # metadata+HTML only: sub-linear in media


def test_e13_full_cost_tracks_media_bytes():
    outcome = checkout(10, 5, include_blobs=True)
    assert outcome["bytes"] >= outcome["blob_bytes"]
    # the copy is held on the student's station and charged to its disk
    assert outcome["student_disk"] == outcome["blob_bytes"]
    assert outcome["student_blobs"] == outcome["blob_bytes"]


def test_e13_bench_checkout(benchmark):
    benchmark(checkout, 10, 5, False)


def main() -> None:
    print_table(
        "E13: course check-out over a 10 Mb/s link (extension experiment)",
        ["pages", "media", "mode", "wire", "latency", "installed"],
        experiment_rows(),
    )


if __name__ == "__main__":
    sys.exit(main())
