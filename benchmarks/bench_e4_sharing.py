"""E4 — in-station BLOB sharing avoids disk abuse.

Paper claim (§4): "BLOB objects in the same station should be shared as
much as possible among different documents" and the class/instance
design "allows the BLOBs to be stored in a class [and] shared by
different instances instantiated from the class."

The table sweeps the cross-course reuse probability for a 200-course
corpus and reports physical vs logical (copy-per-reference) bytes —
the saving the content-addressed store realizes — plus the
class/instance sharing of one template course duplicated per section.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.common import print_table
from repro.core import ImplementationSCI, ScriptSCI, WebDocumentDatabase
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind
from repro.util.units import MIB, format_bytes
from repro.workloads import CourseGenerator

REUSE_LEVELS = (0.0, 0.3, 0.6, 0.9)
N_COURSES = 200


def corpus_stats(reuse: float) -> dict:
    db = WebDocumentDatabase("station")
    db.create_document_database("mmu", author="gen")
    CourseGenerator(seed=1999, reuse_probability=reuse).generate_corpus(
        db, "mmu", N_COURSES
    )
    stats = db.station.blobs.stats()
    stats["saved"] = stats["logical_bytes"] - stats["physical_bytes"]
    return stats


def class_instance_sharing(n_instances: int) -> dict:
    """The class/instance half of the claim: one 40 MiB course template
    duplicated for n sections shares its BLOBs."""
    db = WebDocumentDatabase("st")
    db.create_document_database("mmu", author="gen")
    db.add_script(ScriptSCI("template", "mmu", author="gen"))
    lecture = db.register_blob("lecture.mpg", 40 * MIB, BlobKind.VIDEO)
    db.add_implementation(
        ImplementationSCI(
            "http://mmu/template/", "template", author="gen",
            multimedia=[lecture],
        ),
        [DocumentFile("index.html", FileKind.HTML, "<html>x</html>")],
    )
    for index in range(n_instances):
        db.duplicate_course("template", f"section{index}")
    return db.station.blobs.stats()


def experiment_rows() -> list[list]:
    rows = []
    for reuse in REUSE_LEVELS:
        stats = corpus_stats(reuse)
        rows.append([
            f"{reuse:.1f}",
            stats["blobs"],
            format_bytes(stats["physical_bytes"]),
            format_bytes(stats["logical_bytes"]),
            f"{stats['sharing_factor']:.2f}",
            format_bytes(stats["saved"]),
        ])
    return rows


def instance_rows() -> list[list]:
    rows = []
    for n in (1, 4, 16):
        report = class_instance_sharing(n)
        rows.append([
            n,
            format_bytes(report["physical_bytes"]),
            format_bytes(report["logical_bytes"]),
            f"{report['sharing_factor']:.1f}",
        ])
    return rows


def test_e4_reuse_increases_sharing():
    low = corpus_stats(0.0)["sharing_factor"]
    high = corpus_stats(0.9)["sharing_factor"]
    assert high > low

    saved = corpus_stats(0.9)["saved"]
    assert saved > 0


def test_e4_instances_share_one_physical_copy():
    report = class_instance_sharing(16)
    assert report["physical_bytes"] == 40 * MIB + 0  # one copy + tiny html
    assert report["sharing_factor"] > 10


def test_e4_bench_corpus_generation(benchmark):
    benchmark(corpus_stats, 0.6)


def main() -> None:
    print_table(
        f"E4a: {N_COURSES}-course corpus, cross-course media reuse sweep",
        ["reuse_p", "blobs", "physical", "logical(no-share)",
         "sharing_x", "disk_saved"],
        experiment_rows(),
    )
    print_table(
        "E4b: class/instance sharing (40 MiB lecture template)",
        ["instances", "physical", "copy-per-instance", "sharing_x"],
        instance_rows(),
    )


if __name__ == "__main__":
    sys.exit(main())
