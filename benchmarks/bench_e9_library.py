"""E9 — virtual-library search and circulation assessment.

Paper claim (§5): the library offers retrieval "according to matching
keywords, instructor names, and course numbers/titles", unlimited
check-out/check-in, and uses the circulation log as an assessment
criterion.

Table A: search latency per query axis as the catalog grows (the
Web-savvy interface must stay interactive), unlimited and with the
``limit=10`` a results page asks for.  Table B: a replayed term of
circulation sessions and the resulting assessment ranking sanity
(engagement and score correlate).
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/bench_*.py` directly from the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import time

import pytest

from benchmarks.common import print_table
from repro.library import (
    CatalogEntry,
    CirculationDesk,
    VirtualLibrary,
    assess,
)
from repro.util.rng import make_rng
from repro.workloads import AccessTraceGenerator

TOPICS = (
    "multimedia", "network", "database", "graphics", "compiler",
    "drawing", "hardware", "operating", "software", "distance",
)


def build_library(n_docs: int) -> VirtualLibrary:
    library = VirtualLibrary(instructors={"gen"})
    rng = make_rng(9, "library", n_docs)
    for index in range(n_docs):
        topic_a = TOPICS[int(rng.integers(len(TOPICS)))]
        topic_b = TOPICS[int(rng.integers(len(TOPICS)))]
        library.add_document("gen", CatalogEntry(
            doc_id=f"doc{index}",
            title=f"Introduction to {topic_a} {topic_b} {index}",
            course_number=f"C{index % 40:03d}",
            instructor=f"instructor{index % 25}",
            keywords=(topic_a, topic_b, f"lecture{index % 12}"),
        ))
    return library


PAGE_LIMIT = 10


def time_queries(library: VirtualLibrary, repeats: int = 200) -> dict:
    """``(axis, limit) -> (microseconds per query, hits returned)``."""
    queries = {
        "keyword": {"keywords": "multimedia database"},
        "instructor": {"instructor": "instructor7"},
        "course": {"course": "C003"},
        "combined": {"keywords": "network", "instructor": "instructor3"},
    }
    out = {}
    for name, axes in queries.items():
        for limit in (None, PAGE_LIMIT):
            hits = len(library.search(**axes, limit=limit))
            start = time.perf_counter()
            for _ in range(repeats):
                library.search(**axes, limit=limit)
            elapsed = (time.perf_counter() - start) / repeats
            out[name, limit] = (elapsed * 1e6, hits)
    return out


def run_term(n_docs: int = 500, n_sessions: int = 400) -> dict:
    library = build_library(n_docs)
    desk = CirculationDesk(library)
    students = [f"student{i:02d}" for i in range(40)]
    events = AccessTraceGenerator(1999).generate_sessions(
        students, [f"doc{i}" for i in range(n_docs)],
        n_sessions=n_sessions, zipf_alpha=1.1,
    )
    for event_time, student, doc_id, action in events:
        if action == "check_out":
            desk.check_out(student, doc_id, event_time)
        else:
            desk.check_in(student, doc_id, event_time)
    report = assess(desk, library)
    ranked = report.ranking()
    return {
        "events": len(events),
        "students": len(ranked),
        "top": ranked[0],
        "bottom": ranked[-1],
    }


def experiment_rows() -> list[list]:
    rows = []
    for n_docs in (500, 2000, 5000):
        library = build_library(n_docs)
        timings = time_queries(library)
        for (axis, limit), (micros, hits) in timings.items():
            rows.append([
                n_docs, axis, "-" if limit is None else limit,
                f"{micros:.0f}", hits,
            ])
    return rows


def test_e9_all_axes_return_results():
    library = build_library(1000)
    assert library.search(keywords="multimedia")
    assert library.search(instructor="instructor7")
    assert library.search(course="C003")


def test_e9_search_stays_interactive():
    """Every axis answers within 50 ms even on a loaded machine (the
    printed table reports the tighter typical numbers)."""
    library = build_library(5000)
    timings = time_queries(library, repeats=50)
    assert all(micros < 50_000 for micros, _hits in timings.values())


def test_e9_assessment_ranking_reflects_engagement():
    outcome = run_term()
    assert outcome["top"].activity_score >= outcome["bottom"].activity_score
    assert outcome["top"].checkouts >= outcome["bottom"].checkouts


def test_e9_bench_search(benchmark):
    library = build_library(5000)
    benchmark(lambda: library.search(keywords="multimedia database"))


def test_e9_bench_term_replay(benchmark):
    benchmark(run_term, 500, 200)


def main() -> None:
    print_table(
        "E9a: search latency by axis and catalog size",
        ["docs", "query_axis", "limit", "latency_us", "hits"],
        experiment_rows(),
    )
    outcome = run_term()
    print_table(
        "E9b: term circulation and assessment",
        ["events", "students", "top_student", "top_score", "bottom_score"],
        [[
            outcome["events"],
            outcome["students"],
            outcome["top"].student,
            outcome["top"].activity_score,
            outcome["bottom"].activity_score,
        ]],
    )


if __name__ == "__main__":
    sys.exit(main())
