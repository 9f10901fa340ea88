"""Tests for the synthetic course generator."""

import pytest

from repro.core import WebDocumentDatabase
from repro.qa import QARunner, WebTraverser
from repro.workloads import CourseGenerator


@pytest.fixture
def fresh_db() -> WebDocumentDatabase:
    db = WebDocumentDatabase("gen")
    db.create_document_database("mmu", author="gen")
    return db


class TestGeneration:
    def test_course_inserted_into_db(self, fresh_db):
        course = CourseGenerator(seed=1).generate_course(fresh_db, "mmu")
        assert fresh_db.script(course.script.script_name) is not None
        assert fresh_db.implementation(
            course.implementation.starting_url
        ) is not None

    def test_deterministic_for_seed(self):
        def corpus(seed):
            db = WebDocumentDatabase("g")
            db.create_document_database("mmu", author="g")
            courses = CourseGenerator(seed=seed).generate_corpus(db, "mmu", 3)
            return [
                (c.script.script_name, c.media, len(c.pages))
                for c in courses
            ]

        assert corpus(5) == corpus(5)
        assert corpus(5) != corpus(6)

    def test_page_count_honoured(self, fresh_db):
        generator = CourseGenerator(seed=2, pages_per_course=12)
        course = generator.generate_course(fresh_db, "mmu")
        assert len(course.pages) == 12

    def test_media_count_honoured(self, fresh_db):
        generator = CourseGenerator(seed=2, media_per_course=7)
        course = generator.generate_course(fresh_db, "mmu")
        assert len(course.media) == 7
        assert course.media_bytes > 0

    def test_clean_course_passes_qa(self, fresh_db):
        generator = CourseGenerator(seed=3)
        course = generator.generate_course(fresh_db, "mmu")
        outcome = QARunner(fresh_db, "qa").run(
            course.implementation.starting_url
        )
        assert outcome.passed, [f.detail for f in outcome.findings]

    def test_all_pages_reachable_without_orphans(self, fresh_db):
        generator = CourseGenerator(seed=4, pages_per_course=10)
        course = generator.generate_course(fresh_db, "mmu")
        traversal = WebTraverser(fresh_db.files).traverse(
            course.implementation
        )
        assert set(traversal.visited_pages) == {p.path for p in course.pages}


class TestDefectInjection:
    def test_broken_links_detected(self, fresh_db):
        generator = CourseGenerator(seed=5)
        course = generator.generate_course(
            fresh_db, "mmu", broken_link_rate=1.0
        )
        outcome = QARunner(fresh_db, "qa").run(
            course.implementation.starting_url
        )
        assert outcome.bug_report is not None
        assert outcome.bug_report.bad_urls

    def test_orphans_detected(self, fresh_db):
        generator = CourseGenerator(seed=6, pages_per_course=10)
        course = generator.generate_course(
            fresh_db, "mmu", orphan_page_rate=0.9
        )
        outcome = QARunner(fresh_db, "qa").run(
            course.implementation.starting_url
        )
        assert outcome.bug_report is not None
        assert outcome.bug_report.redundant_objects


class TestReuse:
    def test_reuse_probability_shares_blobs(self):
        def sharing(reuse):
            db = WebDocumentDatabase("g")
            db.create_document_database("mmu", author="g")
            CourseGenerator(seed=7, reuse_probability=reuse).generate_corpus(
                db, "mmu", 20
            )
            return db.station.blobs.sharing_factor

        # Even at reuse=0 the factor exceeds 1 (library + implementation
        # each hold a reference); what matters is that cross-course reuse
        # drives it up further.
        assert sharing(0.8) > sharing(0.0) * 1.2

    def test_unique_course_names(self, fresh_db):
        courses = CourseGenerator(seed=8).generate_corpus(fresh_db, "mmu", 10)
        names = [c.script.script_name for c in courses]
        assert len(set(names)) == 10
