"""Integration tests spanning the core DB, QA, library and tiers."""

import pytest

from repro.core import ScriptSCI, WebDocumentDatabase
from repro.qa import QARunner
from repro.tiers import (
    AdministratorClient,
    ClassAdministrator,
    InstructorClient,
    StudentClient,
)
from repro.workloads import AccessTraceGenerator, CourseGenerator


class TestAuthoringToLibraryFlow:
    def test_course_authored_qad_published_and_circulated(self):
        """The paper's full document lifecycle in one pass."""
        wddb = WebDocumentDatabase("server")
        wddb.create_document_database("mmu", author="consortium")
        generator = CourseGenerator(seed=21, reuse_probability=0.4)
        courses = generator.generate_corpus(wddb, "mmu", 6)

        # QA every course; clean generation must pass.
        runner = QARunner(wddb, "qa-eng")
        outcomes = [
            runner.run(c.implementation.starting_url) for c in courses
        ]
        assert all(o.passed for o in outcomes)
        assert wddb.engine.count("test_records") == 6

        # Publish through the middle tier and run a term.
        server = ClassAdministrator()
        admin = AdministratorClient(server, "registrar")
        admin.login()
        instructor = InstructorClient(server, "shih")
        instructor.login()
        doc_ids = []
        for course in courses:
            instructor.register_course(
                course.script.script_name, course.script.description
            )
            doc_id = f"lib-{course.script.script_name}"
            instructor.publish(
                doc_id,
                course.script.description,
                course.script.script_name,
                keywords=tuple(course.script.keywords),
                starting_url=course.implementation.starting_url,
            )
            doc_ids.append(doc_id)

        students = ["s1", "s2", "s3", "s4"]
        clients = {}
        for student in students:
            admin.admit_student(student)
            clients[student] = StudentClient(server, student)
            clients[student].login()

        events = AccessTraceGenerator(77).generate_sessions(
            students, doc_ids, n_sessions=40
        )
        for time, student, doc_id, action in events:
            if action == "check_out":
                clients[student].check_out(doc_id, time=time)
            else:
                clients[student].check_in(doc_id, time=time)

        report = instructor.assessment_report()
        assert len(report) == len(
            {student for _t, student, _d, _a in events}
        )
        scores = [row["activity_score"] for row in report]
        assert scores == sorted(scores, reverse=True)


class TestIntegrityAcrossSubsystems:
    def test_script_edit_alerts_after_qa(self, wddb, course):
        QARunner(wddb, "qa").run(course.starting_url)
        wddb.update_script("cs101", {"percent_complete": 90.0})
        alerts = wddb.alerts.drain()
        # the fresh test record participates in the cascade
        assert any(a.dst_table == "test_records" for a in alerts)

    def test_deleting_course_cleans_every_table(self, wddb, course):
        QARunner(wddb, "qa").run(course.starting_url)
        wddb.delete_script("cs101")
        for table in ("implementations", "test_records", "bug_reports"):
            assert wddb.engine.count(table) == 0


class TestConcurrentAuthoringAndLibrary:
    def test_locked_course_still_searchable(self):
        """Locks protect editing, not reading through the library."""
        from repro.core import LockMode
        from repro.library import CatalogEntry, VirtualLibrary

        wddb = WebDocumentDatabase("server")
        wddb.create_document_database("mmu", author="x")
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih",
                                  keywords=["locked"]))
        wddb.locks.acquire("shih", "script:cs1", LockMode.WRITE)
        library = VirtualLibrary(instructors={"shih"})
        library.add_document("shih", CatalogEntry(
            doc_id="d1", title="Locked course", course_number="CS1",
            instructor="shih", keywords=("locked",),
        ))
        assert library.search(keywords="locked")
        assert wddb.search_scripts(keyword="locked")
