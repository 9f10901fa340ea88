"""Tests for the WebDocumentDatabase facade."""

import pytest

from repro.core import (
    AnnotationSCI,
    BugReportSCI,
    ImplementationSCI,
    LockMode,
    ScriptSCI,
    TestRecordSCI,
    WebDocumentDatabase,
)
from repro.rdb import ConstraintError, ForeignKeyError
from repro.storage.blob import BlobKind
from repro.storage.files import DocumentFile, FileKind


class TestDatabaseLayer:
    def test_create_and_list(self, wddb):
        wddb.create_document_database("second", author="ma")
        names = [d.db_name for d in wddb.document_databases()]
        assert names == ["mmu", "second"]

    def test_duplicate_database_rejected(self, wddb):
        with pytest.raises(ConstraintError):
            wddb.create_document_database("mmu", author="x")


class TestScripts:
    def test_add_and_fetch(self, wddb):
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih"))
        assert wddb.script("cs1").author == "shih"
        assert wddb.script("ghost") is None

    def test_script_requires_existing_database(self, wddb):
        with pytest.raises(ForeignKeyError):
            wddb.add_script(ScriptSCI("cs1", "nodb", author="shih"))

    def test_scripts_in_database(self, wddb):
        wddb.add_script(ScriptSCI("b", "mmu", author="x"))
        wddb.add_script(ScriptSCI("a", "mmu", author="x"))
        assert [s.script_name for s in wddb.scripts_in("mmu")] == ["a", "b"]

    def test_update_bumps_version(self, wddb):
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih"))
        wddb.update_script("cs1", {"description": "new"})
        script = wddb.script("cs1")
        assert script.version == 2 and script.description == "new"

    def test_update_missing_returns_false(self, wddb):
        assert wddb.update_script("ghost", {}) is False

    def test_search_by_keyword_and_author(self, wddb):
        wddb.add_script(ScriptSCI("a", "mmu", author="shih",
                                  keywords=["intro", "video"]))
        wddb.add_script(ScriptSCI("b", "mmu", author="ma",
                                  keywords=["intro"]))
        assert len(wddb.search_scripts(keyword="intro")) == 2
        assert len(wddb.search_scripts(keyword="video")) == 1
        assert len(wddb.search_scripts(author="ma")) == 1
        both = wddb.search_scripts(keyword="intro", author="shih")
        assert [s.script_name for s in both] == ["a"]


class TestImplementations:
    def test_requires_html_file(self, wddb):
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih"))
        with pytest.raises(ValueError, match="at least one HTML"):
            wddb.add_implementation(
                ImplementationSCI("http://x/", "cs1", author="shih"),
                html_files=[],
            )

    def test_html_kind_enforced(self, wddb):
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih"))
        with pytest.raises(ValueError, match="not an HTML file"):
            wddb.add_implementation(
                ImplementationSCI("http://x/", "cs1", author="shih"),
                html_files=[DocumentFile("a.class", FileKind.PROGRAM, "x")],
            )

    def test_files_registered_and_stored(self, wddb, course):
        assert wddb.files.exists("cs101/index.html")
        assert wddb.engine.get("html_files", "cs101/index.html") is not None
        assert wddb.engine.get("program_files", "cs101/quiz.class") is not None

    def test_unregistered_multimedia_rejected(self, wddb):
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih"))
        with pytest.raises(LookupError, match="not registered"):
            wddb.add_implementation(
                ImplementationSCI("http://x/", "cs1", author="shih",
                                  multimedia=["nodigest"]),
                html_files=[DocumentFile("a.html", FileKind.HTML, "x")],
            )

    def test_unknown_blob_writes_nothing(self, wddb):
        wddb.add_script(ScriptSCI("cs1", "mmu", author="shih"))
        with pytest.raises(LookupError, match="not registered"):
            wddb.add_implementation(
                ImplementationSCI("http://x/", "cs1", author="shih",
                                  multimedia=["nodigest"]),
                html_files=[DocumentFile("a.html", FileKind.HTML, "x")],
            )
        assert wddb.implementation("http://x/") is None
        assert wddb.engine.count("html_files") == 0
        assert not wddb.files.exists("a.html")
        assert "impl:http://x/" not in wddb.tree
        assert "file:a.html" not in wddb.tree

    def test_path_of_another_implementation_refused(self, wddb, course):
        before = wddb.files.read("cs101/p1.html").content
        with pytest.raises(ValueError, match="already belongs"):
            wddb.add_implementation(
                ImplementationSCI("http://mmu/cs101/v2/", "cs101",
                                  author="shih"),
                html_files=[
                    DocumentFile("cs101/p1.html", FileKind.HTML, "B")
                ],
            )
        assert wddb.files.read("cs101/p1.html").content == before
        assert wddb.implementation("http://mmu/cs101/v2/") is None
        assert "impl:http://mmu/cs101/v2/" not in wddb.tree
        row = wddb.engine.get("html_files", "cs101/p1.html")
        assert row["starting_url"] == course.starting_url

    def test_path_freed_by_a_delete_is_taken_over(self, wddb, course):
        wddb.delete_implementation(course.starting_url)
        assert "file:cs101/p1.html" not in wddb.tree
        wddb.add_implementation(
            ImplementationSCI("http://mmu/cs101/v2/", "cs101", author="shih"),
            html_files=[DocumentFile("cs101/p1.html", FileKind.HTML, "B")],
        )
        row = wddb.engine.get("html_files", "cs101/p1.html")
        assert row["starting_url"] == "http://mmu/cs101/v2/"
        assert row["checksum"] == DocumentFile(
            "cs101/p1.html", FileKind.HTML, "B"
        ).checksum
        assert wddb.tree.parent("file:cs101/p1.html") == (
            "impl:http://mmu/cs101/v2/"
        )

    def test_implementations_of(self, wddb, course):
        impls = wddb.implementations_of("cs101")
        assert [i.starting_url for i in impls] == ["http://mmu/cs101/"]

    def test_delete_implementation_releases_blobs(self, wddb, course):
        digest = course.multimedia[0]
        blobs = wddb.station.blobs
        assert f"impl:{course.starting_url}" in blobs.owners_of(digest)
        wddb.delete_implementation(course.starting_url)
        # the station's holding keeps the blob; impl owner released
        assert digest in blobs
        assert f"impl:{course.starting_url}" not in blobs.owners_of(digest)


class TestBlobLayer:
    def test_register_dedups(self, wddb):
        d1 = wddb.register_blob("x.mpg", 100, BlobKind.VIDEO)
        d2 = wddb.register_blob("x.mpg", 100, BlobKind.VIDEO)
        assert d1 == d2
        assert wddb.engine.count("blobs") == 1

    def test_blob_info(self, wddb):
        digest = wddb.register_blob("x.mpg", 100, BlobKind.VIDEO)
        info = wddb.blob_info(digest)
        assert info["kind"] == "video" and info["size_bytes"] == 100


class TestDependentObjects:
    def test_test_record_and_bug_report_chain(self, wddb, course):
        wddb.add_test_record(
            TestRecordSCI("tr1", "cs101", course.starting_url)
        )
        wddb.add_bug_report(
            BugReportSCI("bug1", "tr1", qa_engineer="ma")
        )
        assert len(wddb.test_records_of(course.starting_url)) == 1
        assert len(wddb.bug_reports_of("tr1")) == 1

    def test_annotation_file_kind_enforced(self, wddb, course):
        with pytest.raises(ValueError, match="not an annotation"):
            wddb.add_annotation(
                AnnotationSCI("ann1", "huang", "cs101",
                              course.starting_url, annotation_file=None),
                DocumentFile("a.html", FileKind.HTML, "x"),
            )

    def test_refused_annotation_writes_nothing(self, wddb, course):
        wddb.add_annotation(
            AnnotationSCI("ann1", "huang", "cs101", course.starting_url,
                          annotation_file=None),
            DocumentFile("notes.json", FileKind.ANNOTATION, "first"),
        )
        with pytest.raises(ValueError, match="already belongs"):
            wddb.add_annotation(
                AnnotationSCI("ann1", "ma", "cs101", course.starting_url,
                              annotation_file=None),
                DocumentFile("notes.json", FileKind.ANNOTATION, "second"),
            )
        assert wddb.files.read("notes.json").content == "first"
        with pytest.raises(ConstraintError):
            wddb.add_annotation(
                AnnotationSCI("ann1", "ma", "cs101", course.starting_url,
                              annotation_file=None),
                DocumentFile("other.json", FileKind.ANNOTATION, "second"),
            )
        assert not wddb.files.exists("other.json")
        with pytest.raises(ForeignKeyError):
            wddb.add_annotation(
                AnnotationSCI("ann2", "ma", "cs101", "http://ghost/",
                              annotation_file=None),
                DocumentFile("ghost.json", FileKind.ANNOTATION, "x"),
            )
        assert not wddb.files.exists("ghost.json")
        assert wddb.engine.get("annotation_files", "ghost.json") is None
        assert "ann:ann2" not in wddb.tree

    def test_annotations_by_author(self, wddb, course):
        for author in ("huang", "ma"):
            wddb.add_annotation(
                AnnotationSCI(f"ann-{author}", author, "cs101",
                              course.starting_url, annotation_file=None),
                DocumentFile(f"{author}.json", FileKind.ANNOTATION, "{}"),
            )
        assert len(wddb.annotations_of(course.starting_url)) == 2
        assert [a.annotation_name for a in wddb.annotations_by("ma")] == [
            "ann-ma"
        ]


class TestCascadingDeletes:
    def test_delete_script_removes_everything(self, wddb, course):
        wddb.add_test_record(TestRecordSCI("tr1", "cs101", course.starting_url))
        wddb.add_bug_report(BugReportSCI("bug1", "tr1", qa_engineer="ma"))
        wddb.add_annotation(
            AnnotationSCI("ann1", "huang", "cs101", course.starting_url,
                          annotation_file=None),
            DocumentFile("ann1.json", FileKind.ANNOTATION, "{}"),
        )
        assert wddb.delete_script("cs101") is True
        for table in ("implementations", "test_records", "bug_reports",
                      "annotations"):
            assert wddb.engine.count(table) == 0

    @pytest.mark.parametrize("delete", ["script", "implementation"])
    def test_a_deleted_implementation_leaves_no_file_behind(
        self, wddb, course, delete
    ):
        """Its registered files, their content and their version chains
        go in the same transaction as its row."""
        wddb.scm.check_out("shih", "cs101/p1.html")
        wddb.scm.check_in("shih", "cs101/p1.html", "<html>v2</html>")
        wddb.add_annotation(
            AnnotationSCI("ann1", "huang", "cs101", course.starting_url,
                          annotation_file=None),
            DocumentFile("ann1.json", FileKind.ANNOTATION, "{}"),
        )
        if delete == "script":
            assert wddb.delete_script("cs101") is True
        else:
            assert wddb.delete_implementation(course.starting_url) is True
        for table in ("files", "html_files", "program_files",
                      "annotation_files", "versions"):
            assert wddb.engine.count(table) == 0, table
        assert len(wddb.files) == 0 and wddb.scm.components() == []

    def test_delete_script_missing_returns_false(self, wddb):
        assert wddb.delete_script("ghost") is False

    def test_delete_script_releases_blob_references(self, wddb, course):
        digest = course.multimedia[0]
        wddb.delete_script("cs101")
        label = wddb.blob_info(digest)["label"]
        assert wddb.station.blobs.owners_of(digest) == {f"replica:{label}"}

    def test_component_leaves_the_tree_with_its_container(self, wddb, course):
        page = "file:cs101/index.html"  # a component is a registered file
        assert "cs101/index.html" in wddb.scm.components()
        assert list(wddb.tree.ancestors(page))[-1] == wddb.tree.root
        wddb.delete_implementation(course.starting_url)
        assert page not in wddb.tree
        assert "cs101/index.html" not in wddb.scm.components()

    def test_lock_tree_pruned_after_delete(self, wddb, course):
        assert f"impl:{course.starting_url}" in wddb.tree
        wddb.delete_script("cs101")
        assert f"impl:{course.starting_url}" not in wddb.tree
        assert "script:cs101" not in wddb.tree


class TestRenameCascade:
    def test_script_rename_cascades_to_children(self, wddb, course):
        wddb.add_test_record(TestRecordSCI("tr1", "cs101", course.starting_url))
        wddb.engine.update_pk("scripts", "cs101", {"script_name": "cs101v2"})
        assert wddb.implementation(course.starting_url).script_name == "cs101v2"
        records = wddb.test_records_of(course.starting_url)
        assert records[0].script_name == "cs101v2"

    def test_renamed_script_keeps_its_lock_tree(self, wddb, course):
        wddb.update_script("cs101", {"script_name": "renamed"})
        wddb.locks.acquire("shih", "script:renamed", LockMode.WRITE)
        assert "script:cs101" not in wddb.tree
        assert wddb.tree.parent(f"impl:{course.starting_url}") == (
            "script:renamed"
        )
        assert not wddb.locks.can_acquire(
            "huang", "file:cs101/index.html", LockMode.READ
        )
        wddb.locks.release("shih", "script:renamed")
        wddb.delete_script("renamed")
        assert "script:renamed" not in wddb.tree
        assert "script:cs101" not in wddb.tree


class TestStats:
    def test_stats_shape(self, wddb, course):
        stats = wddb.stats()
        assert stats["station"] == "teststation"
        assert stats["tables"]["scripts"] == 1
        assert stats["blob_stats"]["blobs"] == 1
