"""Tests for the virtual library catalog."""

import pytest

from repro.library import CatalogEntry, VirtualLibrary
from repro.library.catalog import PermissionError_


@pytest.fixture
def library() -> VirtualLibrary:
    lib = VirtualLibrary(instructors={"shih"})
    lib.add_document("shih", CatalogEntry(
        doc_id="cs101-l1", title="CS101 Lecture 1", course_number="CS101",
        instructor="shih", keywords=("intro",),
    ))
    return lib


class TestPrivileges:
    def test_instructor_can_publish(self, library):
        library.add_document("shih", CatalogEntry(
            doc_id="cs101-l2", title="Lecture 2", course_number="CS101",
            instructor="shih",
        ))
        assert len(library) == 2

    def test_student_cannot_publish(self, library):
        with pytest.raises(PermissionError_):
            library.add_document("alice", CatalogEntry(
                doc_id="x", title="t", course_number="C", instructor="alice",
            ))

    def test_student_cannot_remove(self, library):
        with pytest.raises(PermissionError_):
            library.remove_document("alice", "cs101-l1")

    def test_grant_instructor(self, library):
        library.grant_instructor("ma")
        library.add_document("ma", CatalogEntry(
            doc_id="mm1", title="MM", course_number="MM201", instructor="ma",
        ))
        assert "mm1" in library


class TestCatalogOperations:
    def test_duplicate_doc_rejected(self, library):
        with pytest.raises(ValueError):
            library.add_document("shih", CatalogEntry(
                doc_id="cs101-l1", title="dup", course_number="CS101",
                instructor="shih",
            ))

    @pytest.mark.parametrize("bad", [
        {"keywords": (1,)}, {"course_number": 101}, {"title": None},
    ], ids=["keyword-int", "course-number-int", "title-none"])
    def test_entry_the_index_refuses_is_not_stored(self, library, bad):
        fields = dict(doc_id="x", title="Video notes", course_number="MM1",
                      instructor="shih", keywords=("video",))
        with pytest.raises((AttributeError, TypeError)):
            library.add_document("shih", CatalogEntry(**{**fields, **bad}))
        assert "x" not in library and len(library) == 1
        # No posting kept the id either.
        assert library.search(keywords="video") == []
        assert [h.doc_id for h in library.search(instructor="shih")] == [
            "cs101-l1"
        ]
        library.add_document("shih", CatalogEntry(**fields))
        assert [h.doc_id for h in library.search(keywords="video")] == ["x"]

    def test_remove_returns_flag(self, library):
        assert library.remove_document("shih", "cs101-l1") is True
        assert library.remove_document("shih", "cs101-l1") is False
        assert len(library) == 0

    def test_get_and_contains(self, library):
        assert library.get("cs101-l1").title == "CS101 Lecture 1"
        assert library.get("ghost") is None
        assert "cs101-l1" in library

    def test_entries_iteration(self, library):
        assert [e.doc_id for e in library.entries()] == ["cs101-l1"]


class TestSearchThroughCatalog:
    def test_search_reflects_additions(self, library):
        assert [h.doc_id for h in library.search(keywords="intro")] == [
            "cs101-l1"
        ]

    def test_search_reflects_removal(self, library):
        library.remove_document("shih", "cs101-l1")
        assert library.search(keywords="intro") == []

    def test_search_by_course(self, library):
        assert [h.doc_id for h in library.search(course="CS101")] == [
            "cs101-l1"
        ]
