"""Tests for the configuration manager (check-in/out, versions).

A component is a registered file of a station: ``page`` is the one HTML
file of the ``course/`` implementation, locked at ``file:page``.
"""

import pytest

from repro.core import (
    CheckoutError,
    ConfigurationManager,
    ImplementationSCI,
    LockConflictError,
    LockMode,
    ScriptSCI,
    WebDocumentDatabase,
)
from repro.qa import FindingKind, LinkChecker, WebTraverser
from repro.storage.files import DocumentFile, FileKind


def _implementation(wddb, url, paths, author) -> None:
    wddb.add_implementation(
        ImplementationSCI(url, "course", author=author),
        html_files=[DocumentFile(path, FileKind.HTML, content)
                    for path, content in paths],
    )


@pytest.fixture
def station() -> WebDocumentDatabase:
    wddb = WebDocumentDatabase("station")
    wddb.create_document_database("mmu", author="shih")
    wddb.add_script(ScriptSCI("course", "mmu", author="shih"))
    _implementation(wddb, "course/", [("page", "v1 content")], "shih")
    return wddb


@pytest.fixture
def scm(station) -> ConfigurationManager:
    return station.scm


class TestVersioning:
    def test_initial_version(self, scm):
        record = scm.latest("page")
        assert record.version == 1 and record.content == "v1 content"

    def test_check_in_appends_version(self, scm):
        scm.check_out("shih", "page")
        record = scm.check_in("shih", "page", "v2 content", "edit")
        assert record.version == 2
        assert scm.latest("page").content == "v2 content"

    def test_history_preserved(self, scm):
        scm.check_out("shih", "page")
        scm.check_in("shih", "page", "v2", "second")
        scm.check_out("ma", "page")
        scm.check_in("ma", "page", "v3", "third")
        history = scm.history("page")
        assert [(r.version, r.author) for r in history] == [
            (1, "shih"), (2, "shih"), (3, "ma"),
        ]

    def test_fetch_specific_version(self, scm):
        scm.check_out("shih", "page")
        scm.check_in("shih", "page", "v2")
        assert scm.version("page", 1).content == "v1 content"
        with pytest.raises(LookupError):
            scm.version("page", 9)

    def test_duplicate_component_rejected(self, station):
        with pytest.raises(ValueError):
            _implementation(station, "other/", [("page", "x")], "shih")

    def test_unknown_component(self, scm):
        with pytest.raises(LookupError):
            scm.latest("ghost")


class TestCheckoutProtocol:
    def test_check_out_returns_working_copy(self, scm):
        assert scm.check_out("shih", "page") == "v1 content"
        assert scm.is_checked_out("page")
        assert scm.checked_out_by("page") == "shih"

    def test_double_checkout_rejected(self, scm):
        scm.check_out("shih", "page")
        with pytest.raises(CheckoutError, match="already checked out"):
            scm.check_out("ma", "page")

    def test_checkin_by_wrong_user_rejected(self, scm):
        scm.check_out("shih", "page")
        with pytest.raises(CheckoutError, match="not checked out by ma"):
            scm.check_in("ma", "page", "x")

    def test_checkin_without_checkout_rejected(self, scm):
        with pytest.raises(CheckoutError):
            scm.check_in("shih", "page", "x")

    def test_checkout_takes_write_lock(self, scm):
        scm.check_out("shih", "page")
        with pytest.raises(LockConflictError):
            scm.locks.acquire("ma", "file:page", LockMode.READ)

    def test_checkin_releases_lock(self, scm):
        scm.check_out("shih", "page")
        scm.check_in("shih", "page", "v2")
        scm.locks.acquire("ma", "file:page", LockMode.WRITE)  # now free

    def test_cancel_checkout(self, scm):
        scm.check_out("shih", "page")
        scm.cancel_checkout("shih", "page")
        assert not scm.is_checked_out("page")
        assert scm.latest("page").version == 1  # no version created
        scm.check_out("ma", "page")  # lock released

    def test_cancel_by_wrong_user(self, scm):
        scm.check_out("shih", "page")
        with pytest.raises(CheckoutError):
            scm.cancel_checkout("ma", "page")

    def test_counters(self, scm):
        scm.check_out("shih", "page")
        scm.check_in("shih", "page", "v2")
        assert scm.checkouts == 1 and scm.checkins == 1


class TestLockTreeIntegration:
    def test_container_lock_blocks_component_checkout(self, scm):
        """A write lock on the course blocks checking out its page."""
        scm.locks.acquire("admin", "impl:course/", LockMode.WRITE)
        with pytest.raises(LockConflictError):
            scm.check_out("shih", "page")

    def test_component_registered_in_tree(self, scm):
        assert "file:page" in scm.locks.tree
        assert scm.locks.tree.parent("file:page") == "impl:course/"

    def test_components_listing(self, scm, station):
        _implementation(station, "course2/", [("page2", "x")], "ma")
        assert scm.components() == ["page", "page2"]


class TestCheckInKeepsTheRegistry:
    def test_checked_in_file_is_consistent(self, wddb, course):
        """A legitimate edit is no 'inconsistency': the check-in writes
        the registry row's size and checksum with the file."""
        path = "cs101/p1.html"
        wddb.scm.check_out("shih", path)
        wddb.scm.check_in("shih", path, "<html>revised</html>", "edit")
        traversal = WebTraverser(wddb.files).traverse(course)
        findings = LinkChecker(wddb).check(course, traversal)
        assert FindingKind.INCONSISTENCY not in {f.kind for f in findings}
        document = wddb.files.read(path)
        entry = wddb.engine.get("html_files", path)
        assert document.content == "<html>revised</html>"
        assert (entry["size_bytes"], entry["checksum"]) == (
            document.size, document.checksum,
        )

    def test_a_path_registered_again_starts_a_new_chain(self, scm, station):
        scm.check_out("shih", "page")
        scm.check_in("shih", "page", "v2 content")
        station.delete_implementation("course/")
        _implementation(station, "again/", [("page", "fresh")], "ma")
        assert [(r.version, r.author) for r in scm.history("page")] == [
            (1, "ma"),
        ]
        assert scm.check_out("ma", "page") == "fresh"
