"""Tests for compound duplication and a durable station's reopen.

Every station here is durable (``data_dir``): "save" is a checkpoint
and closing the journal, "load" is opening the same directory again.
"""

import datetime as dt

import pytest

from repro.core import (
    ImplementationSCI,
    LockMode,
    ScriptSCI,
    TestRecordSCI,
    WebDocumentDatabase,
)
from repro.qa import QARunner
from repro.storage.files import DocumentFile, FileKind


@pytest.fixture
def wddb(tmp_path) -> WebDocumentDatabase:
    """The shared fixture's station, kept in ``tmp_path / "state"``."""
    database = WebDocumentDatabase("teststation", data_dir=tmp_path / "state")
    database.create_document_database(
        "mmu", author="shih", keywords=["test"],
        created_at=dt.datetime(1999, 6, 1),
    )
    return database


def _reopen(wddb, tmp_path, station="teststation", **kwargs):
    """Checkpoint and close ``wddb``, then open its directory again."""
    wddb.checkpoint()
    wddb.engine.journal.close()
    return WebDocumentDatabase(station, data_dir=tmp_path / "state", **kwargs)


class TestDuplicateCourse:
    def test_duplicate_creates_new_compound(self, wddb, course):
        copy = wddb.duplicate_course("cs101", "cs101-spring")
        assert copy.script_name == "cs101-spring"
        impls = wddb.implementations_of("cs101-spring")
        assert len(impls) == 1
        # original untouched
        assert len(wddb.implementations_of("cs101")) == 1

    def test_small_files_copied_links_rewritten(self, wddb, course):
        wddb.duplicate_course("cs101", "copy")
        duplicated = wddb.implementations_of("copy")[0]
        paths = [fd.path for fd in duplicated.html_files]
        assert all(path.startswith("copy/") for path in paths)
        index = wddb.files.read("copy/cs101/index.html")
        # internal link rewritten to the copied page
        assert "copy/cs101/p1.html" in index.content

    def test_blobs_shared_not_copied(self, wddb, course):
        physical_before = wddb.station.blobs.physical_bytes
        wddb.duplicate_course("cs101", "copy")
        assert wddb.station.blobs.physical_bytes == physical_before
        duplicated = wddb.implementations_of("copy")[0]
        assert duplicated.multimedia == course.multimedia
        # the copy took its own reference
        owners = wddb.station.blobs.owners_of(course.multimedia[0])
        assert any(owner.startswith("impl:") and "copy" in owner
                   for owner in owners)

    def test_modifications_applied(self, wddb, course):
        copy = wddb.duplicate_course(
            "cs101", "copy",
            author="huang",
            modifications={"description": "spring edition"},
        )
        assert copy.author == "huang"
        assert wddb.script("copy").description == "spring edition"
        assert wddb.script("copy").version == 1

    def test_duplicate_passes_qa(self, wddb, course):
        wddb.duplicate_course("cs101", "copy")
        outcome = QARunner(wddb, "qa").run(
            wddb.implementations_of("copy")[0].starting_url
        )
        assert outcome.passed, [f.detail for f in outcome.findings]

    def test_unknown_source_rejected(self, wddb):
        with pytest.raises(LookupError):
            wddb.duplicate_course("ghost", "copy")

    @pytest.mark.parametrize("taken", ["url", "path"])
    def test_refused_duplicate_writes_nothing(self, wddb, course, taken):
        wddb.add_script(ScriptSCI("other", "mmu", author="ma"))
        wddb.add_implementation(
            ImplementationSCI(
                f"{course.starting_url}copy/" if taken == "url" else "u",
                "other", author="ma",
            ),
            html_files=[DocumentFile(
                "x.html" if taken == "url" else "copy/cs101/p1.html",
                FileKind.HTML, "mine",
            )],
        )
        before = wddb.engine.stats()["statements"]
        with pytest.raises(ValueError, match="already"):
            wddb.duplicate_course("cs101", "copy")
        assert wddb.engine.stats()["statements"] == before
        assert wddb.script("copy") is None
        assert not wddb.files.exists("copy/cs101/index.html")

    def test_existing_target_rejected(self, wddb, course):
        with pytest.raises(ValueError, match="already exists"):
            wddb.duplicate_course("cs101", "cs101")

    def _course_with_links(self, wddb, index_html):
        wddb.add_script(ScriptSCI("c", "mmu", author="ma"))
        wddb.add_implementation(
            ImplementationSCI("http://mmu/c/", "c", author="ma"),
            html_files=[
                DocumentFile("index.html", FileKind.HTML, index_html),
                DocumentFile("sub/index.html", FileKind.HTML, "<html/>"),
            ],
            program_files=[
                DocumentFile("c/ctl.class", FileKind.PROGRAM, "ctl")
            ],
        )
        wddb.duplicate_course("c", "d")
        return wddb.files.read("d/index.html").content

    def test_links_rewritten_by_exact_target(self, wddb):
        copied = self._course_with_links(
            wddb,
            '<a href="sub/index.html">s</a><a href="../index.html">up</a>'
            '<img src="cs101/lec.mpg">',
        )
        assert copied == (
            '<a href="d/sub/index.html">s</a><a href="../index.html">up</a>'
            '<img src="cs101/lec.mpg">'
        )

    def test_program_invocations_rewritten_to_the_copy(self, wddb):
        copied = self._course_with_links(
            wddb, '<applet code="c/ctl.class"></applet>'
        )
        assert copied == '<applet code="d/c/ctl.class"></applet>'
        assert wddb.files.read("d/c/ctl.class").content == "ctl"

    def test_renaming_modification_refused_before_writing(self, wddb, course):
        before = wddb.engine.stats()["statements"]
        with pytest.raises(ValueError, match="new_script_name"):
            wddb.duplicate_course(
                "cs101", "copy", modifications={"script_name": "zz"}
            )
        assert wddb.engine.stats()["statements"] == before
        assert wddb.script("zz") is None and wddb.script("copy") is None

    def test_template_blob_kept_once_across_save_load(
        self, wddb, course, tmp_path
    ):
        n = 4
        for index in range(n):
            wddb.duplicate_course("cs101", f"section{index}")
        video = course.multimedia[0]

        def assert_shared(db):
            # the library, the template and each section own it
            assert len(db.station.blobs.owners_of(video)) == n + 2
            assert db.station.blobs.physical_bytes == 1_000_000

        assert_shared(wddb)
        assert_shared(_reopen(wddb, tmp_path))


class TestSaveLoad:
    def _populate(self, wddb, course):
        wddb.add_test_record(
            TestRecordSCI("tr1", "cs101", course.starting_url)
        )
        wddb.add_script(ScriptSCI("other", "mmu", author="ma"))
        return wddb

    def test_roundtrip_preserves_rows(self, wddb, course, tmp_path):
        self._populate(wddb, course)
        loaded = _reopen(wddb, tmp_path, "restored")
        assert loaded.script("cs101").author == "shih"
        assert loaded.script("other") is not None
        assert len(loaded.implementations_of("cs101")) == 1
        assert len(loaded.test_records_of(course.starting_url)) == 1

    def test_roundtrip_preserves_files(self, wddb, course, tmp_path):
        loaded = _reopen(wddb, tmp_path, "local")
        original = wddb.files.read("cs101/index.html")
        restored = loaded.files.read("cs101/index.html")
        assert restored.content == original.content
        assert restored.checksum == original.checksum

    def test_roundtrip_rebuilds_blob_store(self, wddb, course, tmp_path):
        loaded = _reopen(wddb, tmp_path, "local")
        digest = course.multimedia[0]
        assert digest in loaded.station.blobs
        assert f"impl:{course.starting_url}" in loaded.station.blobs.owners_of(digest)
        assert loaded.station.blobs.physical_bytes == wddb.station.blobs.physical_bytes

    def test_roundtrip_loads_only_held_blobs(self, wddb, course, tmp_path):
        # A registry row whose bytes stay on another station.
        wddb.engine.insert("blobs", {"digest": "remote", "kind": "video",
                                     "size_bytes": 5_000_000,
                                     "label": "remote.mpg"})
        loaded = _reopen(wddb, tmp_path, "local")
        assert "remote" not in loaded.station.blobs
        assert loaded.blob_info("remote") is not None
        assert loaded.station.blobs.physical_bytes == wddb.station.blobs.physical_bytes
        assert sorted(b.digest for b in loaded.station.blobs.blobs()) == sorted(
            b.digest for b in wddb.station.blobs.blobs()
        )

    def test_roundtrip_rebuilds_lock_tree(self, wddb, course, tmp_path):
        self._populate(wddb, course)
        loaded = _reopen(wddb, tmp_path, "local")
        assert f"impl:{course.starting_url}" in loaded.tree
        assert "test:tr1" in loaded.tree
        # locking still works on the restored hierarchy
        loaded.locks.acquire("shih", "script:cs101", LockMode.WRITE)

    def test_loaded_db_is_fully_operational(self, wddb, course, tmp_path):
        loaded = _reopen(wddb, tmp_path, "local")
        loaded.update_script("cs101", {"percent_complete": 99.0})
        alerts = loaded.alerts.drain()
        assert alerts  # integrity engine reattached and firing
        outcome = QARunner(loaded, "qa").run(course.starting_url)
        assert outcome.passed

    def test_load_without_integrity(self, wddb, course, tmp_path):
        loaded = _reopen(wddb, tmp_path, "local", with_integrity=False)
        assert loaded.alerts is None

    def test_reopening_writes_no_frame(self, wddb, course, tmp_path):
        """Re-taking the held BLOBs and their references on open reads
        the rows and appends nothing to the journal."""
        wddb.engine.journal.close()
        wal = tmp_path / "state" / "wddb.wal"
        before = wal.read_bytes()
        reopened = WebDocumentDatabase("teststation", data_dir=tmp_path / "state")
        assert course.multimedia[0] in reopened.station.blobs
        reopened.engine.journal.close()
        assert wal.read_bytes() == before
