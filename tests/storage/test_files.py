"""Tests for the document file store."""

import pytest

from repro.core.schema import FILES
from repro.rdb import Database
from repro.storage.files import DocumentFile, FileDescriptor, FileKind, FileStore


def _store(station: str = "local") -> FileStore:
    """A file store over a database holding only the ``files`` table."""
    engine = Database(station)
    engine.create_table(FILES)
    return FileStore(engine, station)


class TestDocumentFile:
    def test_size_is_utf8_bytes(self):
        assert DocumentFile("p", FileKind.HTML, "abc").size == 3
        assert DocumentFile("p", FileKind.HTML, "é").size == 2

    def test_checksum_changes_with_content(self):
        a = DocumentFile("p", FileKind.HTML, "one")
        b = a.with_content("two")
        assert a.checksum != b.checksum
        assert b.path == a.path and b.kind == a.kind

    def test_immutable(self):
        f = DocumentFile("p", FileKind.HTML, "x")
        with pytest.raises(AttributeError):
            f.content = "y"


class TestFileDescriptor:
    def test_json_roundtrip(self):
        fd = FileDescriptor("st1", "a/b.html")
        assert FileDescriptor.from_json(fd.as_json()) == fd


class TestFileStore:
    def test_write_read(self):
        store = _store("s1")
        fd = store.write(DocumentFile("a.html", FileKind.HTML, "hi"))
        assert fd == FileDescriptor("s1", "a.html")
        assert store.read("a.html").content == "hi"

    def test_overwrite_replaces(self):
        store = _store()
        store.write(DocumentFile("a", FileKind.HTML, "v1"))
        store.write(DocumentFile("a", FileKind.HTML, "v2"))
        assert store.read("a").content == "v2"
        assert len(store) == 1

    def test_read_missing_raises(self):
        with pytest.raises(FileNotFoundError):
            _store().read("ghost")

    def test_delete(self):
        store = _store()
        store.write(DocumentFile("a", FileKind.HTML, "x"))
        assert store.delete("a") is True
        assert store.delete("a") is False
        assert not store.exists("a")

    def test_paths_filtered_by_kind(self):
        store = _store()
        store.write(DocumentFile("a.html", FileKind.HTML, "x"))
        store.write(DocumentFile("b.class", FileKind.PROGRAM, "y"))
        store.write(DocumentFile("c.html", FileKind.HTML, "z"))
        assert store.paths(FileKind.HTML) == ["a.html", "c.html"]
        assert store.paths() == ["a.html", "b.class", "c.html"]

    def test_total_bytes(self):
        store = _store()
        store.write(DocumentFile("a", FileKind.HTML, "abc"))
        store.write(DocumentFile("b", FileKind.HTML, "de"))
        assert store.total_bytes == 5

    def test_contains(self):
        store = _store()
        store.write(DocumentFile("a", FileKind.HTML, "x"))
        assert "a" in store and "b" not in store
