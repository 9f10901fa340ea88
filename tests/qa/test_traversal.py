"""Tests for Web document traversal."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ImplementationSCI, ScriptSCI, TestScope
from repro.qa import WebTraverser, extract_links
from repro.storage.files import DocumentFile, FileKind


class TestExtractLinks:
    def test_hrefs(self):
        links = extract_links('<a href="a.html">x</a><a HREF="b.html">')
        assert links.hrefs == ("a.html", "b.html")

    def test_resources_and_programs(self):
        links = extract_links(
            '<img src="pic.gif"><applet code="quiz.class">'
        )
        assert links.resources == ("pic.gif",)
        assert links.programs == ("quiz.class",)

    def test_single_quotes(self):
        assert extract_links("<a href='x.html'>").hrefs == ("x.html",)

    def test_no_links(self):
        links = extract_links("<html><body>plain</body></html>")
        assert links.hrefs == () and links.resources == ()

    def test_qa_imports_first_in_a_fresh_interpreter(self):
        # repro.core reads links through repro.storage.files, not qa,
        # so importing qa before core meets no half-built module.
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", "import repro.qa"],
            env={"PYTHONPATH": str(src), "PATH": ""},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def _make_impl(wddb, pages, name="cs2", url="http://mmu/cs2/"):
    wddb.add_script(ScriptSCI(name, "mmu", author="x"))
    return wddb.add_implementation(
        ImplementationSCI(url, name, author="x"),
        html_files=[DocumentFile(p, FileKind.HTML, c) for p, c in pages],
    )


class TestLocalTraversal:
    def test_visits_linked_pages_bfs(self, wddb):
        impl = _make_impl(wddb, [
            ("a.html", '<a href="b.html"><a href="c.html">'),
            ("b.html", ""),
            ("c.html", '<a href="a.html">'),  # cycle back
        ])
        result = WebTraverser(wddb.files).traverse(impl)
        assert result.visited_pages == ["a.html", "b.html", "c.html"]

    def test_cycle_terminates(self, wddb):
        impl = _make_impl(wddb, [
            ("a.html", '<a href="b.html">'),
            ("b.html", '<a href="a.html">'),
        ])
        result = WebTraverser(wddb.files).traverse(impl)
        assert result.pages_opened == 2

    def test_messages_recorded(self, wddb, course):
        result = WebTraverser(wddb.files).traverse(course)
        assert any(m.startswith("OPEN_PAGE") for m in result.messages)
        assert any(m.startswith("FOLLOW_LINK") for m in result.messages)
        assert any(m.startswith("LOAD_RESOURCE") for m in result.messages)

    def test_dead_relative_link_is_bad_url(self, wddb):
        impl = _make_impl(wddb, [("a.html", '<a href="missing.html">')])
        result = WebTraverser(wddb.files).traverse(impl)
        assert result.unreachable == ["missing.html"]

    def test_absolute_external_skipped_in_local_scope(self, wddb):
        impl = _make_impl(wddb, [("a.html", '<a href="http://other.edu/x">')])
        result = WebTraverser(wddb.files).traverse(impl, TestScope.LOCAL)
        assert result.external_skipped == ["http://other.edu/x"]
        assert result.unreachable == []

    def test_resources_collected(self, wddb):
        impl = _make_impl(wddb, [("a.html", '<img src="v.mpg"><img src="w.gif">')])
        result = WebTraverser(wddb.files).traverse(impl)
        assert result.referenced_resources == {"v.mpg", "w.gif"}

    def test_orphan_page_not_visited(self, wddb):
        impl = _make_impl(wddb, [
            ("a.html", ""),
            ("orphan.html", ""),
        ])
        result = WebTraverser(wddb.files).traverse(impl)
        assert "orphan.html" not in result.visited_pages


class TestGlobalTraversal:
    def test_cross_document_link_opened(self, wddb):
        other = _make_impl(wddb, [("other/x.html", "")],
                           name="other", url="http://mmu/other/")
        impl = _make_impl(wddb, [("a.html", '<a href="other/x.html">')])
        result = WebTraverser(wddb.files).traverse(
            impl, TestScope.GLOBAL, known_external={"other/x.html"}
        )
        assert "other/x.html" in result.visited_pages
        assert any(m.startswith("CROSS_DOCUMENT") for m in result.messages)

    def test_unknown_external_is_bad_url_globally(self, wddb):
        impl = _make_impl(wddb, [("a.html", '<a href="http://dead.example/">')])
        result = WebTraverser(wddb.files).traverse(impl, TestScope.GLOBAL)
        assert result.unreachable == ["http://dead.example/"]


class TestDegenerateCases:
    def test_impl_without_html_records_failure(self, wddb):
        impl = ImplementationSCI("http://x/", "cs101", author="x")
        result = WebTraverser(wddb.files).traverse(impl)
        assert result.pages_opened == 0
        assert "OPEN_FAILED no html files" in result.messages

    def test_missing_start_page(self, wddb):
        impl = _make_impl(wddb, [("a.html", "")])
        wddb.files.delete("a.html")
        result = WebTraverser(wddb.files).traverse(impl)
        assert result.unreachable == ["a.html"]
