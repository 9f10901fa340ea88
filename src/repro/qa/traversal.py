"""Web document traversal testing.

A Web document implementation is a graph: HTML files linking to each
other (``href``), embedding multimedia (``src``) and invoking control
programs (``applet``/``code``).  The traverser walks that graph from the
starting URL breadth-first, recording the "windowing messages which
control a Web document traversal" the paper's test records store —
here, a message per page open, link follow and resource load.

Scope (paper: "Testing scope: local or global"): LOCAL traversal stays
within the implementation's own files; GLOBAL additionally follows
links that leave it (other documents, external URLs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objects import ImplementationSCI, TestScope
from repro.storage.files import LINK_PATTERNS, FileStore

__all__ = ["extract_links", "PageLinks", "TraversalResult", "WebTraverser"]


@dataclass(frozen=True, slots=True)
class PageLinks:
    """Outbound references of one HTML page."""

    hrefs: tuple[str, ...]
    resources: tuple[str, ...]  # src= targets (multimedia)
    programs: tuple[str, ...]  # code= targets (applets/controls)


def extract_links(html: str) -> PageLinks:
    """Parse the three reference kinds out of (simplified) HTML.

    >>> links = extract_links('<a href="p2.html"><img src="x.gif">')
    >>> links.hrefs, links.resources
    (('p2.html',), ('x.gif',))
    """
    return PageLinks(
        hrefs=tuple(LINK_PATTERNS["href"].findall(html)),
        resources=tuple(LINK_PATTERNS["src"].findall(html)),
        programs=tuple(LINK_PATTERNS["code"].findall(html)),
    )


@dataclass
class TraversalResult:
    """What one traversal saw."""

    starting_url: str
    scope: TestScope
    messages: list[str] = field(default_factory=list)
    visited_pages: list[str] = field(default_factory=list)
    referenced_resources: set[str] = field(default_factory=set)
    referenced_programs: set[str] = field(default_factory=set)
    #: href targets that could not be resolved to a page
    unreachable: list[str] = field(default_factory=list)
    #: href targets skipped because they leave the implementation (LOCAL)
    external_skipped: list[str] = field(default_factory=list)

    @property
    def pages_opened(self) -> int:
        return len(self.visited_pages)


class WebTraverser:
    """Breadth-first traversal of an implementation's page graph."""

    def __init__(self, files: FileStore) -> None:
        self.files = files

    def traverse(
        self,
        impl: ImplementationSCI,
        scope: TestScope = TestScope.LOCAL,
        *,
        known_external: set[str] | None = None,
    ) -> TraversalResult:
        """Walk from the implementation's first HTML file.

        ``known_external`` lists pages outside this implementation that
        GLOBAL traversal may legitimately reach (other documents in the
        database); anything else off-implementation is recorded as
        unreachable in GLOBAL scope or skipped in LOCAL scope.
        """
        own_pages = {fd.path for fd in impl.html_files}
        known_external = known_external or set()
        result = TraversalResult(
            starting_url=impl.starting_url, scope=scope
        )
        if not impl.html_files:
            result.messages.append("OPEN_FAILED no html files")
            return result
        start = impl.html_files[0].path
        queue = [start]
        seen = {start}
        while queue:
            path = queue.pop(0)
            if not self.files.exists(path):
                result.messages.append(f"OPEN_FAILED {path}")
                result.unreachable.append(path)
                continue
            result.messages.append(f"OPEN_PAGE {path}")
            result.visited_pages.append(path)
            links = extract_links(self.files.read(path).content)
            for resource in links.resources:
                result.messages.append(f"LOAD_RESOURCE {resource}")
                result.referenced_resources.add(resource)
            for program in links.programs:
                result.messages.append(f"LOAD_PROGRAM {program}")
                result.referenced_programs.add(program)
            for href in links.hrefs:
                result.messages.append(f"FOLLOW_LINK {path} -> {href}")
                if href in seen:
                    continue
                if href in own_pages:
                    seen.add(href)
                    queue.append(href)
                    continue
                is_relative = "://" not in href
                if is_relative and href not in known_external:
                    # A relative link to a page no document provides is a
                    # dead link regardless of scope.
                    seen.add(href)
                    result.unreachable.append(href)
                    result.messages.append(f"BAD_URL {href}")
                elif scope is TestScope.GLOBAL:
                    if href in known_external and self.files.exists(href):
                        result.messages.append(f"CROSS_DOCUMENT {href}")
                        seen.add(href)
                        # Global scope opens but does not re-walk foreign
                        # documents (their own test records cover them).
                        result.visited_pages.append(href)
                    else:
                        seen.add(href)
                        result.unreachable.append(href)
                        result.messages.append(f"BAD_URL {href}")
                else:
                    result.external_skipped.append(href)
                    result.messages.append(f"SKIP_EXTERNAL {href}")
        return result
