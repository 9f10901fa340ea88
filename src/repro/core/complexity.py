"""Course-complexity estimation.

The paper (§1) raises "how do we estimate the complexity of a course and
how do we perform a white box or black box testing of a multimedia
presentation" as "research issues that we have solved partially."  This
module supplies the estimation half: software-engineering-style metrics
over a course implementation's page graph.

* **Structural size** — pages, links, control programs, media count and
  bytes (the analogue of LOC).
* **Cyclomatic complexity** of the page graph, ``E - N + 2P`` with P the
  number of weakly-connected components — white-box traversal testing
  needs at least this many independent paths.
* **Depth** — the longest shortest-path from the start page, bounding a
  black-box traversal's click depth.
* **Media intensity** — bytes of multimedia per page, the bandwidth
  weight the distribution layer must move per unit of content.

The composite :attr:`CourseComplexity.score` is a documented weighted
sum, useful for ranking courses by authoring/testing effort; the weights
have no empirical basis beyond being monotone in every component.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objects import ImplementationSCI
from repro.core.wddb import WebDocumentDatabase
from repro.storage.files import LINK_PATTERNS

__all__ = ["CourseComplexity", "measure_complexity"]


@dataclass(frozen=True, slots=True)
class CourseComplexity:
    """Metrics for one course implementation."""

    starting_url: str
    pages: int
    links: int
    programs: int
    media_objects: int
    media_bytes: int
    #: number of weakly-connected components of the page graph
    components: int
    cyclomatic: int
    depth: int
    unreachable_pages: int

    @property
    def media_intensity(self) -> float:
        """Multimedia bytes per page."""
        return self.media_bytes / self.pages if self.pages else 0.0

    @property
    def score(self) -> float:
        """Composite authoring/testing-effort score (monotone weights:
        cyclomatic paths dominate, then structure, then media count)."""
        return (
            5.0 * self.cyclomatic
            + 1.0 * self.pages
            + 0.5 * self.links
            + 2.0 * self.programs
            + 1.0 * self.media_objects
            + 3.0 * self.unreachable_pages  # dead content is test debt
        )


def measure_complexity(
    db: WebDocumentDatabase, impl: ImplementationSCI
) -> CourseComplexity:
    """Compute the metrics for ``impl`` from its stored pages."""
    page_paths = [fd.path for fd in impl.html_files]
    page_set = set(page_paths)
    edges: list[tuple[str, str]] = []
    for path in page_paths:
        if not db.files.exists(path):
            continue
        content = db.files.read(path).content
        for href in LINK_PATTERNS["href"].findall(content):
            if href in page_set:
                edges.append((path, href))

    components = _weakly_connected_components(page_set, edges)
    # Cyclomatic complexity E - N + 2P (per connected component the
    # classic E - N + 2; summed over components this is the formula).
    cyclomatic = len(edges) - len(page_set) + 2 * components

    depth, reachable = _bfs_depth(page_paths, edges)
    media_bytes = 0
    for digest in impl.multimedia:
        info = db.blob_info(digest)
        if info is not None:
            media_bytes += info["size_bytes"]

    return CourseComplexity(
        starting_url=impl.starting_url,
        pages=len(page_set),
        links=len(edges),
        programs=len(impl.program_files),
        media_objects=len(impl.multimedia),
        media_bytes=media_bytes,
        components=components,
        cyclomatic=max(cyclomatic, 0),
        depth=depth,
        unreachable_pages=len(page_set) - len(reachable),
    )


def _weakly_connected_components(
    nodes: set[str], edges: list[tuple[str, str]]
) -> int:
    parent: dict[str, str] = {node: node for node in nodes}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b
    return len({find(node) for node in nodes})


def _bfs_depth(
    page_paths: list[str], edges: list[tuple[str, str]]
) -> tuple[int, set[str]]:
    """(max shortest-path depth from the start page, reachable set)."""
    if not page_paths:
        return 0, set()
    adjacency: dict[str, list[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    start = page_paths[0]
    depths = {start: 0}
    queue = [start]
    while queue:
        node = queue.pop(0)
        for neighbour in adjacency.get(node, ()):
            if neighbour not in depths:
                depths[neighbour] = depths[node] + 1
                queue.append(neighbour)
    return max(depths.values()), set(depths)
