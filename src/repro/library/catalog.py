"""The virtual library catalog.

Instructors publish document instances (lecture notes as Web pages)
into the catalog; each entry carries the retrieval attributes the
paper's browsing interface matches on — keywords, instructor name,
course number and title.  Only instructors may add or delete entries
("an instructor has a privilege to add or delete document instances").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.library.search import SearchIndex, SearchResult

__all__ = ["CatalogEntry", "PermissionError_", "VirtualLibrary"]


class PermissionError_(RuntimeError):
    """A non-instructor attempted a privileged catalog operation."""


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One published lecture document."""

    doc_id: str
    title: str
    course_number: str
    instructor: str
    keywords: tuple[str, ...] = ()
    starting_url: str | None = None
    size_bytes: int = 0


def _indexed_fields(entry: CatalogEntry) -> dict[str, Any]:
    """What the search index derives an entry's terms from, both when it
    is added and when it is removed."""
    return {
        "keywords": entry.keywords,
        "instructor": entry.instructor,
        "course_number": entry.course_number,
        "title": entry.title,
    }


@dataclass
class VirtualLibrary:
    """The catalog plus its search index.

    ``instructors`` is the privilege list; the circulation desk
    (:mod:`repro.library.circulation`) references the catalog to
    validate loans.
    """

    instructors: set[str] = field(default_factory=set)
    _entries: dict[str, CatalogEntry] = field(default_factory=dict)
    _index: SearchIndex = field(default_factory=SearchIndex)

    # ------------------------------------------------------------------
    def grant_instructor(self, user: str) -> None:
        self.instructors.add(user)

    def add_document(self, user: str, entry: CatalogEntry) -> CatalogEntry:
        """Publish a document instance (instructor privilege)."""
        self._require_instructor(user)
        if entry.doc_id in self._entries:
            raise ValueError(f"document {entry.doc_id!r} already published")
        self._store(entry)
        return entry

    def remove_document(self, user: str, doc_id: str) -> bool:
        """Withdraw a document (instructor privilege)."""
        self._require_instructor(user)
        entry = self._entries.pop(doc_id, None)
        if entry is None:
            return False
        self._index.remove(doc_id, **_indexed_fields(entry))
        return True

    def reload(self, entries: "Iterable[CatalogEntry]") -> int:
        """Rebuild the catalog and search index from ``entries``.

        The recovery/replication path: entries come from the durable
        ``catalog_docs`` table (authoritative; privilege was enforced
        when they were first published), so no instructor check applies
        here — but each entry's publisher is re-granted the privilege,
        matching the state a live server would have.  Returns the entry
        count.  In-place, so the circulation desk's reference stays
        valid.
        """
        self._entries.clear()
        self._index = SearchIndex()
        for entry in entries:
            self._store(entry)
            self.instructors.add(entry.instructor)
        return len(self._entries)

    def _store(self, entry: CatalogEntry) -> None:
        """Index ``entry``, then keep it: an entry the index refuses (a
        keyword that is not a string, say) is never stored."""
        self._index.add(entry.doc_id, **_indexed_fields(entry))
        self._entries[entry.doc_id] = entry

    def _require_instructor(self, user: str) -> None:
        if user not in self.instructors:
            raise PermissionError_(
                f"{user!r} is not an instructor; catalog changes denied"
            )

    # ------------------------------------------------------------------
    def get(self, doc_id: str) -> CatalogEntry | None:
        return self._entries.get(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    # -- the browsing interface ----------------------------------------------
    def search(
        self,
        keywords: str | None = None,
        instructor: str | None = None,
        course: str | None = None,
        *,
        limit: int | None = None,
    ) -> list[SearchResult]:
        """Retrieve course materials by "matching keywords, instructor
        names, and course numbers/titles" (paper §5)."""
        return self._index.search(
            keywords=keywords, instructor=instructor, course=course, limit=limit
        )
