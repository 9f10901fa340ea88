"""Document-layer files: HTML, program and annotation files.

Unlike BLOBs, these are the "objects of relatively smaller sizes" that
the paper *duplicates* when a compound object is copied ("the
duplication process involves objects of relatively smaller sizes, such
as HTML files").  A :class:`FileStore` holds a workstation's files as
rows of its document database's ``files`` table, keyed by path, so a
file commits, journals and recovers with the row that registers it; a
:class:`FileDescriptor` is the pointer stored in database rows.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from typing import Any, Iterator

from repro.rdb import Database

__all__ = [
    "FileKind", "DocumentFile", "FileDescriptor", "FileStore", "LINK_PATTERNS",
]

#: How an HTML page names another file, by attribute: a link (``href``),
#: an embedded resource (``src``) or an invoked program (``code``); the
#: first group of a match is the named path.
LINK_PATTERNS = {
    attribute: re.compile(
        rf"""{attribute}\s*=\s*["']([^"']+)["']""", re.IGNORECASE
    )
    for attribute in ("href", "src", "code")
}


class FileKind(enum.Enum):
    """The document-layer file categories of the paper's schema."""

    HTML = "html"
    PROGRAM = "program"  # Java applets / ASP programs in the paper
    ANNOTATION = "annotation"


@dataclass(frozen=True, slots=True)
class DocumentFile:
    """An immutable file version: path, kind, content and checksum."""

    path: str
    kind: FileKind
    content: str

    @property
    def size(self) -> int:
        return len(self.content.encode("utf-8"))

    @property
    def checksum(self) -> str:
        return hashlib.blake2b(
            self.content.encode("utf-8"), digest_size=8
        ).hexdigest()

    def with_content(self, content: str) -> "DocumentFile":
        """A new version of this file with different content."""
        return DocumentFile(self.path, self.kind, content)


@dataclass(frozen=True, slots=True)
class FileDescriptor:
    """A pointer to a file in some station's store (stored in DB rows)."""

    station: str
    path: str

    def as_json(self) -> dict[str, str]:
        return {"station": self.station, "path": self.path}

    @classmethod
    def from_json(cls, payload: dict[str, str]) -> "FileDescriptor":
        return cls(station=payload["station"], path=payload["path"])


class FileStore:
    """A station's document files: the rows of its database's ``files``
    table (path, kind, content)."""

    def __init__(self, engine: Database, station: str = "local") -> None:
        self.engine = engine
        self.station = station

    def write(self, file: DocumentFile) -> FileDescriptor:
        """Store (or overwrite) a file; returns its descriptor."""
        self.engine.upsert("files", {
            "path": file.path, "kind": file.kind.value,
            "content": file.content,
        })
        return FileDescriptor(self.station, file.path)

    def read(self, path: str) -> DocumentFile:
        row = self.engine.get("files", path)
        if row is None:
            raise FileNotFoundError(
                f"no file {path!r} in store {self.station!r}"
            )
        return _document(row)

    def delete(self, path: str) -> bool:
        """Remove a file; returns False if it was absent."""
        return self.engine.delete_pk("files", path)

    def exists(self, path: str) -> bool:
        return self.engine.exists("files", path)

    def paths(self, kind: FileKind | None = None) -> list[str]:
        return sorted(f.path for f in self.files() if kind in (None, f.kind))

    def files(self) -> Iterator[DocumentFile]:
        return map(_document, self.engine.select("files"))

    @property
    def total_bytes(self) -> int:
        return sum(document.size for document in self.files())

    def __len__(self) -> int:
        return self.engine.count("files")

    def __contains__(self, path: str) -> bool:
        return self.exists(path)


def _document(row: dict[str, Any]) -> DocumentFile:
    return DocumentFile(row["path"], FileKind(row["kind"]), row["content"])
