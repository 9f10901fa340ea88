"""Document-layer files: HTML, program and annotation files.

Unlike BLOBs, these are the "objects of relatively smaller sizes" that
the paper *duplicates* when a compound object is copied ("the
duplication process involves objects of relatively smaller sizes, such
as HTML files").  A :class:`FileStore` holds them per workstation keyed
by path; a :class:`FileDescriptor` is the pointer stored in database
rows.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from typing import Iterator

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
    """Per-station store of document files keyed by path."""

    def __init__(self, station: str = "local") -> None:
        self.station = station
        self._files: dict[str, DocumentFile] = {}
        self.writes = 0

    def write(self, file: DocumentFile) -> FileDescriptor:
        """Store (or overwrite) a file; returns its descriptor."""
        self._files[file.path] = file
        self.writes += 1
        return FileDescriptor(self.station, file.path)

    def read(self, path: str) -> DocumentFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(
                f"no file {path!r} in store {self.station!r}"
            ) from None

    def delete(self, path: str) -> bool:
        """Remove a file; returns False if it was absent."""
        return self._files.pop(path, None) is not None

    def exists(self, path: str) -> bool:
        return path in self._files

    def paths(self, kind: FileKind | None = None) -> list[str]:
        if kind is None:
            return sorted(self._files)
        return sorted(p for p, f in self._files.items() if f.kind is kind)

    def files(self) -> Iterator[DocumentFile]:
        return iter(self._files.values())

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, path: str) -> bool:
        return path in self._files
