"""Typed SCI (software configuration item) objects.

"A SCI can be a page that shows a piece of lecture, an annotation to
the piece of lecture, or a compound object containing the above."
These dataclasses are the typed face of the document-layer rows, so
application code never handles raw dicts.  Each is one row of its
class's ``schema``: :meth:`StoredObject.to_row` reads the schema's
columns, in order, off the fields of the same name, and
:meth:`StoredObject.from_row` builds the object back from them.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Self

from repro.core.schema import (
    ANNOTATIONS,
    BUG_REPORTS,
    DOC_DATABASES,
    IMPLEMENTATIONS,
    SCRIPTS,
    TEST_RECORDS,
)
from repro.rdb import ColumnType, Schema
from repro.storage.files import FileDescriptor

__all__ = [
    "TestScope",
    "StoredObject",
    "DocumentDatabaseInfo",
    "ScriptSCI",
    "ImplementationSCI",
    "TestRecordSCI",
    "BugReportSCI",
    "AnnotationSCI",
]

#: When an SCI was created, unless it says.
_EPOCH = _dt.datetime(1999, 1, 1)


class TestScope(enum.Enum):
    """Testing scope of a test record (paper: "local or global")."""

    LOCAL = "local"
    GLOBAL = "global"


#: How a field goes into its column and comes back: (to the row, from it).
_Rule = tuple[Callable[[Any], Any], Callable[[Any], Any]]
_AS_IS: _Rule = (lambda value: value, lambda value: value)
_LIST: _Rule = (list, lambda value: list(value or []))
_FILES: _Rule = (
    lambda files: [fd.as_json() for fd in files],
    lambda payload: [FileDescriptor.from_json(d) for d in payload or []],
)
#: The fields with a rule of their own.
_RULES: dict[str, _Rule] = {
    "html_files": _FILES,
    "program_files": _FILES,
    "annotation_file": (FileDescriptor.as_json, FileDescriptor.from_json),
    "scope": (lambda scope: scope.value, TestScope),
}


class StoredObject:
    """An object that is one row of its class's ``schema``.

    The row is the schema's columns, in schema order, each read off the
    field of the same name: a JSON list is copied on the way out and a
    NULL one comes back as ``[]``; the fields in ``_RULES`` convert
    their own way, every other value is stored as it is.
    """

    __slots__ = ()
    schema: ClassVar[Schema]
    _codecs: ClassVar[tuple[tuple[Any, ...], ...]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._codecs = tuple(
            (column.name, *_RULES.get(
                column.name,
                _LIST if column.type is ColumnType.JSON else _AS_IS,
            ))
            for column in cls.schema.columns
        )

    def to_row(self) -> dict[str, Any]:
        return {
            name: out(getattr(self, name)) for name, out, _ in self._codecs
        }

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> Self:
        return cls(**{name: back(row[name]) for name, _, back in cls._codecs})


@dataclass(slots=True)
class DocumentDatabaseInfo(StoredObject):
    """Database-layer object: one Web document database."""

    schema = DOC_DATABASES

    db_name: str
    author: str
    keywords: list[str] = field(default_factory=list)
    version: int = 1
    created_at: _dt.datetime = _EPOCH


@dataclass(slots=True)
class ScriptSCI(StoredObject):
    """A document script — "similar to a software system specification"."""

    schema = SCRIPTS

    script_name: str
    db_name: str
    author: str
    description: str = ""
    keywords: list[str] = field(default_factory=list)
    version: int = 1
    created_at: _dt.datetime = _EPOCH
    verbal_description: str | None = None  # BLOB digest of spoken spec
    expected_completion: _dt.datetime | None = None
    percent_complete: float = 0.0
    multimedia: list[str] = field(default_factory=list)  # BLOB digests


@dataclass(slots=True)
class ImplementationSCI(StoredObject):
    """One "try of implementation" of a script.

    Must contain at least one HTML file (enforced by the facade, per the
    paper: "each implementation contains at least one HTML file").
    """

    schema = IMPLEMENTATIONS

    starting_url: str
    script_name: str
    author: str
    html_files: list[FileDescriptor] = field(default_factory=list)
    program_files: list[FileDescriptor] = field(default_factory=list)
    multimedia: list[str] = field(default_factory=list)  # BLOB digests
    created_at: _dt.datetime = _EPOCH


@dataclass(slots=True)
class TestRecordSCI(StoredObject):
    """A test record over one implementation."""

    schema = TEST_RECORDS

    test_record_name: str
    script_name: str
    starting_url: str
    scope: TestScope = TestScope.LOCAL
    traversal_messages: list[str] = field(default_factory=list)
    created_at: _dt.datetime = _EPOCH
    passed: bool | None = None


@dataclass(slots=True)
class BugReportSCI(StoredObject):
    """A bug report created for a test record."""

    schema = BUG_REPORTS

    bug_report_name: str
    test_record_name: str
    qa_engineer: str
    test_procedure: str = ""
    bug_description: str = ""
    bad_urls: list[str] = field(default_factory=list)
    missing_objects: list[str] = field(default_factory=list)
    inconsistency: str = ""
    redundant_objects: list[str] = field(default_factory=list)
    created_at: _dt.datetime = _EPOCH

    @property
    def is_clean(self) -> bool:
        """True when the report records no defects."""
        return not (
            self.bad_urls
            or self.missing_objects
            or self.inconsistency
            or self.redundant_objects
            or self.bug_description
        )


@dataclass(slots=True)
class AnnotationSCI(StoredObject):
    """A per-instructor annotation overlay on an implementation."""

    schema = ANNOTATIONS

    annotation_name: str
    author: str
    script_name: str
    starting_url: str
    annotation_file: FileDescriptor
    version: int = 1
    created_at: _dt.datetime = _EPOCH
