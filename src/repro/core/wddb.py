""":class:`WebDocumentDatabase` — the virtual course DBMS facade.

One instance corresponds to the paper's "virtual course database
management system" on a workstation: the relational engine loaded with
the three-layer schema, the station's document files, the
referential-integrity alert engine, the hierarchical lock manager and
the configuration manager all wired together.  Its BLOBs are
persistent holdings (:mod:`repro.storage.holdings`) in its
:class:`~repro.net.station.Station`'s one BLOB store and disk.

Object identifiers in the lock tree are namespaced:
``db:<name>``, ``script:<name>``, ``impl:<url>``, ``file:<path>``,
``test:<name>``, ``bug:<name>``, ``ann:<name>`` — a database contains
its scripts, a script its implementations, an implementation its files,
test records and annotations, matching the container hierarchy the
locking compatibility table (§3) quantifies over.

The lock tree is read off the rows: an object is in it while its row
is, and its container is the one its row's parent column names
(``_CONTAINERS``), so a rename, a cascade or a reopen leaves nothing to
rebuild.  Nothing is added to it by hand: a configuration-managed
component is a registered file, locked at its own ``file:`` node.

Everything a restart brings back is a row: the document files
(:class:`~repro.storage.files.FileStore`), whether the station holds
each registered BLOB (``blobs.held``) and each file's version chain
(:mod:`repro.core.scm`).  Each authoring operation commits as one
transaction, so a crash keeps or loses it whole.

A station's document classes and instances (§4) are its rows too: a
class is a template course whose implementations name registered BLOBs,
each held once on the station; an instance is a
:meth:`~WebDocumentDatabase.duplicate_course` copy, with its own HTML
and program files and references to the template's BLOBs.  A reference
to a remote instance is a broadcast holding
(:mod:`repro.storage.holdings`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as _dt
import os
import re
from pathlib import Path
from typing import Any, Iterable, Iterator, TypeVar

from repro.core import schema as _schema
from repro.core.integrity import AlertEngine, IntegrityDiagram
from repro.core.locking import LockManager, ObjectTree
from repro.core.objects import (
    AnnotationSCI,
    BugReportSCI,
    DocumentDatabaseInfo,
    ImplementationSCI,
    ScriptSCI,
    StoredObject,
    TestRecordSCI,
)
from repro.core.scm import ConfigurationManager
from repro.net.station import Station
from repro.rdb import Database, Expr, col
from repro.storage.blob import BlobKind, synthetic_digest
from repro.storage.files import (
    DocumentFile,
    FileDescriptor,
    FileKind,
    FileStore,
    LINK_PATTERNS,
)
from repro.storage.holdings import ReplicaManager

__all__ = ["WebDocumentDatabase"]

_EPOCH = _dt.datetime(1999, 1, 1)

#: Lock-tree prefix -> (tables holding such objects, the parent column,
#: the parent's prefix); a database sits under the tree's root.
_CONTAINERS: dict[str, tuple[tuple[str, ...], str, str | None]] = {
    "db": (("doc_databases",), "db_name", None),
    "script": (("scripts",), "db_name", "db"),
    "impl": (("implementations",), "script_name", "script"),
    "file": (("html_files", "program_files"), "starting_url", "impl"),
    "test": (("test_records",), "starting_url", "impl"),
    "bug": (("bug_reports",), "test_record_name", "test"),
    "ann": (("annotations",), "starting_url", "impl"),
}
_FILE_TABLES = ("html_files", "program_files", "annotation_files")

_Stored = TypeVar("_Stored", bound=StoredObject)


class _RowTree(ObjectTree):
    """A station's lock tree: each object's container read off its row."""

    def __init__(self, engine: Database) -> None:
        super().__init__(root="wddb")
        self._engine = engine

    def parent(self, object_id: str) -> str | None:
        prefix, _, key = object_id.partition(":")
        tables, column, above = _CONTAINERS.get(prefix, ((), "", None))
        for table in tables:
            row = self._engine.get(table, key)
            if row is not None and row[column] is not None:
                return f"{above}:{row[column]}" if above else self.root
        return None


def _relink(html: str, moved: dict[str, str]) -> str:
    """``html`` with each link value that is a key of ``moved`` renamed
    to its value; every other value is left as it is."""

    def rename(match: re.Match[str]) -> str:
        target = moved.get(match[1])
        if target is None:
            return match[0]
        # The value runs up to the closing quote, the match's last char.
        head = match[0][: match.start(1) - match.start()]
        return f"{head}{target}{match[0][-1]}"

    for pattern in LINK_PATTERNS.values():
        html = pattern.sub(rename, html)
    return html


class WebDocumentDatabase:
    """The Web document DBMS on one station.

    With ``data_dir`` it is durable: its rows are opened from
    ``<data_dir>/wddb.snapshot`` plus ``wddb.wal``
    (:meth:`repro.rdb.Database.open`), every commit is synced, and the
    station re-takes its held BLOBs and their references from them.
    """

    def __init__(
        self,
        station: Station | str = "local",
        *,
        data_dir: str | os.PathLike[str] | None = None,
        with_integrity: bool = True,
    ) -> None:
        if isinstance(station, str):  # a lone workstation of that name
            station = Station(station)
        self.station = station
        self._data_dir = None if data_dir is None else Path(data_dir)
        name = f"wddb_{station.name}"
        if self._data_dir is None:
            self.engine = Database(name)
            for table_schema in _schema.ALL_SCHEMAS:
                self.engine.create_table(table_schema)
        else:
            self._data_dir.mkdir(parents=True, exist_ok=True)
            self.engine = Database.open(
                name, _schema.ALL_SCHEMAS,
                snapshot_path=str(self._data_dir / "wddb.snapshot"),
                journal_path=str(self._data_dir / "wddb.wal"),
                sync="commit",
            )
        self.files = FileStore(self.engine, station.name)
        self.tree = _RowTree(self.engine)
        self.locks = LockManager(self.tree)
        self.scm = ConfigurationManager(self.engine, self.locks)
        self.alerts: AlertEngine | None = None
        if with_integrity:
            self.alerts = AlertEngine(
                self.engine, IntegrityDiagram.paper_default()
            )
        #: The held BLOBs whose holds and references the open
        #: :meth:`authoring` scope takes after its commit (None outside).
        self._to_hold: list[str] | None = None
        if self._data_dir is not None:
            self._hold(
                row["digest"]
                for row in self.engine.select("blobs", where=col("held"))
            )

    def checkpoint(self) -> None:
        """Snapshot the rows and truncate the journal (crash-safe at
        every step; a no-op for an in-memory station)."""
        if self._data_dir is not None:
            self.engine.snapshot(str(self._data_dir / "wddb.snapshot"))

    @contextlib.contextmanager
    def authoring(self) -> Iterator[None]:
        """One authoring operation: its rows commit as one transaction,
        and the station takes the BLOB holds and references they name
        after the commit.  A scope opened inside another joins it; one
        that raises writes nothing."""
        if self._to_hold is not None:
            yield
            return
        self._to_hold = to_hold = []
        try:
            with self.engine.transaction():
                yield
        finally:
            self._to_hold = None
        self._hold(dict.fromkeys(to_hold))  # each digest once, in order

    # ------------------------------------------------------------------
    # Database layer
    # ------------------------------------------------------------------
    def create_document_database(
        self,
        db_name: str,
        author: str,
        keywords: Iterable[str] = (),
        *,
        created_at: _dt.datetime | None = None,
    ) -> DocumentDatabaseInfo:
        """Create a Web document database (database-layer object)."""
        info = DocumentDatabaseInfo(
            db_name=db_name,
            author=author,
            keywords=list(keywords),
            created_at=created_at or _EPOCH,
        )
        self.engine.insert("doc_databases", info.to_row())
        return info

    def document_databases(self) -> list[DocumentDatabaseInfo]:
        """All database-layer objects, ordered by name."""
        return self._objects(DocumentDatabaseInfo)

    # ------------------------------------------------------------------
    # BLOB layer
    # ------------------------------------------------------------------
    def register_blob(
        self,
        label: str,
        size_bytes: int,
        kind: BlobKind = BlobKind.OTHER,
    ) -> str:
        """Hold a multimedia resource on the station; returns its digest.

        Registering the same (label, size) twice shares storage — the
        paper's in-station BLOB sharing — and a broadcast copy becomes
        persistent in place.  A digest registered before without its
        bytes (a metadata-only check-out) becomes held, and every
        implementation naming it takes its reference.
        """
        ReplicaManager.of(self.station).check_persistent({label: size_bytes})
        digest = synthetic_digest(label, size_bytes)
        with self.authoring():
            row = self.engine.get("blobs", digest)
            if row is None:
                self.engine.insert("blobs", {
                    "digest": digest, "kind": kind.value,
                    "size_bytes": size_bytes, "label": label, "held": True,
                })
            elif not row["held"]:
                self.engine.update_pk("blobs", digest, {"held": True})
            self._to_hold.append(digest)
        return digest

    def blob_info(self, digest: str) -> dict[str, Any] | None:
        """The blobs-table row for ``digest`` (None if unregistered)."""
        return self.engine.get("blobs", digest)

    # ------------------------------------------------------------------
    # Scripts
    # ------------------------------------------------------------------
    def add_script(self, script: ScriptSCI) -> ScriptSCI:
        """Insert a script SCI (its database must exist)."""
        self.engine.insert("scripts", script.to_row())
        return script

    def script(self, script_name: str) -> ScriptSCI | None:
        """Fetch one script SCI by name (None if absent)."""
        return self._object(ScriptSCI, script_name)

    def scripts_in(self, db_name: str) -> list[ScriptSCI]:
        """The paper's database-layer "script names" list, by query."""
        return self._objects(ScriptSCI, col("db_name") == db_name)

    def update_script(self, script_name: str, changes: dict[str, Any]) -> bool:
        """Update a script; bumps its version and fires integrity alerts."""
        row = self.engine.get("scripts", script_name)
        if row is None:
            return False
        changes = dict(changes)
        changes.setdefault("version", row["version"] + 1)
        return self.engine.update_pk("scripts", script_name, changes)

    def delete_script(self, script_name: str) -> bool:
        """Delete a script; its implementations, their files and
        everything else under it go in the same transaction."""
        return self._delete_with_files("scripts", script_name, [
            impl.starting_url for impl in self.implementations_of(script_name)
        ])

    def search_scripts(
        self,
        keyword: str | None = None,
        author: str | None = None,
    ) -> list[ScriptSCI]:
        """Keyword / author search over script SCIs."""
        where = None
        if keyword is not None:
            where = col("keywords").contains(keyword)
        if author is not None:
            author_expr = col("author") == author
            where = author_expr if where is None else (where & author_expr)
        return self._objects(ScriptSCI, where)

    # ------------------------------------------------------------------
    # Implementations
    # ------------------------------------------------------------------
    def add_implementation(
        self,
        impl: ImplementationSCI,
        html_files: list[DocumentFile],
        program_files: list[DocumentFile] = (),
    ) -> ImplementationSCI:
        """Record one implementation try with its files.

        Enforces the paper's rule that "each implementation contains at
        least one HTML file" and refuses, before writing anything, a
        file of the wrong kind, an unregistered multimedia digest, a
        path listed twice or one registered to an implementation.  Then
        the row, the files and their registry rows commit together, and
        the implementation takes a reference on each BLOB it names that
        the station holds.
        """
        if not html_files:
            raise ValueError(
                "an implementation must contain at least one HTML file"
            )
        for document_file in html_files:
            if document_file.kind is not FileKind.HTML:
                raise ValueError(
                    f"{document_file.path!r} is not an HTML file"
                )
        for digest in impl.multimedia:
            if self.engine.get("blobs", digest) is None:
                raise LookupError(
                    f"multimedia digest {digest!r} is not registered"
                )
        self._refuse_taken([*html_files, *program_files])
        station = self.station.name
        impl = dataclasses.replace(
            impl,
            html_files=[FileDescriptor(station, f.path) for f in html_files],
            program_files=[
                FileDescriptor(station, f.path) for f in program_files
            ],
            multimedia=list(impl.multimedia),
        )
        with self.authoring():
            self.engine.insert("implementations", impl.to_row())
            self._store_files(html_files, "html_files", impl.starting_url)
            self._store_files(
                program_files, "program_files", impl.starting_url
            )
            self._to_hold += [
                digest for digest in impl.multimedia
                if self.engine.get("blobs", digest)["held"]
            ]
        return impl

    def implementation(self, starting_url: str) -> ImplementationSCI | None:
        """Fetch one implementation SCI by starting URL (None if absent)."""
        return self._object(ImplementationSCI, starting_url)

    def implementations_of(self, script_name: str) -> list[ImplementationSCI]:
        """The script table's "starting URLs" list, by query."""
        return self._objects(
            ImplementationSCI, col("script_name") == script_name
        )

    def update_implementation(
        self, starting_url: str, changes: dict[str, Any]
    ) -> bool:
        """Update an implementation row; fires integrity alerts."""
        return self.engine.update_pk("implementations", starting_url, changes)

    def delete_implementation(self, starting_url: str) -> bool:
        """Delete one implementation with its files (dependents cascade;
        BLOB refs released)."""
        return self._delete_with_files(
            "implementations", starting_url, [starting_url]
        )

    def check_course(
        self,
        script_name: str,
        implementations: Iterable[
            tuple[ImplementationSCI, list[DocumentFile], list[DocumentFile]]
        ],
    ) -> None:
        """Raise what adding a script with these implementations (each
        with its HTML and program files) would refuse; writes nothing."""
        if self.script(script_name) is not None:
            raise ValueError(f"script {script_name!r} already exists")
        for impl, html_files, program_files in implementations:
            if self.implementation(impl.starting_url) is not None:
                raise ValueError(
                    f"implementation {impl.starting_url!r} already exists"
                )
            self._refuse_taken([*html_files, *program_files])

    # ------------------------------------------------------------------
    # Test records / bug reports / annotations
    # ------------------------------------------------------------------
    def add_test_record(self, record: TestRecordSCI) -> TestRecordSCI:
        """File a test record against an existing implementation."""
        self.engine.insert("test_records", record.to_row())
        return record

    def test_records_of(self, starting_url: str) -> list[TestRecordSCI]:
        """All test records filed against one implementation."""
        return self._objects(
            TestRecordSCI, col("starting_url") == starting_url
        )

    def add_bug_report(self, report: BugReportSCI) -> BugReportSCI:
        """File a bug report against an existing test record."""
        self.engine.insert("bug_reports", report.to_row())
        return report

    def bug_reports_of(self, test_record_name: str) -> list[BugReportSCI]:
        """All bug reports created for one test record."""
        return self._objects(
            BugReportSCI, col("test_record_name") == test_record_name
        )

    def add_annotation(
        self, annotation: AnnotationSCI, annotation_file: DocumentFile
    ) -> AnnotationSCI:
        """Store an instructor's annotation overlay and its file.

        Refuses, before writing anything, a file of the wrong kind or a
        path registered to an implementation.
        """
        if annotation_file.kind is not FileKind.ANNOTATION:
            raise ValueError(
                f"{annotation_file.path!r} is not an annotation file"
            )
        self._refuse_taken([annotation_file])
        annotation = dataclasses.replace(
            annotation,
            annotation_file=FileDescriptor(
                self.station.name, annotation_file.path
            ),
        )
        with self.authoring():
            self.engine.insert("annotations", annotation.to_row())
            self._store_files(
                [annotation_file], "annotation_files", annotation.starting_url
            )
        return annotation

    def annotations_of(self, starting_url: str) -> list[AnnotationSCI]:
        """All instructors' overlays on one implementation."""
        return self._objects(
            AnnotationSCI, col("starting_url") == starting_url
        )

    def annotations_by(self, author: str) -> list[AnnotationSCI]:
        """One instructor's annotations across all courses."""
        return self._objects(AnnotationSCI, col("author") == author)

    # ------------------------------------------------------------------
    # Compound-object duplication (paper §3: "A number of database
    # objects are grouped into a reusable component.  The component can
    # be duplicated to another compound object with modifications.
    # However, the duplication process involves objects of relatively
    # smaller sizes, such as HTML files.  BLOBs ... are shared.")
    # ------------------------------------------------------------------
    def duplicate_course(
        self,
        script_name: str,
        new_script_name: str,
        *,
        author: str | None = None,
        modifications: dict[str, Any] | None = None,
    ) -> ScriptSCI:
        """Duplicate a script and its implementations as a new compound.

        The source is a class (a template course whose implementations
        name registered BLOBs); the copy is an instance of it.  Small
        objects (the script row, implementation rows, HTML and program
        files) are physically copied under a ``<new name>/`` path
        prefix, and each ``href``/``src``/``code`` value naming a copied
        file is rewritten to the copy, so the duplicate is
        self-contained; BLOB digests are re-referenced, not re-stored —
        exactly the paper's size-based split.  ``modifications``
        patches the new script row (description, keywords, ...; its
        name is ``new_script_name``).  A refused duplicate writes
        nothing.
        """
        modifications = modifications or {}
        if "script_name" in modifications:
            raise ValueError(
                "a duplicate is named by new_script_name, not a modification"
            )
        source = self.script(script_name)
        if source is None:
            raise LookupError(f"unknown script {script_name!r}")
        new_script = dataclasses.replace(
            source,
            script_name=new_script_name,
            author=author if author is not None else source.author,
            keywords=list(source.keywords),
            version=1,
            multimedia=list(source.multimedia),
        )
        for key, value in modifications.items():
            setattr(new_script, key, value)
        prefix = f"{new_script_name}/"
        copies = []
        for impl in self.implementations_of(script_name):
            moved = {
                fd.path: f"{prefix}{fd.path}"
                for fd in (*impl.html_files, *impl.program_files)
            }
            new_html = [
                DocumentFile(
                    moved[fd.path], FileKind.HTML,
                    _relink(self.files.read(fd.path).content, moved),
                )
                for fd in impl.html_files
            ]
            new_programs = [
                dataclasses.replace(
                    self.files.read(fd.path), path=moved[fd.path]
                )
                for fd in impl.program_files
            ]
            copies.append((
                ImplementationSCI(
                    starting_url=f"{impl.starting_url}{new_script_name}/",
                    script_name=new_script_name,
                    author=new_script.author,
                    multimedia=list(impl.multimedia),  # shared BLOBs
                    created_at=impl.created_at,
                ),
                new_html,
                new_programs,
            ))
        self.check_course(new_script_name, copies)
        with self.authoring():
            self.add_script(new_script)
            for copy in copies:
                self.add_implementation(*copy)
        return new_script

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Row counts, storage metering and pending-alert count."""
        engine_stats = self.engine.stats()
        return {
            "station": self.station.name,
            "tables": engine_stats["tables"],
            "statements": engine_stats["statements"],
            "blob_stats": self.station.blobs.stats(),
            "file_bytes": self.files.total_bytes,
            "pending_alerts": len(self.alerts.alerts) if self.alerts else 0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _object(self, cls: type[_Stored], key: Any) -> _Stored | None:
        """The ``cls`` object stored under primary key ``key`` (None if
        absent)."""
        row = self.engine.get(cls.schema.name, key)
        return None if row is None else cls.from_row(row)

    def _objects(
        self, cls: type[_Stored], where: Expr | None = None
    ) -> list[_Stored]:
        """The ``cls`` objects whose rows match ``where``, in primary-key
        order."""
        (key,) = cls.schema.primary_key
        return [
            cls.from_row(row)
            for row in self.engine.select(
                cls.schema.name, where=where, order_by=key
            )
        ]

    def _hold(self, digests: Iterable[str]) -> None:
        """Hold each BLOB on the station, referenced by every
        implementation naming it."""
        for digest in digests:
            row = self.engine.get("blobs", digest)
            ReplicaManager.of(self.station).hold_persistent(
                row["label"], row["size_bytes"], BlobKind(row["kind"])
            )
            for impl in self.engine.select(
                "implementations", where=col("multimedia").contains(digest)
            ):
                self.station.blobs.acquire(
                    digest, f"impl:{impl['starting_url']}"
                )

    def _delete_with_files(self, table: str, key: str, urls: list[str]) -> bool:
        """Delete one ``table`` row and, in the same transaction, the
        files registered to the implementations ``urls``: the schema
        cascades the registry rows with the implementations and each
        version chain with its file.  Then release the BLOB references
        the implementations held."""
        with self.authoring():
            paths = [
                row["path"] for registry in _FILE_TABLES
                for row in self.engine.select(
                    registry, where=col("starting_url").isin(urls)
                )
            ]
            deleted = self.engine.delete_pk(table, key)
            self.engine.delete("files", where=col("path").isin(paths))
        if deleted:
            for url in urls:
                self.station.blobs.release_owner(f"impl:{url}")
        return deleted

    def _refuse_taken(self, files: Iterable[DocumentFile]) -> None:
        """Refuse a path listed twice or registered to an implementation."""
        paths = [document_file.path for document_file in files]
        for index, path in enumerate(paths):
            if path in paths[:index]:
                raise ValueError(f"{path!r} is listed twice")
            for table in _FILE_TABLES:
                row = self.engine.get(table, path)
                if row is not None:
                    raise ValueError(
                        f"{path!r} already belongs to {row['starting_url']!r}"
                    )

    def _store_files(
        self, files: Iterable[DocumentFile], table: str, starting_url: str
    ) -> None:
        """Write ``files``; their ``table`` rows name ``starting_url``."""
        for document_file in files:
            self.files.write(document_file)
            self.engine.insert(table, {
                "path": document_file.path,
                "station": self.station.name,
                "starting_url": starting_url,
                "size_bytes": document_file.size,
                "checksum": document_file.checksum,
            })
