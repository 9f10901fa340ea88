""":class:`WebDocumentDatabase` — the virtual course DBMS facade.

One instance corresponds to the paper's "virtual course database
management system" on a workstation: the relational engine loaded with
the three-layer schema, the station's file and BLOB stores, the
referential-integrity alert engine, the hierarchical lock manager and
the configuration manager all wired together.

Object identifiers in the lock tree are namespaced:
``db:<name>``, ``script:<name>``, ``impl:<url>``, ``file:<path>``,
``test:<name>``, ``bug:<name>``, ``ann:<name>`` — a database contains
its scripts, a script its implementations, an implementation its files,
test records and annotations, matching the container hierarchy the
locking compatibility table (§3) quantifies over.
"""

from __future__ import annotations

import datetime as _dt
import json
from pathlib import Path
from typing import Any, Iterable

from repro.core import schema as _schema
from repro.core.integrity import AlertEngine, IntegrityDiagram
from repro.core.locking import LockManager, ObjectTree
from repro.core.objects import (
    AnnotationSCI,
    BugReportSCI,
    DocumentDatabaseInfo,
    ImplementationSCI,
    ScriptSCI,
    TestRecordSCI,
)
from repro.core.reuse import ReuseManager
from repro.core.scm import ConfigurationManager
from repro.rdb import Database, col
from repro.storage.blob import BlobKind, BlobStore
from repro.storage.files import DocumentFile, FileKind, FileStore

__all__ = ["WebDocumentDatabase"]

_EPOCH = _dt.datetime(1999, 1, 1)


class WebDocumentDatabase:
    """The Web document DBMS on one station."""

    def __init__(
        self,
        station: str = "local",
        *,
        with_integrity: bool = True,
        blobs: BlobStore | None = None,
        files: FileStore | None = None,
    ) -> None:
        self.station = station
        self.engine = Database(f"wddb_{station}")
        for table_schema in _schema.ALL_SCHEMAS:
            self.engine.create_table(table_schema)
        self.blobs = blobs if blobs is not None else BlobStore(station=station)
        self.files = files if files is not None else FileStore(station=station)
        self.tree = ObjectTree(root="wddb")
        self.locks = LockManager(self.tree)
        self.scm = ConfigurationManager(self.locks)
        self.reuse = ReuseManager(self.blobs, self.files)
        self.alerts: AlertEngine | None = None
        if with_integrity:
            self.alerts = AlertEngine(
                self.engine, IntegrityDiagram.paper_default()
            )

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
        self.tree.add(f"db:{db_name}", self.tree.root)
        return info

    def document_databases(self) -> list[DocumentDatabaseInfo]:
        """All database-layer objects, ordered by name."""
        return [
            DocumentDatabaseInfo.from_row(row)
            for row in self.engine.select("doc_databases", order_by="db_name")
        ]

    # ------------------------------------------------------------------
    # BLOB layer
    # ------------------------------------------------------------------
    def register_blob(
        self,
        label: str,
        size_bytes: int,
        kind: BlobKind = BlobKind.OTHER,
        *,
        owner: str = "library",
    ) -> str:
        """Register a multimedia resource; returns its digest.

        Registering the same (label, size) twice shares storage — the
        paper's in-station BLOB sharing.
        """
        digest = self.blobs.put_synthetic(label, size_bytes, kind, owner=owner)
        if self.engine.get("blobs", digest) is None:
            self.engine.insert(
                "blobs",
                {
                    "digest": digest,
                    "kind": kind.value,
                    "size_bytes": size_bytes,
                    "label": label,
                },
            )
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
        self.tree.add(f"script:{script.script_name}", f"db:{script.db_name}")
        return script

    def script(self, script_name: str) -> ScriptSCI | None:
        """Fetch one script SCI by name (None if absent)."""
        row = self.engine.get("scripts", script_name)
        return None if row is None else ScriptSCI.from_row(row)

    def scripts_in(self, db_name: str) -> list[ScriptSCI]:
        """The paper's database-layer "script names" list, by query."""
        return [
            ScriptSCI.from_row(row)
            for row in self.engine.select(
                "scripts", where=col("db_name") == db_name,
                order_by="script_name",
            )
        ]

    def update_script(self, script_name: str, changes: dict[str, Any]) -> bool:
        """Update a script; bumps its version and fires integrity alerts."""
        row = self.engine.get("scripts", script_name)
        if row is None:
            return False
        changes = dict(changes)
        changes.setdefault("version", row["version"] + 1)
        return self.engine.update_pk("scripts", script_name, changes)

    def delete_script(self, script_name: str) -> bool:
        """Delete a script; implementations etc. cascade away."""
        impls = self.implementations_of(script_name)
        deleted = self.engine.delete_pk("scripts", script_name)
        if deleted:
            for impl in impls:
                self._forget_impl_tree(impl)
            self._tree_discard(f"script:{script_name}")
        return deleted

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
        return [
            ScriptSCI.from_row(row)
            for row in self.engine.select(
                "scripts", where=where, order_by="script_name"
            )
        ]

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

        Writes the files into the station file store, registers them in
        the file tables, and enforces the paper's rule that "each
        implementation contains at least one HTML file".
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
        impl = ImplementationSCI(
            starting_url=impl.starting_url,
            script_name=impl.script_name,
            author=impl.author,
            html_files=[self.files.write(f) for f in html_files],
            program_files=[self.files.write(f) for f in program_files],
            multimedia=list(impl.multimedia),
            created_at=impl.created_at,
        )
        self.engine.insert("implementations", impl.to_row())
        impl_node = f"impl:{impl.starting_url}"
        self.tree.add(impl_node, f"script:{impl.script_name}")
        for document_file, table in (
            *((f, "html_files") for f in html_files),
            *((f, "program_files") for f in program_files),
        ):
            if self.engine.get(table, document_file.path) is None:
                self.engine.insert(
                    table,
                    {
                        "path": document_file.path,
                        "station": self.station,
                        "starting_url": impl.starting_url,
                        "size_bytes": document_file.size,
                        "checksum": document_file.checksum,
                    },
                )
            self.tree.add(f"file:{document_file.path}", impl_node)
        for digest in impl.multimedia:
            if self.engine.get("blobs", digest) is None:
                raise LookupError(
                    f"multimedia digest {digest!r} is not registered"
                )
            self.blobs.acquire(digest, owner=f"impl:{impl.starting_url}")
        return impl

    def implementation(self, starting_url: str) -> ImplementationSCI | None:
        """Fetch one implementation SCI by starting URL (None if absent)."""
        row = self.engine.get("implementations", starting_url)
        return None if row is None else ImplementationSCI.from_row(row)

    def implementations_of(self, script_name: str) -> list[ImplementationSCI]:
        """The script table's "starting URLs" list, by query."""
        return [
            ImplementationSCI.from_row(row)
            for row in self.engine.select(
                "implementations",
                where=col("script_name") == script_name,
                order_by="starting_url",
            )
        ]

    def update_implementation(
        self, starting_url: str, changes: dict[str, Any]
    ) -> bool:
        """Update an implementation row; fires integrity alerts."""
        return self.engine.update_pk("implementations", starting_url, changes)

    def delete_implementation(self, starting_url: str) -> bool:
        """Delete one implementation (dependents cascade; BLOB refs released)."""
        impl = self.implementation(starting_url)
        deleted = self.engine.delete_pk("implementations", starting_url)
        if deleted and impl is not None:
            self._forget_impl_tree(impl)
            self.blobs.release_owner(f"impl:{starting_url}")
        return deleted

    # ------------------------------------------------------------------
    # Test records / bug reports / annotations
    # ------------------------------------------------------------------
    def add_test_record(self, record: TestRecordSCI) -> TestRecordSCI:
        """File a test record against an existing implementation."""
        self.engine.insert("test_records", record.to_row())
        self.tree.add(
            f"test:{record.test_record_name}", f"impl:{record.starting_url}"
        )
        return record

    def test_records_of(self, starting_url: str) -> list[TestRecordSCI]:
        """All test records filed against one implementation."""
        return [
            TestRecordSCI.from_row(row)
            for row in self.engine.select(
                "test_records",
                where=col("starting_url") == starting_url,
                order_by="test_record_name",
            )
        ]

    def add_bug_report(self, report: BugReportSCI) -> BugReportSCI:
        """File a bug report against an existing test record."""
        self.engine.insert("bug_reports", report.to_row())
        self.tree.add(
            f"bug:{report.bug_report_name}", f"test:{report.test_record_name}"
        )
        return report

    def bug_reports_of(self, test_record_name: str) -> list[BugReportSCI]:
        """All bug reports created for one test record."""
        return [
            BugReportSCI.from_row(row)
            for row in self.engine.select(
                "bug_reports",
                where=col("test_record_name") == test_record_name,
                order_by="bug_report_name",
            )
        ]

    def add_annotation(
        self, annotation: AnnotationSCI, annotation_file: DocumentFile
    ) -> AnnotationSCI:
        """Store an instructor's annotation overlay and its file."""
        if annotation_file.kind is not FileKind.ANNOTATION:
            raise ValueError(
                f"{annotation_file.path!r} is not an annotation file"
            )
        descriptor = self.files.write(annotation_file)
        annotation = AnnotationSCI(
            annotation_name=annotation.annotation_name,
            author=annotation.author,
            script_name=annotation.script_name,
            starting_url=annotation.starting_url,
            annotation_file=descriptor,
            version=annotation.version,
            created_at=annotation.created_at,
        )
        self.engine.insert("annotations", annotation.to_row())
        if self.engine.get("annotation_files", annotation_file.path) is None:
            self.engine.insert(
                "annotation_files",
                {
                    "path": annotation_file.path,
                    "station": self.station,
                    "starting_url": annotation.starting_url,
                    "size_bytes": annotation_file.size,
                    "checksum": annotation_file.checksum,
                },
            )
        self.tree.add(
            f"ann:{annotation.annotation_name}",
            f"impl:{annotation.starting_url}",
        )
        return annotation

    def annotations_of(self, starting_url: str) -> list[AnnotationSCI]:
        """All instructors' overlays on one implementation."""
        return [
            AnnotationSCI.from_row(row)
            for row in self.engine.select(
                "annotations",
                where=col("starting_url") == starting_url,
                order_by="annotation_name",
            )
        ]

    def annotations_by(self, author: str) -> list[AnnotationSCI]:
        """One instructor's annotations across all courses."""
        return [
            AnnotationSCI.from_row(row)
            for row in self.engine.select(
                "annotations",
                where=col("author") == author,
                order_by="annotation_name",
            )
        ]

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

        Small objects (the script row, implementation rows, HTML and
        program files) are physically copied under a ``<new name>/``
        path prefix; BLOB digests are re-referenced, not re-stored —
        exactly the paper's size-based split.  ``modifications`` patches
        the new script row (description, keywords, ...).
        """
        source = self.script(script_name)
        if source is None:
            raise LookupError(f"unknown script {script_name!r}")
        if self.script(new_script_name) is not None:
            raise ValueError(f"script {new_script_name!r} already exists")
        new_script = ScriptSCI(
            script_name=new_script_name,
            db_name=source.db_name,
            author=author if author is not None else source.author,
            description=source.description,
            keywords=list(source.keywords),
            version=1,
            created_at=source.created_at,
            verbal_description=source.verbal_description,
            expected_completion=source.expected_completion,
            percent_complete=source.percent_complete,
            multimedia=list(source.multimedia),
        )
        for key, value in (modifications or {}).items():
            setattr(new_script, key, value)
        self.add_script(new_script)
        prefix = f"{new_script_name}/"
        for impl in self.implementations_of(script_name):
            # Rewrite paths (and the links between them) under the new
            # prefix so the duplicate is self-contained.
            mapping = {
                fd.path: f"{prefix}{fd.path}" for fd in impl.html_files
            }
            new_html = []
            for fd in impl.html_files:
                original = self.files.read(fd.path)
                content = original.content
                for old_path, new_path in mapping.items():
                    content = content.replace(old_path, new_path)
                new_html.append(
                    DocumentFile(mapping[fd.path], original.kind, content)
                )
            new_programs = [
                DocumentFile(
                    f"{prefix}{fd.path}",
                    self.files.read(fd.path).kind,
                    self.files.read(fd.path).content,
                )
                for fd in impl.program_files
            ]
            self.add_implementation(
                ImplementationSCI(
                    starting_url=f"{impl.starting_url}{new_script_name}/",
                    script_name=new_script_name,
                    author=new_script.author,
                    multimedia=list(impl.multimedia),  # shared BLOBs
                    created_at=impl.created_at,
                ),
                html_files=new_html,
                program_files=new_programs,
            )
        return new_script

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Persist the whole station database to ``directory``.

        Writes the relational snapshot plus the document files.  BLOB
        bytes are synthetic in this reproduction, so the blobs table is
        sufficient to rebuild the store; ownership is reconstructed from
        the implementation rows on load.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.engine.snapshot(str(directory / "tables.json"))
        files_payload = {
            document.path: {
                "kind": document.kind.value,
                "content": document.content,
            }
            for document in self.files.files()
        }
        (directory / "files.json").write_text(
            json.dumps(files_payload, separators=(",", ":")),
            encoding="utf-8",
        )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        station: str = "local",
        *,
        with_integrity: bool = True,
    ) -> "WebDocumentDatabase":
        """Rebuild a station database saved by :meth:`save`.

        Restores rows, files, the BLOB store (with per-implementation
        ownership) and the lock-tree hierarchy.
        """
        directory = Path(directory)
        db = cls(station, with_integrity=with_integrity)
        # Rows are applied mechanically (the snapshot was consistent, so
        # constraint re-checking is unnecessary).
        db.engine.load_snapshot(directory / "tables.json")
        files_payload = json.loads(
            (directory / "files.json").read_text(encoding="utf-8")
        )
        for path, entry in files_payload.items():
            db.files.write(
                DocumentFile(path, FileKind(entry["kind"]), entry["content"])
            )
        # Rebuild the BLOB store from the registry + implementations.
        for row in db.engine.select("blobs"):
            db.blobs.put_synthetic(
                row["label"], row["size_bytes"],
                BlobKind(row["kind"]), owner="library",
            )
        # Rebuild the lock tree, then re-acquire per-impl BLOB ownership.
        for row in db.engine.select("doc_databases"):
            db.tree.add(f"db:{row['db_name']}", db.tree.root)
        for row in db.engine.select("scripts"):
            db.tree.add(f"script:{row['script_name']}",
                        f"db:{row['db_name']}")
        for row in db.engine.select("implementations"):
            node = f"impl:{row['starting_url']}"
            db.tree.add(node, f"script:{row['script_name']}")
            for descriptor in (*row["html_files"], *row["program_files"]):
                db.tree.add(f"file:{descriptor['path']}", node)
            for digest in row["multimedia"] or []:
                db.blobs.acquire(digest, f"impl:{row['starting_url']}")
        for row in db.engine.select("test_records"):
            db.tree.add(f"test:{row['test_record_name']}",
                        f"impl:{row['starting_url']}")
        for row in db.engine.select("bug_reports"):
            db.tree.add(f"bug:{row['bug_report_name']}",
                        f"test:{row['test_record_name']}")
        for row in db.engine.select("annotations"):
            db.tree.add(f"ann:{row['annotation_name']}",
                        f"impl:{row['starting_url']}")
        return db

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Row counts, storage metering and pending-alert count."""
        engine_stats = self.engine.stats()
        return {
            "station": self.station,
            "tables": engine_stats["tables"],
            "statements": engine_stats["statements"],
            "blob_stats": self.blobs.stats(),
            "file_bytes": self.files.total_bytes,
            "pending_alerts": len(self.alerts.alerts) if self.alerts else 0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _forget_impl_tree(self, impl: ImplementationSCI) -> None:
        """Remove an implementation's lock-tree subtree after cascade."""
        impl_node = f"impl:{impl.starting_url}"
        if impl_node not in self.tree:
            return
        # Delete leaves first (tree.remove refuses non-leaves).
        stack = [impl_node]
        order: list[str] = []
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.tree.children(node))
        for node in reversed(order):
            self._tree_discard(node)

    def _tree_discard(self, node: str) -> None:
        if node in self.tree and not self.tree.children(node):
            self.tree.remove(node)
