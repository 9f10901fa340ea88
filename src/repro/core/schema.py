"""The three-layer table design of the Web document database.

Mirrors §3 of the paper.  The paper lists cross-references in *both*
directions ("Starting URLs: foreign key to the implementation table" in
the script table AND "Script name: foreign key to the script table" in
the implementation table); relationally the child side holds the FK, so
each list-valued "foreign key" attribute of a parent is realized as the
child's FK column plus an index — the parent-side lists in the paper's
prose are reconstructed by query (see
:meth:`repro.core.wddb.WebDocumentDatabase.implementations_of` etc.).

Layers:

* **Database layer** — ``doc_databases``: one row per Web document
  database (name, keywords, author, version, date/time).  Script names
  "belonging" to it are the scripts rows carrying its FK.
* **Document layer** — ``scripts``, ``implementations``,
  ``test_records``, ``bug_reports``, ``annotations`` plus the file
  registries ``html_files``, ``program_files``, ``annotation_files``,
  the station's document ``files`` themselves (path, kind, content) and
  the ``versions`` of each checked-in HTML or program file.
* **BLOB layer** — ``blobs``: the registry of multimedia resources
  (video / audio / image / animation / MIDI) and whether the station
  holds each; actual bytes live in the per-station
  :class:`~repro.storage.blob.BlobStore`, shared by instances and
  classes.
"""

from __future__ import annotations

from repro.rdb import Action, Column, ColumnType, ForeignKey, Schema

__all__ = [
    "DOC_DATABASES",
    "SCRIPTS",
    "IMPLEMENTATIONS",
    "TEST_RECORDS",
    "BUG_REPORTS",
    "ANNOTATIONS",
    "HTML_FILES",
    "PROGRAM_FILES",
    "ANNOTATION_FILES",
    "FILES",
    "VERSIONS",
    "BLOBS",
    "ALL_SCHEMAS",
]

T = ColumnType

#: Database layer — one row per Web document database.
DOC_DATABASES = Schema(
    name="doc_databases",
    columns=(
        Column("db_name", T.TEXT, nullable=False),
        Column("keywords", T.JSON, default=[]),
        Column("author", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("created_at", T.DATETIME, nullable=False),
    ),
    primary_key=("db_name",),
)

#: BLOB layer registry (bytes live in the station BlobStore).
BLOBS = Schema(
    name="blobs",
    columns=(
        Column("digest", T.TEXT, nullable=False),
        Column("kind", T.TEXT, nullable=False),  # BlobKind values
        Column("size_bytes", T.INT, nullable=False,
               check=lambda v: v >= 0, check_label="size_non_negative"),
        Column("label", T.TEXT, nullable=False),
        # the station holds the bytes (False: registered, kept remote)
        Column("held", T.BOOL, nullable=False, default=False),
    ),
    primary_key=("digest",),
)

#: Document layer — scripts ("similar to a software system
#: specification, can describe a course material, or a quiz").
SCRIPTS = Schema(
    name="scripts",
    columns=(
        Column("script_name", T.TEXT, nullable=False),
        Column("db_name", T.TEXT, nullable=False),
        Column("keywords", T.JSON, default=[]),
        Column("author", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("created_at", T.DATETIME, nullable=False),
        Column("description", T.TEXT, nullable=False, default=""),
        # "the author may have a verbal description which is stored in a
        # multimedia resource file" — optional pointer into the BLOB layer.
        Column("verbal_description", T.TEXT, nullable=True),
        Column("expected_completion", T.DATETIME, nullable=True),
        Column("percent_complete", T.FLOAT, nullable=False, default=0.0,
               check=lambda v: 0.0 <= v <= 100.0,
               check_label="percent_in_range"),
        # file descriptors pointing to multimedia files (BLOB digests)
        Column("multimedia", T.JSON, default=[]),
    ),
    primary_key=("script_name",),
    foreign_keys=(
        ForeignKey(("db_name",), "doc_databases", ("db_name",),
                   on_delete=Action.CASCADE),
        ForeignKey(("verbal_description",), "blobs", ("digest",),
                   on_delete=Action.SET_NULL),
    ),
)

#: Document layer — implementations ("with respect to a script, the
#: instructor can have different tries of implementation; each contains
#: at least one HTML file").
IMPLEMENTATIONS = Schema(
    name="implementations",
    columns=(
        Column("starting_url", T.TEXT, nullable=False),
        Column("script_name", T.TEXT, nullable=False),
        Column("author", T.TEXT, nullable=False),
        Column("created_at", T.DATETIME, nullable=False),
        # lists of FileDescriptor JSON objects
        Column("html_files", T.JSON, nullable=False),
        Column("program_files", T.JSON, default=[]),
        # list of BLOB digests used by this implementation
        Column("multimedia", T.JSON, default=[]),
    ),
    primary_key=("starting_url",),
    foreign_keys=(
        ForeignKey(("script_name",), "scripts", ("script_name",),
                   on_delete=Action.CASCADE, on_update=Action.CASCADE),
    ),
)

#: Document layer — test records for implementations.
TEST_RECORDS = Schema(
    name="test_records",
    columns=(
        Column("test_record_name", T.TEXT, nullable=False),
        Column("scope", T.TEXT, nullable=False, default="local",
               check=lambda v: v in ("local", "global"),
               check_label="scope_local_or_global"),
        # "windowing messages which control a Web document traversal"
        Column("traversal_messages", T.JSON, default=[]),
        Column("script_name", T.TEXT, nullable=False),
        Column("starting_url", T.TEXT, nullable=False),
        Column("created_at", T.DATETIME, nullable=False),
        Column("passed", T.BOOL, nullable=True),
    ),
    primary_key=("test_record_name",),
    foreign_keys=(
        ForeignKey(("script_name",), "scripts", ("script_name",),
                   on_delete=Action.CASCADE, on_update=Action.CASCADE),
        ForeignKey(("starting_url",), "implementations", ("starting_url",),
                   on_delete=Action.CASCADE),
    ),
)

#: Document layer — bug reports filed against test records.
BUG_REPORTS = Schema(
    name="bug_reports",
    columns=(
        Column("bug_report_name", T.TEXT, nullable=False),
        Column("qa_engineer", T.TEXT, nullable=False),
        Column("test_procedure", T.TEXT, nullable=False, default=""),
        Column("bug_description", T.TEXT, nullable=False, default=""),
        Column("bad_urls", T.JSON, default=[]),
        Column("missing_objects", T.JSON, default=[]),
        Column("inconsistency", T.TEXT, nullable=False, default=""),
        Column("redundant_objects", T.JSON, default=[]),
        Column("test_record_name", T.TEXT, nullable=False),
        Column("created_at", T.DATETIME, nullable=False),
    ),
    primary_key=("bug_report_name",),
    foreign_keys=(
        ForeignKey(("test_record_name",), "test_records",
                   ("test_record_name",), on_delete=Action.CASCADE),
    ),
)

#: Document layer — per-instructor annotations over an implementation
#: ("different instructors can use the same virtual course but
#: different annotations").
ANNOTATIONS = Schema(
    name="annotations",
    columns=(
        Column("annotation_name", T.TEXT, nullable=False),
        Column("author", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("created_at", T.DATETIME, nullable=False),
        # FileDescriptor JSON of the annotation file
        Column("annotation_file", T.JSON, nullable=False),
        Column("script_name", T.TEXT, nullable=False),
        Column("starting_url", T.TEXT, nullable=False),
    ),
    primary_key=("annotation_name",),
    foreign_keys=(
        ForeignKey(("script_name",), "scripts", ("script_name",),
                   on_delete=Action.CASCADE, on_update=Action.CASCADE),
        ForeignKey(("starting_url",), "implementations", ("starting_url",),
                   on_delete=Action.CASCADE),
    ),
)


def _file_registry(name: str) -> Schema:
    """Registry of document-layer files of one kind for one station."""
    return Schema(
        name=name,
        columns=(
            Column("path", T.TEXT, nullable=False),
            Column("station", T.TEXT, nullable=False),
            Column("starting_url", T.TEXT, nullable=False),
            Column("size_bytes", T.INT, nullable=False, default=0),
            Column("checksum", T.TEXT, nullable=False, default=""),
        ),
        primary_key=("path",),
        foreign_keys=(
            ForeignKey(("starting_url",), "implementations",
                       ("starting_url",), on_delete=Action.CASCADE),
        ),
    )


HTML_FILES = _file_registry("html_files")
PROGRAM_FILES = _file_registry("program_files")
ANNOTATION_FILES = _file_registry("annotation_files")

#: The station's document files (:class:`~repro.storage.files.FileStore`).
FILES = Schema(
    name="files",
    columns=(
        Column("path", T.TEXT, nullable=False),
        Column("kind", T.TEXT, nullable=False),  # FileKind values
        Column("content", T.TEXT, nullable=False),
    ),
    primary_key=("path",),
)

#: Each checked-in HTML or program file's version chain
#: (:class:`~repro.core.scm.ConfigurationManager`); it goes with its file.
VERSIONS = Schema(
    name="versions",
    columns=(
        Column("path", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False),
        Column("author", T.TEXT, nullable=False),
        Column("content", T.TEXT, nullable=False),
        Column("comment", T.TEXT, nullable=False, default=""),
        Column("created_at", T.DATETIME, nullable=False),
    ),
    primary_key=("path", "version"),
    foreign_keys=(
        ForeignKey(("path",), "files", ("path",), on_delete=Action.CASCADE),
    ),
)

#: Creation order respects FK dependencies (parents first).
ALL_SCHEMAS = (
    DOC_DATABASES,
    BLOBS,
    SCRIPTS,
    IMPLEMENTATIONS,
    TEST_RECORDS,
    BUG_REPORTS,
    ANNOTATIONS,
    HTML_FILES,
    PROGRAM_FILES,
    ANNOTATION_FILES,
    FILES,
    VERSIONS,
)
