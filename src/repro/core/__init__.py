"""The Web document database — the paper's primary contribution.

The package implements §3 and the station-local half of §4:

* :mod:`repro.core.schema` — the three-layer table design (database /
  document / BLOB layers) expressed as relational schemas over
  :mod:`repro.rdb`.
* :mod:`repro.core.objects` — typed SCI objects (Script, Implementation,
  TestRecord, BugReport, Annotation) that load/store those rows.
* :mod:`repro.core.wddb` — :class:`WebDocumentDatabase`, the DBMS facade
  the tools program against.  Its rows are the station's document
  classes (template courses naming shared BLOBs) and instances
  (:meth:`~repro.core.wddb.WebDocumentDatabase.duplicate_course` copies).
* :mod:`repro.core.integrity` — the referential-integrity diagram with
  labeled ``+``/``*`` links and update-alert propagation.
* :mod:`repro.core.locking` — the object-locking compatibility table for
  collaborative course editing.
* :mod:`repro.core.scm` — software-configuration management: check-in /
  check-out and version chains of a station's HTML and program files.
"""

from repro.core.objects import (
    AnnotationSCI,
    BugReportSCI,
    DocumentDatabaseInfo,
    ImplementationSCI,
    ScriptSCI,
    TestRecordSCI,
    TestScope,
)
from repro.core.wddb import WebDocumentDatabase
from repro.core.integrity import Alert, IntegrityDiagram, Multiplicity
from repro.core.locking import (
    LockConflictError,
    LockHierarchyError,
    LockManager,
    LockMode,
    ObjectTree,
)
from repro.core.scm import CheckoutError, ConfigurationManager, VersionRecord
from repro.core.complexity import CourseComplexity, measure_complexity

__all__ = [
    "CourseComplexity",
    "measure_complexity",
    "AnnotationSCI",
    "BugReportSCI",
    "DocumentDatabaseInfo",
    "ImplementationSCI",
    "ScriptSCI",
    "TestRecordSCI",
    "TestScope",
    "WebDocumentDatabase",
    "Alert",
    "IntegrityDiagram",
    "Multiplicity",
    "LockMode",
    "LockManager",
    "LockConflictError",
    "LockHierarchyError",
    "ObjectTree",
    "CheckoutError",
    "ConfigurationManager",
    "VersionRecord",
]
