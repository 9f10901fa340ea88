"""A small in-memory relational database engine.

This package is the stand-in for the "off-the-rack relational database
system" (MS SQL Server in the paper) that the Web document database of
Shih, Ma and Huang (ICPP 1999) layers its object hierarchy on.  It
provides everything the paper's design actually exercises:

* typed columns and schemas (:mod:`repro.rdb.types`),
* heap tables with primary keys (:mod:`repro.rdb.table`),
* hash and sorted secondary indexes (:mod:`repro.rdb.index`),
* a composable predicate language (:mod:`repro.rdb.predicate`),
* select / insert / update / delete with joins (:mod:`repro.rdb.query`),
* primary-key / unique / foreign-key / not-null constraints with
  RESTRICT, CASCADE and SET NULL actions (:mod:`repro.rdb.constraints`),
* undo-log transactions with savepoints (:mod:`repro.rdb.transaction`),
* row-level triggers (:mod:`repro.rdb.triggers`) — the hook used by the
  referential-integrity alert diagram in :mod:`repro.core.integrity`,
* a write-ahead journal and snapshot recovery (:mod:`repro.rdb.wal`),
* and the :class:`~repro.rdb.engine.Database` facade binding them.

The implementation favours clarity over raw speed, per the optimization
guide's "make it work, make it right" ordering; the few hot paths
(index maintenance, predicate evaluation) avoid needless allocation.
"""

from repro.rdb.types import Column, ColumnType, Schema
from repro.rdb.compile import (
    batch_filter,
    compiled_predicate,
    compiled_source,
    predicate_fn,
)
from repro.rdb.predicate import Expr, col, lit, predicate_cache_key
from repro.rdb.query import SelectPlan
from repro.rdb.constraints import Action, ForeignKey
from repro.rdb.engine import Database
from repro.rdb.errors import (
    CheckError,
    ConstraintError,
    DuplicateKeyError,
    ForeignKeyError,
    JournalCorruptError,
    NotNullError,
    RdbError,
    SchemaError,
    TransactionError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.rdb.wal import (
    Journal,
    RecoveryStats,
    SyncPolicy,
    WalFrame,
    parse_frame,
    read_frames,
)
from repro.rdb.triggers import TriggerEvent, TriggerTiming

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "Expr",
    "col",
    "lit",
    "predicate_cache_key",
    "batch_filter",
    "compiled_predicate",
    "compiled_source",
    "predicate_fn",
    "SelectPlan",
    "Action",
    "ForeignKey",
    "Database",
    "RdbError",
    "SchemaError",
    "JournalCorruptError",
    "Journal",
    "RecoveryStats",
    "SyncPolicy",
    "WalFrame",
    "parse_frame",
    "read_frames",
    "CheckError",
    "ConstraintError",
    "DuplicateKeyError",
    "ForeignKeyError",
    "NotNullError",
    "TransactionError",
    "UnknownColumnError",
    "UnknownTableError",
    "TriggerEvent",
    "TriggerTiming",
]
