"""The :class:`Database` facade — the engine's public API.

Binds the catalog, constraint checker, trigger registry, transaction
manager and (optionally) a write-ahead journal into the interface the
rest of the reproduction programs against::

    db = Database("mmu")
    db.create_table(schema)
    db.insert("scripts", {"script_name": "cs101", ...})
    rows = db.select("scripts", where=col("author") == "shih")
    with db.transaction():
        db.update_pk("scripts", ("cs101",), {"version": 2})

Statements outside an explicit transaction autocommit atomically (a
CASCADE delete either fully applies or fully rolls back).
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, BinaryIO, Callable, Iterator, Sequence

from repro.obs.instrument import OBS, Instrument, family
from repro.rdb.catalog import Catalog
from repro.rdb.constraints import Action, ConstraintChecker, ForeignKey
from repro.rdb.errors import (
    ForeignKeyError,
    RdbError,
    SchemaError,
    TransactionError,
)
from repro.rdb.compile import cache_stats
from repro.rdb.predicate import Expr
from repro.rdb.query import (
    aggregate_table,
    execute_select,
    join_rows,
    key_rows,
    matching_view,
    plan_select,
    target_rowids,
)
from repro.rdb.table import Table
from repro.rdb.transaction import Transaction, TransactionManager, UndoRecord
from repro.rdb.triggers import TriggerEvent, TriggerRegistry, TriggerTiming
from repro.rdb.types import Schema
from repro.rdb.wal import (
    Journal,
    RecoveryStats,
    SyncPolicy,
    WalFrame,
    decode_key,
    decode_row,
    encode_key,
    encode_row,
    parse_snapshot,
    read_frames,
    write_snapshot,
)
from repro.util.validation import check_identifier

__all__ = ["Database"]

STATEMENTS = Instrument(
    "counter", "rdb.statements", "kind",
    values=("insert", "update", "delete", "select"),
)
STATEMENT_SECONDS = Instrument("histogram", "rdb.statement_seconds")
TXN_SECONDS = Instrument(
    "histogram", "rdb.txn_seconds", "outcome", values=("commit", "rollback")
)
family(STATEMENTS, STATEMENT_SECONDS, TXN_SECONDS)
CHECKPOINT_SECONDS = Instrument("histogram", "wal.checkpoint_seconds")
#: what a recovery counts, by the :class:`RecoveryStats` field it reads
RECOVERY_TALLIES = {
    tally: Instrument("counter", f"wal.{tally}")
    for tally in ("records_recovered", "torn_tails", "checksum_failures")
}


def _as_pk(pk: Any) -> tuple:
    """Normalize a scalar or sequence primary key into a tuple."""
    if isinstance(pk, tuple):
        return pk
    if isinstance(pk, list):
        return tuple(pk)
    return (pk,)


class _Statement:
    """One statement's scope: reuse the open transaction, or autocommit
    a scratch one — either way the statement is atomic.  It marks the
    undo log and the WAL buffer on entry; a statement that fails inside
    a caller-owned transaction is undone back to the marks, so neither
    its first rows nor their ops outlive it."""

    __slots__ = ("db", "owned", "undo_mark", "wal_mark", "started_at")

    def __init__(self, db: "Database") -> None:
        self.db = db

    def __enter__(self) -> None:
        db = self.db
        db.statements += 1
        self.started_at = OBS.clock() if OBS.enabled else None
        txn = db._txn.active
        self.owned = txn is None
        if txn is None:
            txn = db._txn.begin()
        self.undo_mark = len(txn.undo_log)
        self.wal_mark = len(db._wal_buffer)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        db = self.db
        try:
            if exc_type is None:
                if self.owned:
                    try:
                        db._txn.commit(db._flush_wal)
                    except BaseException:
                        # A failed journal append leaves the scratch
                        # transaction open (durability-first commit).
                        db._txn.rollback()
                        db._wal_buffer.clear()
                        raise
            elif self.owned:
                db._txn.rollback()
                db._wal_buffer.clear()
            else:
                db._txn.active.undo_to(self.undo_mark)
                del db._wal_buffer[self.wal_mark:]
        finally:
            if self.started_at is not None and OBS.enabled:
                STATEMENT_SECONDS[()].observe(OBS.clock() - self.started_at)


class Database:
    """An in-memory relational database with optional journaling."""

    def __init__(self, name: str = "db") -> None:
        check_identifier(name, "database name")
        self.name = name
        self._catalog = Catalog()
        self._checker = ConstraintChecker(self._catalog.tables)
        self._triggers = TriggerRegistry()
        self._txn = TransactionManager()
        self._journal: Journal | None = None
        self._wal_buffer: list[list[Any]] = []
        self._wal_savepoints: dict[str, int] = {}
        self.statements = 0
        self._txn_began_at: float | None = None
        #: Filled in by :meth:`open` / :meth:`recover`; None when fresh.
        self.recovery_stats: RecoveryStats | None = None
        #: The file the journal's checkpoint is staged against: where
        #: :meth:`snapshot` last dumped (or :meth:`open` loaded) it.
        self.snapshot_path: str | os.PathLike[str] | None = None
        #: What :meth:`apply_2pc` has read of two-phase commit: the ops
        #: of each PREPARE still awaiting its outcome (in doubt if the
        #: journal ends there), and every journaled outcome by gtxn.
        self.prepared_ops: dict[str, list[Any]] = {}
        self.outcomes: dict[str, str] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, schema: Schema) -> None:
        """Create a table from ``schema`` (see :class:`repro.rdb.Schema`)."""
        self._catalog.create_table(schema)

    def drop_table(self, name: str) -> None:
        """Drop a table (refused while other tables reference it)."""
        self._catalog.drop_table(name)

    def table_names(self) -> list[str]:
        """Sorted names of all tables."""
        return self._catalog.names()

    def schemas(self) -> list[Schema]:
        """Every table's schema in creation order — a foreign key's
        parent before its child, the order :meth:`open` wants."""
        return [self._catalog.get(name).schema for name in self._catalog]

    def table(self, name: str) -> Table:
        """Access the underlying table object (tests, planners)."""
        return self._catalog.get(name)

    def schema(self, name: str) -> Schema:
        """The schema of one table."""
        return self._catalog.get(name).schema

    def create_hash_index(self, table: str, name: str, columns: Sequence[str]) -> None:
        """Create a secondary hash (equality) index."""
        self._catalog.get(table).create_hash_index(name, tuple(columns))

    def create_sorted_index(self, table: str, name: str, column: str) -> None:
        """Create a secondary sorted (range) index."""
        self._catalog.get(table).create_sorted_index(name, column)

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def register_trigger(
        self,
        name: str,
        table: str,
        event: TriggerEvent,
        timing: TriggerTiming,
        fn: Callable,
    ) -> None:
        """Register a row-level trigger; ``fn(ctx: TriggerContext)``."""
        self._catalog.get(table)  # raise early on unknown table
        self._triggers.register(name, table, event, timing, fn)

    def drop_trigger(self, name: str, table: str) -> bool:
        """Remove a trigger; returns False when it was not registered."""
        return self._triggers.drop(name, table)

    def triggers_on(self, table: str) -> list[str]:
        """Names of the triggers registered on ``table``."""
        return self._triggers.names_for(table)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open an explicit transaction."""
        self._txn.begin()
        if OBS.enabled:
            self._txn_began_at = OBS.clock()

    def commit(self) -> None:
        """Commit the explicit transaction (journals its ops)."""
        self._txn.commit(self._flush_wal)
        self._observe_txn("commit")

    def rollback(self) -> None:
        """Roll back the explicit transaction (undoes its ops)."""
        self._txn.rollback()
        self._wal_buffer.clear()
        self._wal_savepoints.clear()
        self._observe_txn("rollback")

    def savepoint(self, name: str) -> None:
        """Mark a named savepoint inside the open transaction."""
        if self._txn.active is None:
            raise TransactionError("savepoint outside a transaction")
        self._txn.active.savepoint(name)
        self._wal_savepoints[name] = len(self._wal_buffer)

    def rollback_to(self, name: str) -> None:
        """Undo everything back to a savepoint (transaction stays open)."""
        if self._txn.active is None:
            raise TransactionError("rollback_to outside a transaction")
        self._txn.active.rollback_to(name)
        # Drop the journal entries for the ops that were just undone so
        # the committed WAL matches the surviving effects.
        mark = self._wal_savepoints.get(name, 0)
        del self._wal_buffer[mark:]
        self._wal_savepoints = {
            sp: pos for sp, pos in self._wal_savepoints.items() if pos <= mark
        }

    def pending_wal_ops(self) -> list[list[Any]]:
        """Encoded replay ops of the open transaction (copy).

        The two-phase-commit prepare hook: a sharding participant runs
        the transaction's statements (constraints checked, triggers
        fired), rolls the transaction back and journals this op list
        inside its PREPARE record — the exact bytes a normal commit
        would have appended — for :meth:`apply_2pc` to hold until the
        outcome record replays them.
        """
        if not self._txn.in_transaction:
            raise TransactionError("pending_wal_ops outside a transaction")
        return [list(op) for op in self._wal_buffer]

    @property
    def in_transaction(self) -> bool:
        return self._txn.in_transaction

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """``with db.transaction():`` — commit on success, rollback on error."""
        self.begin()
        try:
            yield
        except BaseException:
            self.rollback()
            raise
        else:
            try:
                self.commit()
            except BaseException:
                # A failed journal append leaves the transaction open
                # (durability-first commit); undo its effects so the
                # in-memory state matches the journal before re-raising.
                self.rollback()
                raise

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(self, table_name: str, values: dict[str, Any]) -> tuple:
        """Insert one row; returns its primary-key tuple."""
        table = self._catalog.get(table_name)
        row = table.schema.normalize_row(values)
        if OBS.enabled:
            STATEMENTS["insert"].inc()
        with _Statement(self):
            self._insert_row(table, table_name, row)
        return table.schema.primary_key_of(row)

    def insert_many(
        self, table_name: str, rows: Sequence[dict[str, Any]]
    ) -> list[tuple]:
        """Insert several rows atomically; returns their PK tuples.

        :meth:`insert`'s own steps under one statement scope: rows are
        normalized up front, then checked and applied one at a time —
        constraint checks consult the live indexes, so each row must be
        checked after its predecessors landed.
        """
        table = self._catalog.get(table_name)
        normalized = list(map(table.schema.normalize_row, rows))
        if OBS.enabled and normalized:
            STATEMENTS["insert"].inc(len(normalized))
        insert_row = self._insert_row
        with _Statement(self):
            # One statement wrapper for the whole batch; the statement
            # counter still advances once per row plus the wrapper,
            # matching the per-row form this replaces.
            self.statements += len(normalized)
            for row in normalized:
                insert_row(table, table_name, row)
        return list(map(table.schema.primary_key_of, normalized))

    def _insert_row(
        self, table: Table, table_name: str, row: dict[str, Any]
    ) -> None:
        """BEFORE triggers, constraints, heap + indexes, undo record,
        journal op, AFTER triggers — for one normalized row."""
        fire = self._triggers.fire
        fire(table_name, TriggerEvent.INSERT, TriggerTiming.BEFORE, None, row)
        self._checker.check_insert(table, row)
        rowid = table.apply_insert(row)
        self._txn.record(UndoRecord("insert", table, rowid, None))
        self._wal_buffer.append(["insert", table_name, encode_row(row)])
        fire(table_name, TriggerEvent.INSERT, TriggerTiming.AFTER, None, row)

    def upsert(self, table_name: str, values: dict[str, Any]) -> bool:
        """Insert, or update the existing row with the same primary key.

        Returns True when a new row was created, False on update.  The
        values must include every primary-key column.
        """
        table = self._catalog.get(table_name)
        schema = table.schema
        try:
            pk = tuple(values[c] for c in schema.primary_key)
        except KeyError as exc:
            raise SchemaError(
                f"upsert into {table_name!r} needs primary-key column "
                f"{exc.args[0]!r}"
            ) from None
        with _Statement(self):
            if table.rowid_for_pk(pk) is None:
                self.insert(table_name, values)
                return True
            changes = {
                k: v for k, v in values.items()
                if k not in schema.primary_key
            }
            if changes:
                self.update_pk(table_name, pk, changes)
            return False

    def get(self, table_name: str, pk: Any) -> dict[str, Any] | None:
        """Fetch one row by primary key (scalar or tuple); None if absent."""
        table = self._catalog.get(table_name)
        row = table.row_for_pk(_as_pk(pk))
        return dict(row) if row is not None else None

    def exists(self, table_name: str, pk: Any) -> bool:
        """True when a row with primary key ``pk`` exists."""
        return self.get(table_name, pk) is not None

    def count(self, table_name: str, where: Expr | None = None) -> int:
        """Count rows matching ``where`` (all rows when None)."""
        table = self._catalog.get(table_name)
        if where is None:
            return len(table)
        return len(matching_view(table, where))

    def select(
        self,
        table_name: str,
        where: Expr | None = None,
        order_by: str | Sequence[str] | None = None,
        descending: bool = False,
        limit: int | None = None,
        offset: int = 0,
        columns: Sequence[str] | None = None,
        distinct: bool = False,
    ) -> list[dict[str, Any]]:
        """Select rows; see :func:`repro.rdb.query.execute_select`."""
        table = self._catalog.get(table_name)
        if OBS.enabled:
            STATEMENTS["select"].inc()
        return execute_select(
            table,
            where=where,
            order_by=order_by,
            descending=descending,
            limit=limit,
            offset=offset,
            columns=columns,
            distinct=distinct,
        )

    def rows_by_key(
        self, table_name: str, columns: Sequence[str], key: tuple,
        column: str | None = None,
    ) -> list[Any]:
        """Copies of the rows whose ``columns`` hold ``key``, by row id —
        or, given ``column``, its values; see
        :func:`repro.rdb.query.key_rows`."""
        table = self._catalog.get(table_name)
        if OBS.enabled:
            STATEMENTS["select"].inc()
        return key_rows(table, tuple(columns), key, column)

    def explain(
        self, table_name: str, where: Expr | None = None,
        order_by: str | Sequence[str] | None = None, limit: int | None = None,
    ) -> str:
        """Describe the access path a select would use (cost, conjuncts,
        range pushdown; given ``order_by`` and ``limit``, the top-k too)."""
        return self.explain_plan(table_name, where, order_by, limit).describe()

    def explain_plan(
        self, table_name: str, where: Expr | None = None,
        order_by: str | Sequence[str] | None = None, limit: int | None = None,
    ):
        """The :class:`~repro.rdb.query.SelectPlan` a select would use
        (programmatic EXPLAIN for tests, benchmarks and plan guards)."""
        table = self._catalog.get(table_name)
        return plan_select(table, where, order_by, top=limit)[0]

    def join(
        self,
        left_table: str,
        right_table: str,
        on: Sequence[tuple[str, str]],
        *,
        where_left: Expr | None = None,
        where_right: Expr | None = None,
        kind: str = "inner",
    ) -> list[dict[str, Any]]:
        """Join two tables; output keys are ``"l.<col>"`` / ``"r.<col>"``."""
        # Feed the join from no-copy matching views — the merge builds
        # fresh prefixed dicts, so the defensive copies a select makes
        # for each side would be pure waste.
        left = self._catalog.get(left_table)
        right = self._catalog.get(right_table)
        if OBS.enabled:
            STATEMENTS["select"].inc(2)
        return join_rows(
            matching_view(left, where_left),
            matching_view(right, where_right),
            on,
            kind=kind,
        )

    def aggregate(
        self,
        table_name: str,
        spec: dict[str, tuple[str, str | None]],
        where: Expr | None = None,
        group_by: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Grouped aggregation; see :func:`repro.rdb.query.aggregate`."""
        table = self._catalog.get(table_name)
        if OBS.enabled:
            STATEMENTS["select"].inc()
        return aggregate_table(table, spec, where=where, group_by=group_by)

    def update(
        self,
        table_name: str,
        changes: dict[str, Any],
        where: Expr | None = None,
    ) -> int:
        """Update matching rows; returns the count updated.

        Referenced-key changes follow each child FK's ``on_update``
        action (RESTRICT / CASCADE / SET NULL).
        """
        table = self._catalog.get(table_name)
        changes = table.schema.normalize_changes(changes)
        rowids = target_rowids(table, where)
        if OBS.enabled:
            STATEMENTS["update"].inc()
        with _Statement(self):
            for rowid in rowids:
                self._update_rowid(table, rowid, changes)
        return len(rowids)

    def update_pk(self, table_name: str, pk: Any, changes: dict[str, Any]) -> bool:
        """Update the row with primary key ``pk``; False if absent."""
        table = self._catalog.get(table_name)
        changes = table.schema.normalize_changes(changes)
        rowid = table.rowid_for_pk(_as_pk(pk))
        if rowid is None:
            return False
        if OBS.enabled:
            STATEMENTS["update"].inc()
        with _Statement(self):
            self._update_rowid(table, rowid, changes)
        return True

    def delete(self, table_name: str, where: Expr | None = None) -> int:
        """Delete matching rows (honouring referential actions)."""
        table = self._catalog.get(table_name)
        rowids = target_rowids(table, where)
        if OBS.enabled:
            STATEMENTS["delete"].inc()
        with _Statement(self):
            deleted = 0
            for rowid in rowids:
                if table.get(rowid) is not None:  # may be cascade-deleted
                    self._delete_rowid(table, rowid, _seen=set())
                    deleted += 1
        return deleted

    def delete_pk(self, table_name: str, pk: Any) -> bool:
        """Delete the row with primary key ``pk``; False if absent."""
        table = self._catalog.get(table_name)
        rowid = table.rowid_for_pk(_as_pk(pk))
        if rowid is None:
            return False
        if OBS.enabled:
            STATEMENTS["delete"].inc()
        with _Statement(self):
            self._delete_rowid(table, rowid, _seen=set())
        return True

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def attach_journal(self, journal: Journal) -> None:
        """Journal every committed statement from now on."""
        self._journal = journal

    @property
    def journal(self) -> Journal | None:
        """The attached journal, if any (replication reads its LSNs)."""
        return self._journal

    def snapshot(self, path: str) -> None:
        """Dump all rows to ``path`` and checkpoint the journal (if any).

        The snapshot records the journal's last applied LSN as a
        watermark and the journal truncation is staged through an
        atomic marker file, so a crash at any point in the sequence can
        neither lose committed transactions nor double-apply them on
        recovery.
        """
        if self.in_transaction:
            raise TransactionError("cannot snapshot inside a transaction")
        started = OBS.clock() if OBS.enabled else None
        # Live row iterators: the writer encodes a chunk at a time.
        dump = {
            name: self._catalog.get(name).rows()
            for name in self._catalog.names()
        }
        last_lsn = self._journal.last_lsn if self._journal is not None else 0
        write_snapshot(path, dump, last_lsn=last_lsn)
        self.snapshot_path = path
        if self._journal is not None:
            self._journal.checkpoint(last_lsn)
        if started is not None and OBS.enabled:
            CHECKPOINT_SECONDS[()].observe(OBS.clock() - started)

    def apply_frame(self, frame: WalFrame) -> None:
        """Apply one journal frame — the only journal→state step, shared
        by :meth:`open`, :meth:`recover` and the follower's live stream.

        A transaction frame replays its ops and advances the txn id,
        trusting the log: no constraint re-checks, no trigger re-fires
        (both ran before the ops were journaled).  A two-phase-commit
        frame goes to :meth:`apply_2pc`.  Checkpoint frames carry no
        table state.
        """
        if frame.kind == "2pc":
            self.apply_2pc(frame.payload or {})
            return
        if self._txn.in_transaction:
            raise TransactionError(
                "cannot apply journal frames inside a transaction"
            )
        if frame.kind == "txn":
            for op in frame.ops or ():
                self._replay_op(op)
            if isinstance(frame.txn_id, int):
                self._txn.advance_past(frame.txn_id)

    def apply_2pc(self, record: dict[str, Any]) -> None:
        """Apply one two-phase-commit record, in journal order.

        A ``prepare`` only holds its ops (:attr:`prepared_ops`), the
        matching ``commit`` applies them *at the commit record's
        position*, an ``abort`` drops them; an outcome whose prepare was
        never seen (it lies below the snapshot watermark) changes no
        row.  A coordinator's ``decision``/``end`` records carry no
        table state.  Recovery reaches this through :meth:`apply_frame`;
        a live shard calls it with the record it has just journaled, so
        its state is always the replay of its own journal.
        """
        if self._txn.in_transaction:
            raise TransactionError(
                "cannot apply journal frames inside a transaction"
            )
        step, gtxn = record.get("2pc"), record.get("gtxn")
        if step == "prepare":
            self.prepared_ops[gtxn] = record.get("ops") or []
        elif step in ("commit", "abort"):
            ops = self.prepared_ops.pop(gtxn, None)
            if step == "commit":
                for op in ops or ():
                    self._replay_op(op)
            self.outcomes[gtxn] = step

    def load_snapshot(self, path: str | os.PathLike[str]) -> int:
        """Load the rows :meth:`snapshot` dumped to ``path`` into this
        database's (empty) tables — the only snapshot→tables step.
        Returns the snapshot's journal LSN watermark."""
        tables, watermark = parse_snapshot(path)
        # One object per distinct string across every table it loads.
        strings: dict[str, str] = {}
        for table_name in list(tables):
            table = self._catalog.get(table_name)
            normalize = table.schema.normalize_row
            # Popped back to front, a parsed row is freed as its stored
            # form is built: one generation of rows stands, not three.
            parsed = tables.pop(table_name)[::-1]
            rows = [
                normalize(decode_row(parsed.pop(), strings))
                for _ in range(len(parsed))
            ]
            # repro-analysis: ignore[mutation-outside-transaction] -- snapshot rows were committed before being dumped; replay needs no undo log
            table.apply_insert_many(rows)
        return watermark

    @classmethod
    def _from_snapshot(
        cls,
        name: str,
        schemas: Sequence[Schema],
        snapshot_path: str | os.PathLike[str] | None,
        salvage: bool,
    ) -> "tuple[Database, RecoveryStats]":
        """Empty tables plus the snapshot's rows; ``recovery_stats``
        starts at its watermark, where journal replay begins."""
        db = cls(name)
        for schema in schemas:
            db.create_table(schema)
        db.recovery_stats = stats = RecoveryStats(salvaged=salvage)
        if snapshot_path is not None and os.path.exists(snapshot_path):
            stats.watermark = db.load_snapshot(snapshot_path)
            db.snapshot_path = snapshot_path
        return db, stats

    @classmethod
    def open(
        cls,
        name: str,
        schemas: Sequence[Schema],
        *,
        snapshot_path: str | os.PathLike[str] | None = None,
        journal_path: str | os.PathLike[str],
        sync: "SyncPolicy | str" = "none",
        salvage: bool = False,
        file_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> "Database":
        """Bring a durable database back, journaling to the same file:
        what every restart runs.

        ``schemas`` come in dependency order (parents first).  The
        snapshot is loaded, then :meth:`Journal.open` replays every
        frame above the snapshot's LSN watermark through
        :meth:`apply_frame` *in the scan that opens the journal* — a
        journal that outlived its snapshot's truncation cannot
        double-apply, and the file is read and checked once.  Replay
        trusts the log: constraints were checked before the ops were
        journaled, and triggers do not re-fire.

        A torn final record is tolerated and trimmed; earlier corruption
        raises :class:`~repro.rdb.errors.JournalCorruptError` with the
        file untouched unless ``salvage`` is set, which skips damaged
        records and compacts the journal.  What happened is on the
        returned database's ``recovery_stats`` (mirrored into
        ``repro.obs`` counters when instrumentation is on).
        """
        db, stats = cls._from_snapshot(name, schemas, snapshot_path, salvage)
        db._journal = Journal.open(
            journal_path, db.apply_frame, from_lsn=stats.watermark,
            stats=stats, sync=sync, salvage=salvage,
            file_wrapper=file_wrapper,
        )
        cls._count_recovery(stats)
        return db

    @classmethod
    def recover(
        cls,
        name: str,
        schemas: Sequence[Schema],
        *,
        snapshot_path: str | os.PathLike[str] | None = None,
        journal_path: str | os.PathLike[str] | None = None,
        salvage: bool = False,
    ) -> "Database":
        """:meth:`open`'s read-only form, for audits: the same snapshot
        load, watermark rule, replay and ``recovery_stats``, but the
        journal file is never written (no trim, no compaction, no
        completed checkpoint) and none is attached."""
        db, stats = cls._from_snapshot(name, schemas, snapshot_path, salvage)
        if journal_path is not None:
            for frame in read_frames(
                journal_path, from_lsn=stats.watermark, salvage=salvage,
                stats=stats,
            ):
                db.apply_frame(frame)
        cls._count_recovery(stats)
        return db

    @staticmethod
    def _count_recovery(stats: RecoveryStats) -> None:
        if OBS.enabled:
            for tally, instrument in RECOVERY_TALLIES.items():
                if count := getattr(stats, tally):
                    instrument[()].inc(count)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def commits(self) -> int:
        return self._txn.commits

    @property
    def rollbacks(self) -> int:
        return self._txn.rollbacks

    def stats(self) -> dict[str, Any]:
        """Engine counters, per-table row counts and what the compiled
        filter store did (``compile``: shapes/hits/misses/evictions)."""
        return {
            "name": self.name,
            "tables": {
                name: len(self._catalog.get(name)) for name in self._catalog.names()
            },
            "statements": self.statements,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "journaled_records": (
                self._journal.records_written if self._journal else 0
            ),
            "compile": cache_stats(),  # process-wide: shared by shape
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _observe_txn(self, outcome: str) -> None:
        began = self._txn_began_at
        self._txn_began_at = None
        if began is not None and OBS.enabled:
            TXN_SECONDS[outcome].observe(OBS.clock() - began)

    def _update_rowid(
        self, table: Table, rowid: int, changes: dict[str, Any]
    ) -> None:
        """Apply ``changes`` — stored forms, as :meth:`Schema.
        normalize_changes` returns them — to one row."""
        old_row = table.get(rowid)
        assert old_row is not None
        new_row = {**old_row, **changes}
        schema = table.schema
        table_name = schema.name
        fire = self._triggers.fire
        fire(table_name, TriggerEvent.UPDATE, TriggerTiming.BEFORE, old_row, new_row)
        self._checker.check_update(table, rowid, new_row)
        key_changed = not schema.key_columns.isdisjoint(changes) and any(
            old_row[c] != new_row[c] for c in schema.key_columns
        )
        snapshot = dict(old_row)
        table.apply_update(rowid, new_row)
        self._txn.record(UndoRecord("update", table, rowid, snapshot))
        self._wal_buffer.append([
            "update", table_name,
            encode_key(schema.primary_key_of(old_row)), encode_row(changes),
        ])
        # Referential ON UPDATE actions run after the parent row changed
        # so cascaded children validate against the *new* key; a RESTRICT
        # raise aborts the whole statement (the scratch transaction rolls
        # the parent change back).
        if key_changed:
            self._apply_on_update_actions(table, snapshot, new_row)
        fire(table_name, TriggerEvent.UPDATE, TriggerTiming.AFTER, snapshot, new_row)

    def _apply_on_update_actions(
        self, parent: Table, old_row: dict[str, Any], new_row: dict[str, Any]
    ) -> None:
        parent_name = parent.schema.name
        for child, fk, child_rowid in self._checker.referencing_children(
            parent_name, old_row
        ):
            # Only act if the columns this FK targets actually changed.
            if all(old_row[c] == new_row[c] for c in fk.parent_columns):
                continue
            if fk.on_update is Action.RESTRICT:
                raise ForeignKeyError(
                    f"cannot update key of {parent_name!r}: row is referenced "
                    f"by {child.schema.name!r} (ON UPDATE RESTRICT)"
                )
            if fk.on_update is Action.CASCADE:
                child_changes = {
                    cc: new_row[pc] for cc, pc in zip(fk.columns, fk.parent_columns)
                }
            else:  # SET_NULL
                child_changes = {cc: None for cc in fk.columns}
            self._update_rowid(
                child, child_rowid, child.schema.normalize_changes(child_changes)
            )

    def _delete_rowid(
        self, table: Table, rowid: int, _seen: set[tuple[str, int]]
    ) -> None:
        key = (table.schema.name, rowid)
        if key in _seen:
            return
        _seen.add(key)
        row = table.get(rowid)
        if row is None:
            return
        table_name = table.schema.name
        fire = self._triggers.fire
        fire(table_name, TriggerEvent.DELETE, TriggerTiming.BEFORE, row, None)
        for child, fk, child_rowid in self._checker.referencing_children(
            table_name, row
        ):
            if (child.schema.name, child_rowid) in _seen:
                continue
            if fk.on_delete is Action.RESTRICT:
                raise ForeignKeyError(
                    f"cannot delete from {table_name!r}: row is referenced by "
                    f"{child.schema.name!r} (ON DELETE RESTRICT)"
                )
            if fk.on_delete is Action.CASCADE:
                self._delete_rowid(child, child_rowid, _seen)
            else:  # SET_NULL
                self._update_rowid(
                    child, child_rowid, {cc: None for cc in fk.columns}
                )
        snapshot = dict(row)
        table.apply_delete(rowid)
        self._txn.record(UndoRecord("delete", table, rowid, snapshot))
        self._wal_buffer.append(
            ["delete", table_name, encode_key(table.schema.primary_key_of(row))]
        )
        fire(table_name, TriggerEvent.DELETE, TriggerTiming.AFTER, snapshot, None)

    def _flush_wal(self, txn: Transaction) -> None:
        if self._journal is not None and self._wal_buffer:
            self._journal.append(txn.txn_id, self._wal_buffer)
        self._wal_buffer = []
        self._wal_savepoints = {}

    # Journal replay applies ops that committed before they were journaled.
    # repro-analysis: ignore[mutation-outside-transaction] -- no undo log on replay
    def _replay_op(self, op: list[Any]) -> None:
        kind = op[0]
        table = self._catalog.get(op[1])
        if kind == "insert":
            table.apply_insert(table.schema.normalize_row(decode_row(op[2])))
        elif kind == "update":
            rowid = table.rowid_for_pk(decode_key(op[2]))
            if rowid is not None:
                old = table.get(rowid)
                assert old is not None
                new_row = dict(old)
                new_row.update(decode_row(op[3]))
                table.apply_update(rowid, new_row)
        elif kind == "delete":
            rowid = table.rowid_for_pk(decode_key(op[2]))
            if rowid is not None:
                table.apply_delete(rowid)
        else:  # pragma: no cover - defensive
            raise RdbError(f"unknown journal op {kind!r}")
