"""Undo-log transactions with savepoints.

The engine records the inverse of every applied mutation in the active
transaction's undo log; ``rollback`` replays the log backwards.  Without
an explicit ``begin`` the engine autocommits each statement, but still
routes it through a one-statement transaction so a multi-row statement
(e.g. a CASCADE delete) is atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.rdb.errors import TransactionError

if TYPE_CHECKING:
    from repro.rdb.table import Table

__all__ = ["UndoRecord", "Transaction", "TransactionManager"]


class UndoRecord:
    """One inverse operation.

    ``kind`` is the *forward* operation; undo applies its inverse:
    ``insert`` -> delete the rowid, ``update`` -> restore ``old_row``,
    ``delete`` -> reinsert ``old_row`` under the same rowid.
    """

    __slots__ = ("kind", "table", "rowid", "old_row")

    def __init__(
        self, kind: str, table: "Table", rowid: int,
        old_row: dict[str, Any] | None,
    ) -> None:
        self.kind = kind  # "insert" | "update" | "delete"
        self.table = table
        self.rowid = rowid
        self.old_row = old_row

    def undo(self) -> None:
        if self.kind == "insert":
            self.table.apply_delete(self.rowid)
        elif self.kind == "update":
            assert self.old_row is not None
            self.table.apply_update(self.rowid, self.old_row)
        elif self.kind == "delete":
            assert self.old_row is not None
            self.table.apply_restore(self.rowid, self.old_row)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown undo kind {self.kind!r}")


@dataclass
class Transaction:
    """An open transaction: its undo log and named savepoints."""

    txn_id: int
    undo_log: list[UndoRecord] = field(default_factory=list)
    savepoints: dict[str, int] = field(default_factory=dict)

    def savepoint(self, name: str) -> None:
        self.savepoints[name] = len(self.undo_log)

    def rollback_to(self, name: str) -> None:
        try:
            mark = self.savepoints[name]
        except KeyError:
            raise TransactionError(f"unknown savepoint {name!r}") from None
        self.undo_to(mark)
        # Later savepoints are invalidated by rolling back past them.
        self.savepoints = {
            sp_name: pos
            for sp_name, pos in self.savepoints.items()
            if pos <= mark
        }

    def undo_to(self, mark: int) -> None:
        """Undo, newest first, every record past position ``mark``."""
        while len(self.undo_log) > mark:
            self.undo_log.pop().undo()

    def rollback_all(self) -> None:
        self.undo_to(0)
        self.savepoints.clear()


class TransactionManager:
    """Owns the (single) active transaction of a Database.

    The engine is single-threaded by design — concurrency in the paper's
    system is handled at the object level by :mod:`repro.core.locking`,
    not by the storage engine — so one active transaction suffices.
    """

    def __init__(self) -> None:
        self._active: Transaction | None = None
        self._next_id = 1
        self.commits = 0
        self.rollbacks = 0

    @property
    def active(self) -> Transaction | None:
        return self._active

    @property
    def in_transaction(self) -> bool:
        return self._active is not None

    def begin(self) -> Transaction:
        if self._active is not None:
            raise TransactionError(
                "a transaction is already active (use savepoints for nesting)"
            )
        self._active = Transaction(self._next_id)
        self._next_id += 1
        return self._active

    def commit(self, on_commit: Callable[[Transaction], None]) -> None:
        if self._active is None:
            raise TransactionError("commit without begin")
        txn = self._active
        # Durability first: the commit hook journals the transaction, and
        # a journal-append failure (disk full, simulated crash) must leave
        # the transaction open so the caller can still roll it back —
        # nothing may become "committed" that was never made durable.
        # The hook is passed per call, not stored: a stored bound method
        # of the engine would tie the engine into a reference cycle.
        on_commit(txn)
        self._active = None
        self.commits += 1

    def rollback(self) -> None:
        if self._active is None:
            raise TransactionError("rollback without begin")
        txn = self._active
        txn.rollback_all()
        self._active = None
        self.rollbacks += 1

    def advance_past(self, txn_id: int) -> None:
        """Ensure future transaction ids are greater than ``txn_id``.

        Called after journal replay so a recovered engine never reissues
        an id that already appears in the journal it will append to.
        """
        if txn_id >= self._next_id:
            self._next_id = txn_id + 1

    def record(self, record: UndoRecord) -> None:
        """Record an undo entry if a transaction is open (no-op otherwise:
        autocommitted statements manage their own scratch transaction)."""
        if self._active is not None:
            self._active.undo_log.append(record)
