"""The JDBC/ODBC-style open database connection.

"The implementation of the virtual course DBMS uses JDBC (or ODBC) as
the open database connection to some commercially available database
systems."  :class:`OpenDatabaseConnection` is that seam: a DB-API-ish
cursor facade over :class:`repro.rdb.Database`, so the middle tier
depends only on the connection contract — swapping in a different
engine means re-implementing this one adapter, exactly the paper's
"adaptive to open architecture / database standard" goal.

A connection may carry a :class:`~repro.tiers.cache.QueryCache`; cursor
selects then read through it, a result being stored on its select's
second miss, and the table version stamped on every entry makes any
change to the table's rows an implicit invalidation.
A row addressed by its primary key (``get``, ``update_pk``,
``delete_pk``), and the rows under one key of a foreign key or other
hash index (``rows_by_key``), are one index probe, never planned and
never cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.rdb import Database, Expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tiers.cache import QueryCache

__all__ = ["OpenDatabaseConnection", "Cursor"]


class Cursor:
    """A DB-API-flavoured cursor: execute, fetchone/fetchall, rowcount."""

    def __init__(self, db: Database, cache: "QueryCache | None" = None) -> None:
        self._db = db
        self._cache = cache
        self._results: list[dict[str, Any]] = []
        self._pos = 0
        self.rowcount = -1

    # -- statements ----------------------------------------------------------
    def select(
        self,
        table: str,
        where: Expr | None = None,
        order_by: str | Sequence[str] | None = None,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
    ) -> "Cursor":
        if self._cache is not None:
            rows = self._cache.select(
                self._db, table, where=where, order_by=order_by,
                limit=limit, columns=columns,
            )
        else:
            rows = self._db.select(
                table, where=where, order_by=order_by, limit=limit,
                columns=columns,
            )
        return self._answer(rows, len(rows))

    def insert(self, table: str, values: dict[str, Any]) -> "Cursor":
        self._db.insert(table, values)
        return self._answer([], 1)

    def update(
        self, table: str, changes: dict[str, Any], where: Expr | None = None
    ) -> "Cursor":
        return self._answer([], self._db.update(table, changes, where=where))

    def delete(self, table: str, where: Expr | None = None) -> "Cursor":
        return self._answer([], self._db.delete(table, where=where))

    # -- by primary key ----------------------------------------------------
    # ``pk`` is the key tuple; a key no row can hold (an unhashable value)
    # finds nothing, as a WHERE on it would.
    def get(self, table: str, pk: tuple) -> "Cursor":
        row = self._db.get(table, pk) if _holdable(pk) else None
        rows = [] if row is None else [row]
        return self._answer(rows, len(rows))

    def update_pk(
        self, table: str, pk: tuple, changes: dict[str, Any]
    ) -> "Cursor":
        found = _holdable(pk) and self._db.update_pk(table, pk, changes)
        return self._answer([], int(found))

    def delete_pk(self, table: str, pk: tuple) -> "Cursor":
        found = _holdable(pk) and self._db.delete_pk(table, pk)
        return self._answer([], int(found))

    # -- by a hash index's key ----------------------------------------------
    def rows_by_key(
        self, table: str, columns: tuple[str, ...], key: tuple,
        column: str | None = None,
    ) -> "Cursor":
        """The rows whose ``columns`` hold ``key``, in row-id order: one
        probe of the table's hash index on exactly those columns.  Given
        ``column``, the results are that column's values, not rows."""
        rows = self._db.rows_by_key(table, columns, key, column)
        return self._answer(rows, len(rows))

    def _answer(self, rows: list[Any], rowcount: int) -> "Cursor":
        self._results = rows
        self._pos = 0
        self.rowcount = rowcount
        return self

    # -- fetching ----------------------------------------------------------
    def fetchone(self) -> dict[str, Any] | None:
        if self._pos >= len(self._results):
            return None
        row = self._results[self._pos]
        self._pos += 1
        return row

    def fetchall(self) -> list[dict[str, Any]]:
        rows = self._results[self._pos:]
        self._pos = len(self._results)
        return rows

    def fetchmany(self, size: int) -> list[dict[str, Any]]:
        rows = self._results[self._pos : self._pos + size]
        self._pos += len(rows)
        return rows


def _holdable(pk: tuple) -> bool:
    """False for a key no stored row can hold: an unhashable one."""
    try:
        hash(pk)
    except TypeError:
        return False
    return True


class OpenDatabaseConnection:
    """A connection to one engine, with transaction demarcation and an
    optional read-through result cache."""

    def __init__(
        self, db: Database, cache: "QueryCache | None" = None
    ) -> None:
        self._db = db
        self._closed = False
        self.cache = cache
        self.cursors_opened = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def cursor(self) -> Cursor:
        self._check_open()
        self.cursors_opened += 1
        return Cursor(self._db, self.cache)

    def begin(self) -> None:
        self._check_open()
        self._db.begin()

    def commit(self) -> None:
        self._check_open()
        if self._db.in_transaction:
            self._db.commit()

    def rollback(self) -> None:
        self._check_open()
        if self._db.in_transaction:
            self._db.rollback()

    def close(self) -> None:
        if not self._closed and self._db.in_transaction:
            self._db.rollback()
        self._closed = True

    def __enter__(self) -> "OpenDatabaseConnection":
        return self

    def __exit__(self, exc_type: object, *_: object) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("connection is closed")
