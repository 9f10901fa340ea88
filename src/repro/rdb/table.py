"""Heap table storage with automatic key indexes.

A :class:`Table` stores normalized rows in a dict keyed by a
monotonically increasing row id, and maintains an :class:`IndexSet`
containing (at minimum) a hash index on the primary key, one per unique
set, and one per foreign key's child columns (so referential-action
lookups are O(1)).  The table applies mutations mechanically; constraint
checking and trigger firing belong to the engine layer.

Every mutation — DML, undo, journal replay, replicated apply, snapshot
load — lands in one of the ``apply_*`` methods below, and each bumps
:attr:`Table.version`.  A reader that remembers the version it saw can
tell "these rows may have changed" from one integer compare; that is
the whole invalidation protocol of :mod:`repro.tiers.cache`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.rdb.index import HashIndex, IndexSet, SortedIndex
from repro.rdb.types import Schema

__all__ = ["Table"]

PK_INDEX_NAME = "__pk__"


class Table:
    """One relational table: schema + heap rows + indexes."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        #: Bumped by every ``apply_*``; never decreases.  The catalog
        #: starts a re-created table past its dropped namesake.
        self.version = 0
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_rowid = 1
        self.indexes = IndexSet()
        self._pk_index = HashIndex(PK_INDEX_NAME, schema.primary_key)
        self.indexes.add_hash(self._pk_index)
        for pos, columns in enumerate(schema.unique):
            if self.indexes.hash_index_on(columns) is None:
                self.indexes.add_hash(HashIndex(f"__unique_{pos}__", columns))
        for pos, fk in enumerate(schema.foreign_keys):
            if self.indexes.hash_index_on(fk.columns) is None:
                self.indexes.add_hash(HashIndex(f"__fk_{pos}__", fk.columns))

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate row dicts (live references; callers must not mutate)."""
        return iter(self._rows.values())

    def items(self) -> Iterator[tuple[int, dict[str, Any]]]:
        return iter(self._rows.items())

    def rows_list(self) -> list[dict[str, Any]]:
        """The heap as one row-reference snapshot (pointer copies only).

        The single-batch form of :meth:`rows_batches` for consumers that
        read every row anyway — a full-scan filter runs as one fused
        comprehension over it.  Rows are live references; callers must
        not mutate them.
        """
        return list(self._rows.values())

    def rows_batches(self, size: int = 256) -> Iterator[list[dict[str, Any]]]:
        """Yield the heap as row-dict batches for the vectorized executor.

        Snapshots the heap's row references once (pointer copies only),
        then yields list slices — no per-row generator hop, and the
        batches stay stable if the table mutates mid-iteration.  Rows
        are live references; callers must not mutate them.
        """
        values = list(self._rows.values())
        for start in range(0, len(values), size):
            yield values[start:start + size]

    def get(self, rowid: int) -> dict[str, Any] | None:
        return self._rows.get(rowid)

    def get_many(self, rowids: Iterable[int]) -> list[dict[str, Any]]:
        """The rows behind ``rowids``, in order, in one C-level loop; a
        row id whose row vanished since the index was probed is skipped.
        Rows are live references; callers must not mutate them."""
        return [row for row in map(self._rows.get, rowids) if row is not None]

    def rowids_of(self, rows: Iterable[dict[str, Any]]) -> list[int]:
        """The row ids of live ``rows`` (each found again by its primary
        key), ascending."""
        pk = self._pk_index
        return sorted(map(pk.any_rowid, map(pk.key_of, rows)))

    def rowid_for_pk(self, key: tuple) -> int | None:
        """Row id holding primary key ``key``, or None."""
        # PK uniqueness is enforced before rows land, so at most one.
        return self._pk_index.any_rowid(key)

    def row_for_pk(self, key: tuple) -> dict[str, Any] | None:
        rowid = self.rowid_for_pk(key)
        return None if rowid is None else self._rows[rowid]

    # -- secondary index management ---------------------------------------
    def create_hash_index(self, name: str, columns: tuple[str, ...]) -> None:
        """Create (and backfill) a named hash index."""
        for column in columns:
            self.schema.column(column)  # raises on unknown column
        index = HashIndex(name, columns)
        key_of, insert = index.key_of, index.insert
        for rowid, row in self._rows.items():
            insert(key_of(row), rowid)
        self.indexes.add_hash(index)

    def create_sorted_index(self, name: str, column: str) -> None:
        """Create (and backfill) a named sorted index on one column."""
        self.schema.column(column)
        index = SortedIndex(name, column)
        index.bulk_load(
            (row[column], rowid) for rowid, row in self._rows.items()
        )
        self.indexes.add_sorted(index)

    # -- raw mutations (no constraint checks) -------------------------------
    def apply_insert(self, row: dict[str, Any]) -> int:
        """Store a normalized row; returns the new row id."""
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        self.indexes.insert_row(row, rowid)
        self.version += 1
        return rowid

    def apply_insert_many(self, rows: list[dict[str, Any]]) -> list[int]:
        """Store normalized rows in bulk; returns their row ids.

        The trusted bulk twin of :meth:`apply_insert` for replay paths
        (snapshot load, index backfill): heap stores and index
        maintenance run as batched loops with per-statement overhead
        amortized.  Constraint checking still belongs to the engine,
        which must keep per-row check→apply ordering (uniqueness checks
        consult live indexes), so DML does not route through this.
        """
        store = self._rows
        next_rowid = self._next_rowid
        rowids = []
        append = rowids.append
        for row in rows:
            store[next_rowid] = row
            append(next_rowid)
            next_rowid += 1
        self._next_rowid = next_rowid
        self.indexes.insert_rows(zip(rows, rowids))
        self.version += 1
        return rowids

    def apply_update(self, rowid: int, new_row: dict[str, Any]) -> dict[str, Any]:
        """Replace the row at ``rowid``; returns the old row."""
        old_row = self._rows[rowid]
        self.indexes.remove_row(old_row, rowid)
        self._rows[rowid] = new_row
        self.indexes.insert_row(new_row, rowid)
        self.version += 1
        return old_row

    def apply_delete(self, rowid: int) -> dict[str, Any]:
        """Remove the row at ``rowid``; returns it."""
        row = self._rows.pop(rowid)
        self.indexes.remove_row(row, rowid)
        self.version += 1
        return row

    def apply_restore(self, rowid: int, row: dict[str, Any]) -> None:
        """Put a deleted row back under its original row id.

        The inverse of :meth:`apply_delete` for the undo log: later undo
        records reference row ids, so :meth:`apply_insert` (which mints
        a fresh one) would leave them dangling.
        """
        self._rows[rowid] = row
        self.indexes.insert_row(row, rowid)
        self.version += 1
