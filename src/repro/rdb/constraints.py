"""Integrity constraints: primary key, unique, not-null, foreign keys.

The checker lives outside :class:`~repro.rdb.table.Table` because
foreign-key validation needs cross-table visibility; the engine calls it
before applying any mutation so tables never hold constraint-violating
rows, and referential actions (RESTRICT / CASCADE / SET NULL) are
resolved here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.rdb.errors import (
    CheckError,
    DuplicateKeyError,
    ForeignKeyError,
    NotNullError,
    SchemaError,
)
from repro.rdb.types import key_getter

if TYPE_CHECKING:
    from repro.rdb.table import Table

__all__ = ["Action", "ForeignKey", "ConstraintChecker"]


class Action(enum.Enum):
    """Referential action when a referenced parent row is deleted/updated."""

    RESTRICT = "restrict"
    CASCADE = "cascade"
    SET_NULL = "set_null"


@dataclass(frozen=True, slots=True)
class ForeignKey:
    """A foreign-key constraint from child columns to parent columns.

    ``columns`` are columns of the declaring (child) table; they must
    match ``parent_columns`` of ``parent_table`` (which must be that
    table's primary key or a declared unique set so lookups are exact).
    A child row whose FK columns are all ``None`` is exempt (SQL MATCH
    SIMPLE for the all-null case; partial nulls are rejected).
    """

    columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]
    on_delete: Action = Action.RESTRICT
    on_update: Action = Action.RESTRICT
    #: ``row -> key tuple`` over the child / the parent columns
    key_of: Callable[[dict[str, Any]], tuple] = field(
        init=False, repr=False, compare=False
    )
    parent_key_of: Callable[[dict[str, Any]], tuple] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("foreign key needs at least one column")
        if len(self.columns) != len(self.parent_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.columns!r} vs {self.parent_columns!r}"
            )
        object.__setattr__(self, "key_of", key_getter(self.columns))
        object.__setattr__(self, "parent_key_of", key_getter(self.parent_columns))


class ConstraintChecker:
    """Validates mutations against all declared constraints.

    The engine owns one checker; ``tables`` is the live table registry so
    the checker always sees current data.
    """

    def __init__(self, tables: dict[str, "Table"]) -> None:
        self._tables = tables

    # -- helpers ------------------------------------------------------------
    def _parent_has_key(self, fk: ForeignKey, key: tuple) -> bool:
        parent = self._tables.get(fk.parent_table)
        if parent is None:
            raise ForeignKeyError(
                f"foreign key references missing table {fk.parent_table!r}"
            )
        index = parent.indexes.hash_index_on(fk.parent_columns)
        if index is not None:
            return index.count(key) > 0
        # Fall back to a scan; only reachable if the parent key columns
        # were not PK/unique (validated at CREATE TABLE, so this is a
        # safety net rather than an expected path).
        return any(
            tuple(row[c] for c in fk.parent_columns) == key
            for row in parent.rows()
        )

    @staticmethod
    def _fk_key(fk: ForeignKey, row: dict[str, Any]) -> tuple | None:
        """The child key tuple, or ``None`` when exempt (all-null)."""
        key = fk.key_of(row)
        if None not in key:
            return key
        nulls = sum(1 for v in key if v is None)
        if nulls == len(key):
            return None
        if nulls:
            raise ForeignKeyError(
                f"foreign key {fk.columns!r} is partially null: {key!r}"
            )
        return key

    # -- row-level checks ----------------------------------------------------
    def check_not_null(self, table: "Table", row: dict[str, Any]) -> None:
        for name in table.schema.not_null:
            if row[name] is None:
                raise NotNullError(table.schema.name, name)

    def check_checks(self, table: "Table", row: dict[str, Any]) -> None:
        """Column CHECK constraints (null values are exempt, as in SQL)."""
        for column in table.schema.checked:
            value = row[column.name]
            if value is not None and not column.check(value):
                raise CheckError(
                    table.schema.name, column.name,
                    column.constraint_name, value,
                )

    def check_unique(
        self, table: "Table", row: dict[str, Any], *, ignore_rowid: int | None = None
    ) -> None:
        """PK and unique-set enforcement (null components skip unique,
        mirroring SQL where NULL never equals NULL)."""
        schema = table.schema
        hash_index_on = table.indexes.hash_index_on
        for columns in (schema.primary_key, *schema.unique):
            index = hash_index_on(columns)
            assert index is not None, f"missing key index on {columns!r}"
            key = index.key_of(row)
            if None in key and columns != schema.primary_key:
                continue
            if ignore_rowid is None:
                taken = index.count(key)
            else:
                taken = index.lookup(key) - {ignore_rowid}
            if taken:
                raise DuplicateKeyError(schema.name, columns, key)

    def check_foreign_keys(self, table: "Table", row: dict[str, Any]) -> None:
        for fk in table.schema.foreign_keys:
            key = self._fk_key(fk, row)
            if key is None:
                continue
            if not self._parent_has_key(fk, key):
                raise ForeignKeyError(
                    f"table {table.schema.name!r}: foreign key "
                    f"{fk.columns!r} -> {fk.parent_table!r}"
                    f"{fk.parent_columns!r} has no parent row for {key!r}"
                )

    def check_insert(self, table: "Table", row: dict[str, Any]) -> None:
        self.check_not_null(table, row)
        self.check_checks(table, row)
        self.check_unique(table, row)
        self.check_foreign_keys(table, row)

    def check_update(
        self, table: "Table", rowid: int, new_row: dict[str, Any]
    ) -> None:
        self.check_not_null(table, new_row)
        self.check_checks(table, new_row)
        self.check_unique(table, new_row, ignore_rowid=rowid)
        self.check_foreign_keys(table, new_row)

    # -- referential actions --------------------------------------------------
    def referencing_children(
        self, parent_name: str, parent_row: dict[str, Any]
    ) -> list[tuple["Table", ForeignKey, int]]:
        """All (child_table, fk, child_rowid) referencing ``parent_row``."""
        hits: list[tuple["Table", ForeignKey, int]] = []
        for child in self._tables.values():
            for fk in child.schema.foreign_keys:
                if fk.parent_table != parent_name:
                    continue
                key = fk.parent_key_of(parent_row)
                index = child.indexes.hash_index_on(fk.columns)
                if index is not None:
                    rowids = index.lookup(key)
                else:  # pragma: no cover - FKs always get an index
                    rowids = frozenset(
                        rid
                        for rid, row in child.items()
                        if tuple(row[c] for c in fk.columns) == key
                    )
                hits.extend((child, fk, rid) for rid in rowids)
        return hits
