"""Exception hierarchy for the relational engine.

All engine errors derive from :class:`RdbError` so callers can catch the
whole family; constraint violations further derive from
:class:`ConstraintError` so integrity code can distinguish them from
schema or transaction misuse.
"""

from __future__ import annotations

__all__ = [
    "RdbError",
    "SchemaError",
    "UnknownTableError",
    "UnknownColumnError",
    "ConstraintError",
    "DuplicateKeyError",
    "NotNullError",
    "ForeignKeyError",
    "CheckError",
    "TransactionError",
    "JournalCorruptError",
]


class RdbError(Exception):
    """Base class for all relational-engine errors."""


class SchemaError(RdbError):
    """A schema definition is invalid (bad column, duplicate table, ...)."""


class UnknownTableError(SchemaError):
    """A statement referenced a table that does not exist."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(SchemaError):
    """A statement referenced a column that does not exist."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column {column!r} in table {table!r}")
        self.table = table
        self.column = column


class ConstraintError(RdbError):
    """Base class for integrity-constraint violations."""


class DuplicateKeyError(ConstraintError):
    """Primary-key or unique-constraint violation."""

    def __init__(self, table: str, columns: tuple[str, ...], key: object) -> None:
        super().__init__(
            f"duplicate key {key!r} for ({', '.join(columns)}) in table {table!r}"
        )
        self.table = table
        self.columns = columns
        self.key = key


class NotNullError(ConstraintError):
    """A NOT NULL column received a null value."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"column {column!r} of table {table!r} may not be null")
        self.table = table
        self.column = column


class ForeignKeyError(ConstraintError):
    """A foreign-key reference is dangling or a restricted parent row
    would be orphaned by an update/delete."""

    def __init__(self, message: str) -> None:
        super().__init__(message)


class CheckError(ConstraintError):
    """A column CHECK constraint rejected a value."""

    def __init__(self, table: str, column: str, constraint: str, value: object) -> None:
        super().__init__(
            f"table {table!r}: value {value!r} for column {column!r} "
            f"violates CHECK constraint {constraint!r}"
        )
        self.table = table
        self.column = column
        self.constraint = constraint
        self.value = value


class TransactionError(RdbError):
    """Transaction API misuse (commit without begin, unknown savepoint)."""


class JournalCorruptError(RdbError):
    """The journal is damaged *before* its final record.

    A torn final record is the expected signature of a crash mid-append
    and is tolerated silently; corruption anywhere earlier means bytes
    that were acknowledged as durable have been altered or lost, which
    recovery must surface rather than silently truncate the history at
    the damage point.  ``offset`` is the byte position of the damaged
    record, ``reason`` the parse failure observed there.  Callers that
    prefer availability over strictness can re-run recovery in salvage
    mode, which skips damaged records and keeps going.  Also raised, in
    either mode, for a file in the retired v1 JSON-lines format.
    """

    def __init__(self, path: object, offset: int, reason: str) -> None:
        super().__init__(
            f"journal {str(path)!r} corrupt at byte {offset}: {reason}"
        )
        self.path = str(path)
        self.offset = offset
        self.reason = reason
