"""Column types, columns and table schemas.

A :class:`Schema` is a declarative description of one table: named typed
columns, a primary key, optional unique constraints and foreign keys.
Values are plain Python objects; :func:`ColumnType.validate` performs
type checking and the mild coercions (int -> float) a SQL engine would.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.rdb.errors import SchemaError
from repro.util.validation import check_identifier

if TYPE_CHECKING:
    from repro.rdb.constraints import ForeignKey

__all__ = ["ColumnType", "Column", "Schema", "key_getter"]


def key_getter(columns: tuple[str, ...]) -> Callable[[dict[str, Any]], tuple]:
    """``row -> tuple(row[c] for c in columns)``, resolved once per key:
    an ``itemgetter`` (which alone would hand a lone column back bare)."""
    if len(columns) == 1:
        (name,) = columns
        return lambda row: (row[name],)
    return itemgetter(*columns)


class ColumnType(enum.Enum):
    """Supported column types.

    ``JSON`` stores lists/dicts of JSON-safe values and is used for the
    multi-valued attributes the paper's tables carry (e.g. the list of
    "bad URLs" in a bug report).  ``BYTES`` stores raw blobs — the engine
    keeps only small ones; large multimedia lives in the BLOB store.
    """

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    DATETIME = "datetime"
    JSON = "json"
    BYTES = "bytes"

    def validate(self, value: Any, *, column: str) -> Any:
        """Check (and mildly coerce) ``value`` for this type.

        Returns the stored representation.  Raises :class:`TypeError` on
        mismatch.  ``None`` is handled by the caller (nullability is a
        column property, not a type property).
        """
        if self is ColumnType.JSON:
            _check_json(value, column)
            return value
        label, accepted, stored, converts = _TYPE_SPECS[self]
        # bool is an int subclass; reject it to avoid silent surprises.
        if not isinstance(value, accepted) or (
            stored is not bool and isinstance(value, bool)
        ):
            raise TypeError(f"column {column!r} expects {label}, got {value!r}")
        return stored(value) if converts else value


#: Per type: its name in error messages, the classes it accepts, the
#: class a stored value has, and whether every accepted value is passed
#: through that class (``int`` into FLOAT, ``bytearray`` into BYTES).  A
#: value of *exactly* the stored class is its own stored form either
#: way.  JSON has no entry: its values are checked in depth.
_TYPE_SPECS: dict[ColumnType, tuple[str, Any, type, bool]] = {
    ColumnType.INT: ("int", int, int, False),
    ColumnType.FLOAT: ("float", (int, float), float, True),
    ColumnType.TEXT: ("str", str, str, False),
    ColumnType.BOOL: ("bool", bool, bool, False),
    ColumnType.DATETIME: ("datetime", _dt.datetime, _dt.datetime, False),
    ColumnType.BYTES: ("bytes", (bytes, bytearray), bytes, True),
}


def _check_json(value: Any, column: str, _depth: int = 0) -> None:
    """Recursively validate that ``value`` is JSON-representable."""
    if _depth > 32:
        raise TypeError(f"column {column!r}: JSON value nested too deeply")
    if value is None or isinstance(value, (str, bool)):
        return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_json(item, column, _depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"column {column!r}: JSON object keys must be str, got {key!r}"
                )
            _check_json(item, column, _depth + 1)
        return
    raise TypeError(f"column {column!r} expects a JSON value, got {value!r}")


@dataclass(frozen=True, slots=True)
class Column:
    """One column of a table schema.

    ``check`` is an optional CHECK constraint: a predicate over the
    (non-null) column value; rows violating it are rejected with
    :class:`~repro.rdb.errors.CheckError`.  ``check_label`` names the
    constraint in error messages (defaults to ``check_<column>``).
    """

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = None
    check: Callable[[Any], bool] | None = None
    check_label: str | None = None

    def __post_init__(self) -> None:
        check_identifier(self.name, "column name")
        if self.default is not None:
            # Validate the default eagerly so schema errors surface at
            # CREATE TABLE time rather than on the first insert.
            self.type.validate(self.default, column=self.name)
            if self.check is not None and not self.check(self.default):
                raise SchemaError(
                    f"column {self.name!r}: default {self.default!r} "
                    "violates its own CHECK constraint"
                )

    @property
    def constraint_name(self) -> str:
        return self.check_label or f"check_{self.name}"


@dataclass(frozen=True)
class Schema:
    """A table schema: columns, primary key, unique sets, foreign keys."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    unique: tuple[tuple[str, ...], ...] = ()
    foreign_keys: tuple["ForeignKey", ...] = ()
    _by_name: dict[str, Column] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: What a statement needs per row, resolved here once: the NOT NULL
    #: column names, the columns carrying a CHECK, every column of the
    #: primary key or a unique set, the primary-key extractor, and per
    #: column (default, stored class, validator).
    not_null: tuple[str, ...] = field(init=False, repr=False, compare=False)
    checked: tuple[Column, ...] = field(init=False, repr=False, compare=False)
    key_columns: frozenset[str] = field(init=False, repr=False, compare=False)
    primary_key_of: Callable[[dict[str, Any]], tuple] = field(
        init=False, repr=False, compare=False
    )
    _plan: dict[str, tuple[Any, type | None, Callable[..., Any]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_identifier(self.name, "table name")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(
                    f"table {self.name!r} defines column {column.name!r} twice"
                )
            by_name[column.name] = column
        object.__setattr__(self, "_by_name", by_name)
        if not self.primary_key:
            raise SchemaError(f"table {self.name!r} must declare a primary key")
        for group in (self.primary_key, *self.unique):
            for column_name in group:
                if column_name not in by_name:
                    raise SchemaError(
                        f"table {self.name!r}: key column {column_name!r} "
                        "is not a column of the table"
                    )
        for pk_col in self.primary_key:
            if by_name[pk_col].nullable:
                raise SchemaError(
                    f"table {self.name!r}: primary-key column {pk_col!r} "
                    "must be declared nullable=False"
                )
        for fk in self.foreign_keys:
            for column_name in fk.columns:
                if column_name not in by_name:
                    raise SchemaError(
                        f"table {self.name!r}: foreign-key column "
                        f"{column_name!r} is not a column of the table"
                    )
        derived = {
            "not_null": tuple(c.name for c in self.columns if not c.nullable),
            "checked": tuple(c for c in self.columns if c.check is not None),
            "key_columns": frozenset(self.primary_key).union(*self.unique),
            "primary_key_of": key_getter(self.primary_key),
            "_plan": {
                c.name: (
                    c.default,
                    _TYPE_SPECS[c.type][2] if c.type in _TYPE_SPECS else None,
                    c.type.validate,
                )
                for c in self.columns
            },
        }
        for attribute, value in derived.items():
            object.__setattr__(self, attribute, value)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> Column:
        """Look up a column by name; raises :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def normalize_row(self, values: dict[str, Any]) -> dict[str, Any]:
        """Validate ``values`` against the schema and fill defaults.

        Returns a fresh dict with exactly one entry per schema column.
        Unknown keys raise; missing keys take the column default (which
        may be ``None``).  NOT NULL enforcement happens later in the
        constraint checker so it participates in the error hierarchy.
        """
        if not values.keys() <= self._plan.keys():
            self.column(next(k for k in values if k not in self._plan))
        get = values.get
        # A value of exactly the column's stored class is its own stored
        # form (bool is not an exact int; an int for FLOAT is converted).
        return {
            name: value
            if (value := get(name, default)) is None or type(value) is stored
            else validate(value, column=name)
            for name, (default, stored, validate) in self._plan.items()
        }

    def normalize_changes(self, changes: dict[str, Any]) -> dict[str, Any]:
        """Validate an UPDATE's ``{column: value}`` the way
        :meth:`normalize_row` would; returns the stored forms."""
        out: dict[str, Any] = {}
        for name, value in changes.items():
            if name not in self._plan:
                self.column(name)  # raises: unknown column
            _default, stored, validate = self._plan[name]
            if value is not None and type(value) is not stored:
                value = validate(value, column=name)
            out[name] = value
        return out

    def key_of(self, row: dict[str, Any], columns: tuple[str, ...]) -> tuple:
        """Extract the tuple key for ``columns`` from a normalized row."""
        return tuple(row[name] for name in columns)
