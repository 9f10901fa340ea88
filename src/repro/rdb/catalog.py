"""The database catalog: table registry and DDL-level validation.

The catalog owns schema-level invariants that span tables — e.g. every
foreign key must point at the parent's primary key or a declared unique
set (so FK lookups are exact-match and indexable).
"""

from __future__ import annotations

from typing import Iterator

from repro.rdb.errors import SchemaError, UnknownTableError
from repro.rdb.table import Table
from repro.rdb.types import Schema

__all__ = ["Catalog"]


class Catalog:
    """Registry of live tables for one database."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        #: Last version of each dropped table, so a re-created name
        #: resumes past it and no reader's remembered version recurs.
        self._dropped_versions: dict[str, int] = {}

    @property
    def tables(self) -> dict[str, Table]:
        """Live name -> table mapping (shared with the constraint checker)."""
        return self._tables

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def names(self) -> list[str]:
        return sorted(self._tables)

    def get(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def create_table(self, schema: Schema) -> Table:
        """Validate ``schema`` against the catalog and register its table.

        Foreign keys may reference tables created later only if
        self-referential; otherwise the parent must already exist so the
        key-target check below can run.  (The document-database schemas in
        :mod:`repro.core.schema` are declared in dependency order.)
        """
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.parent_table == schema.name:
                parent_schema = schema
            else:
                parent = self._tables.get(fk.parent_table)
                if parent is None:
                    raise SchemaError(
                        f"table {schema.name!r}: foreign key references "
                        f"unknown table {fk.parent_table!r}"
                    )
                parent_schema = parent.schema
            targets = (parent_schema.primary_key, *parent_schema.unique)
            if fk.parent_columns not in targets:
                raise SchemaError(
                    f"table {schema.name!r}: foreign key must target the "
                    f"primary key or a unique set of {fk.parent_table!r}; "
                    f"{fk.parent_columns!r} is neither"
                )
            for column_name in fk.parent_columns:
                if not parent_schema.has_column(column_name):
                    raise SchemaError(
                        f"table {schema.name!r}: foreign key references "
                        f"unknown column {fk.parent_table}.{column_name}"
                    )
        table = Table(schema)
        table.version = self._dropped_versions.pop(schema.name, -1) + 1
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table; refuses while other tables hold FKs into it."""
        if name not in self._tables:
            raise UnknownTableError(name)
        for other_name, other in self._tables.items():
            if other_name == name:
                continue
            for fk in other.schema.foreign_keys:
                if fk.parent_table == name:
                    raise SchemaError(
                        f"cannot drop {name!r}: table {other_name!r} "
                        "references it"
                    )
        self._dropped_versions[name] = self._tables.pop(name).version
