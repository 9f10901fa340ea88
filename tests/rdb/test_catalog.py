"""Tests for the catalog / DDL layer."""

import pytest

from repro.rdb import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Schema,
    SchemaError,
    UnknownTableError,
)

T = ColumnType


def _simple(name: str) -> Schema:
    return Schema(
        name=name,
        columns=(Column("k", T.INT, nullable=False),),
        primary_key=("k",),
    )


class TestCreateDrop:
    def test_create_and_list(self):
        db = Database("x")
        db.create_table(_simple("a"))
        db.create_table(_simple("b"))
        assert db.table_names() == ["a", "b"]

    def test_schemas_come_in_creation_order_parents_first(self):
        """``table_names`` sorts; ``schemas`` keeps the order the tables
        were created in, which ``create_table`` forces to be parents
        before children — what ``Database.recover`` needs."""
        db = Database("x")
        db.create_table(_simple("z_parent"))
        child = Schema(
            name="a_child",
            columns=(Column("k", T.INT, nullable=False), Column("f", T.INT)),
            primary_key=("k",),
            foreign_keys=(ForeignKey(("f",), "z_parent", ("k",)),),
        )
        db.create_table(child)
        assert db.table_names() == ["a_child", "z_parent"]
        assert [s.name for s in db.schemas()] == ["z_parent", "a_child"]
        rebuilt = Database("y")
        for schema in db.schemas():
            rebuilt.create_table(schema)

    def test_duplicate_table_rejected(self):
        db = Database("x")
        db.create_table(_simple("a"))
        with pytest.raises(SchemaError, match="already exists"):
            db.create_table(_simple("a"))

    def test_unknown_table_access(self):
        db = Database("x")
        with pytest.raises(UnknownTableError):
            db.select("ghost")
        with pytest.raises(UnknownTableError):
            db.insert("ghost", {})
        with pytest.raises(UnknownTableError):
            db.drop_table("ghost")

    def test_drop_table(self):
        db = Database("x")
        db.create_table(_simple("a"))
        db.drop_table("a")
        assert db.table_names() == []

    def test_drop_referenced_table_rejected(self):
        db = Database("x")
        db.create_table(_simple("p"))
        db.create_table(
            Schema(
                name="c",
                columns=(
                    Column("k", T.INT, nullable=False),
                    Column("f", T.INT),
                ),
                primary_key=("k",),
                foreign_keys=(ForeignKey(("f",), "p", ("k",)),),
            )
        )
        with pytest.raises(SchemaError, match="references it"):
            db.drop_table("p")
        db.drop_table("c")
        db.drop_table("p")  # now fine

    def test_fk_may_target_declared_unique(self):
        db = Database("x")
        db.create_table(
            Schema(
                name="p",
                columns=(
                    Column("k", T.INT, nullable=False),
                    Column("alt", T.TEXT, nullable=False),
                ),
                primary_key=("k",),
                unique=(("alt",),),
            )
        )
        db.create_table(
            Schema(
                name="c",
                columns=(
                    Column("k", T.INT, nullable=False),
                    Column("f", T.TEXT),
                ),
                primary_key=("k",),
                foreign_keys=(ForeignKey(("f",), "p", ("alt",)),),
            )
        )
        db.insert("p", {"k": 1, "alt": "x"})
        db.insert("c", {"k": 1, "f": "x"})

    def test_fk_parent_column_must_exist(self):
        db = Database("x")
        db.create_table(_simple("p"))
        with pytest.raises(SchemaError):
            db.create_table(
                Schema(
                    name="c",
                    columns=(
                        Column("k", T.INT, nullable=False),
                        Column("f", T.INT),
                    ),
                    primary_key=("k",),
                    foreign_keys=(ForeignKey(("f",), "p", ("ghost",)),),
                )
            )

    def test_schema_access(self):
        db = Database("x")
        db.create_table(_simple("a"))
        assert db.schema("a").name == "a"


class TestDatabaseNaming:
    def test_bad_database_name(self):
        with pytest.raises(ValueError):
            Database("")

    def test_stats_shape(self):
        db = Database("x")
        db.create_table(_simple("a"))
        db.insert("a", {"k": 1})
        stats = db.stats()
        assert stats["tables"] == {"a": 1}
        assert stats["statements"] == 1
