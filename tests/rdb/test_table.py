"""Tests for the heap table layer."""

import pytest

from repro.rdb import Column, ColumnType, Schema, SchemaError
from repro.rdb.table import Table

T = ColumnType


@pytest.fixture
def table() -> Table:
    return Table(
        Schema(
            name="t",
            columns=(
                Column("k", T.INT, nullable=False),
                Column("v", T.TEXT),
                Column("g", T.TEXT),
            ),
            primary_key=("k",),
            unique=(("v",),),
        )
    )


class TestAutoIndexes:
    def test_pk_index_created(self, table):
        assert table.indexes.hash_index_on(("k",)) is not None

    def test_unique_index_created(self, table):
        assert table.indexes.hash_index_on(("v",)) is not None

    def test_fk_index_created(self):
        from repro.rdb import ForeignKey

        parent = Schema(
            name="p",
            columns=(Column("k", T.INT, nullable=False),),
            primary_key=("k",),
        )
        child = Table(
            Schema(
                name="c",
                columns=(
                    Column("k", T.INT, nullable=False),
                    Column("pk", T.INT),
                ),
                primary_key=("k",),
                foreign_keys=(ForeignKey(("pk",), "p", ("k",)),),
            )
        )
        assert child.indexes.hash_index_on(("pk",)) is not None
        assert parent.primary_key == ("k",)


class TestMutations:
    def test_insert_assigns_rowids(self, table):
        r1 = table.apply_insert({"k": 1, "v": "a", "g": "x"})
        r2 = table.apply_insert({"k": 2, "v": "b", "g": "x"})
        assert r1 != r2 and len(table) == 2

    def test_get_by_rowid(self, table):
        rowid = table.apply_insert({"k": 1, "v": "a", "g": "x"})
        assert table.get(rowid)["v"] == "a"
        assert table.get(999) is None

    def test_get_many_keeps_order_and_skips_vanished_rows(self, table):
        ids = [table.apply_insert({"k": k, "v": str(k), "g": "x"})
               for k in (1, 2, 3)]
        probed = iter([ids[2], 999, ids[0], ids[1]])  # any iterable
        table.apply_delete(ids[0])  # gone between the probe and the fetch
        assert [row["k"] for row in table.get_many(probed)] == [3, 2]
        assert table.get_many([]) == []

    def test_pk_lookup(self, table):
        table.apply_insert({"k": 7, "v": "a", "g": "x"})
        assert table.row_for_pk((7,))["v"] == "a"
        assert table.row_for_pk((8,)) is None

    def test_update_reindexes(self, table):
        rowid = table.apply_insert({"k": 1, "v": "a", "g": "x"})
        old = table.apply_update(rowid, {"k": 1, "v": "z", "g": "x"})
        assert old["v"] == "a"
        assert table.indexes.hash_index_on(("v",)).lookup(("a",)) == frozenset()
        assert table.indexes.hash_index_on(("v",)).lookup(("z",)) == {rowid}

    def test_delete_unindexes(self, table):
        rowid = table.apply_insert({"k": 1, "v": "a", "g": "x"})
        removed = table.apply_delete(rowid)
        assert removed["k"] == 1
        assert len(table) == 0
        assert table.rowid_for_pk((1,)) is None


class TestSecondaryIndexCreation:
    def test_hash_index_backfills(self, table):
        table.apply_insert({"k": 1, "v": "a", "g": "grp1"})
        table.apply_insert({"k": 2, "v": "b", "g": "grp1"})
        table.create_hash_index("by_g", ("g",))
        assert len(table.indexes.hash_index_on(("g",)).lookup(("grp1",))) == 2

    def test_sorted_index_backfills(self, table):
        for k in (3, 1, 2):
            table.apply_insert({"k": k, "v": str(k), "g": "x"})
        table.create_sorted_index("by_k", "k")
        index = table.indexes.sorted_index_on("k")
        assert len(list(index.range(1, 2))) == 2

    def test_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.create_hash_index("bad", ("ghost",))
        with pytest.raises(SchemaError):
            table.create_sorted_index("bad", "ghost")

    def test_new_rows_maintained(self, table):
        table.create_sorted_index("by_k", "k")
        table.apply_insert({"k": 5, "v": "a", "g": "x"})
        assert list(table.indexes.sorted_index_on("k").range(5, 5))
