"""Facade-level engine tests (get/exists/count/update/delete paths)."""

import pytest

from repro.rdb import SchemaError, UnknownColumnError, col


class TestGetExists:
    def test_get_scalar_pk(self, populated_db):
        assert populated_db.get("people", 1)["name"] == "ada"

    def test_get_tuple_pk(self, populated_db):
        assert populated_db.get("people", (1,))["name"] == "ada"

    def test_get_list_pk(self, populated_db):
        assert populated_db.get("people", [1])["name"] == "ada"

    def test_get_missing(self, populated_db):
        assert populated_db.get("people", 99) is None

    def test_get_returns_copy(self, populated_db):
        populated_db.get("people", 1)["name"] = "mutated"
        assert populated_db.get("people", 1)["name"] == "ada"

    def test_exists(self, populated_db):
        assert populated_db.exists("people", 1)
        assert not populated_db.exists("people", 99)

    def test_count_with_where(self, populated_db):
        assert populated_db.count("people", col("age").not_null()) == 2


class TestUpdate:
    def test_update_where_returns_count(self, populated_db):
        n = populated_db.update(
            "people", {"age": 0}, where=col("age").not_null()
        )
        assert n == 2

    def test_update_all(self, populated_db):
        assert populated_db.update("people", {"age": 1}) == 3

    def test_update_pk_missing_returns_false(self, populated_db):
        assert populated_db.update_pk("people", 99, {"age": 1}) is False

    def test_update_unknown_column_rejected(self, populated_db):
        with pytest.raises(SchemaError):
            populated_db.update_pk("people", 1, {"ghost": 1})

    def test_update_validates_types(self, populated_db):
        with pytest.raises(TypeError):
            populated_db.update_pk("people", 1, {"age": "old"})

    @pytest.mark.parametrize("changes, error", [
        ({"ghost": 1}, SchemaError), ({"age": "old"}, TypeError),
        ({"age": True}, TypeError),
    ])
    def test_changes_are_validated_even_when_no_row_matches(
        self, populated_db, changes, error
    ):
        """Once per statement, before targets are selected: a misspelt
        column or a wrong-typed value is an error, not ``0``/``False``."""
        before = populated_db.stats()["statements"]
        with pytest.raises(error):
            populated_db.update("people", changes, where=col("person_id") == 99)
        with pytest.raises(error):
            populated_db.update_pk("people", 99, changes)
        assert populated_db.stats()["statements"] == before

    def test_update_stores_changes_in_column_form(self, populated_db):
        populated_db.update("orders", {"amount": 3}, where=col("order_id") == 10)
        amount = populated_db.get("orders", 10)["amount"]
        assert amount == 3.0 and type(amount) is float


class TestDelete:
    def test_delete_where_returns_count(self, populated_db):
        assert populated_db.delete("orders", col("person_id") == 1) == 2
        assert populated_db.count("orders") == 1

    def test_delete_all(self, populated_db):
        assert populated_db.delete("orders") == 3

    def test_delete_pk_missing_returns_false(self, populated_db):
        assert populated_db.delete_pk("people", 99) is False


class TestInsertMany:
    def test_returns_pks(self, db):
        pks = db.insert_many(
            "people",
            [{"person_id": 1, "name": "a"}, {"person_id": 2, "name": "b"}],
        )
        assert pks == [(1,), (2,)]

    def test_atomic_inside_open_transaction(self, db):
        db.begin()
        db.insert_many("people", [{"person_id": 1, "name": "a"}])
        db.rollback()
        assert db.count("people") == 0


class TestRowsByKey:
    """``rows_by_key``: one probe of the hash index on exactly the named
    columns, answering what a select on the key answers in row-id order."""

    def test_rows_in_row_id_order(self, populated_db):
        # Re-inserting order 10 gives it a row id past order 11's.
        populated_db.delete_pk("orders", 10)
        populated_db.insert(
            "orders", {"order_id": 10, "person_id": 1, "amount": 5.0}
        )
        rows = populated_db.rows_by_key("orders", ("person_id",), (1,))
        assert [row["order_id"] for row in rows] == [11, 10]

    def test_same_rows_as_a_select_on_the_key(self, populated_db):
        for key in (1, 2, 3, 99, "1", 1.0):
            expected = sorted(
                populated_db.select("orders", where=col("person_id") == key),
                key=lambda row: row["order_id"],
            )
            found = populated_db.rows_by_key("orders", ["person_id"], (key,))
            assert found == expected, key

    def test_primary_and_unique_keys_have_indexes_too(self, populated_db):
        assert populated_db.rows_by_key("people", ("person_id",), (2,)) \
            == [populated_db.get("people", 2)]
        (ada,) = populated_db.rows_by_key("people", ("email",), ("ada@mmu.edu",))
        assert ada["name"] == "ada"

    def test_null_component_finds_nothing(self, populated_db):
        populated_db.insert("orders", {"order_id": 13, "person_id": None})
        equals_null = col("person_id") == None  # noqa: E711 - SQL's, not Python's
        assert populated_db.select("orders", where=equals_null) == []
        assert populated_db.rows_by_key("orders", ("person_id",), (None,)) == []

    def test_unhashable_key_finds_nothing(self, populated_db):
        assert populated_db.rows_by_key("orders", ("person_id",), ([1],)) == []
        assert populated_db.rows_by_key("people", ("email",), ({"a": 1},)) == []

    def test_wrong_arity_is_refused(self, populated_db):
        with pytest.raises(ValueError, match="does not fit"):
            populated_db.rows_by_key("orders", ("person_id",), (1, 2))
        with pytest.raises(ValueError, match="does not fit"):
            populated_db.rows_by_key("orders", ("person_id",), ())

    def test_no_index_is_a_lookup_error_not_a_scan(self, populated_db):
        with pytest.raises(LookupError, match="no hash index"):
            populated_db.rows_by_key("orders", ("amount",), (5.0,))
        with pytest.raises(LookupError, match="no hash index"):
            populated_db.rows_by_key(
                "orders", ("order_id", "person_id"), (10, 1)
            )

    def test_returns_copies(self, populated_db):
        rows = populated_db.rows_by_key("orders", ("person_id",), (1,))
        rows[0]["amount"] = -1.0
        assert populated_db.get("orders", 10)["amount"] == 5.0
        (first, _) = populated_db.rows_by_key("orders", ("person_id",), (1,))
        assert first["amount"] == 5.0

    def test_one_column_is_its_values_in_row_id_order(self, populated_db):
        for key in (1, 2, 99, None, [1]):
            rows = populated_db.rows_by_key("orders", ("person_id",), (key,))
            assert populated_db.rows_by_key(
                "orders", ("person_id",), (key,), "order_id"
            ) == [row["order_id"] for row in rows]
        with pytest.raises(UnknownColumnError):
            populated_db.rows_by_key("orders", ("person_id",), (1,), "ghost")
