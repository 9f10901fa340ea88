"""Facade-level engine tests (get/exists/count/update/delete paths)."""

import pytest

from repro.rdb import SchemaError, col


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
