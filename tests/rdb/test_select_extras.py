"""Tests for DISTINCT selection and UPSERT."""

import pytest

from repro.rdb import SchemaError, col


BAD_BOUNDS = {
    "neg-limit": dict(limit=-1), "str-limit": dict(limit="2"),
    "bool-limit": dict(limit=True), "float-limit": dict(limit=1.0),
    "neg-offset": dict(offset=-1), "limit-neg-offset": dict(limit=3, offset=-1),
    "str-offset": dict(offset="1"), "bool-offset": dict(offset=False),
    "none-offset": dict(offset=None),
}


class TestBounds:
    """``limit``/``offset`` are checked once at ``execute_select`` entry:
    a negative bound must not become a from-the-end slice, and the two
    select pipelines (list-building and ordered) must agree."""

    @pytest.mark.parametrize("bounds", BAD_BOUNDS.values(), ids=BAD_BOUNDS)
    @pytest.mark.parametrize("order_by", [None, "order_id"],
                             ids=["heap", "ordered"])
    def test_bad_bounds_raise(self, populated_db, bounds, order_by):
        with pytest.raises(ValueError, match="limit|offset"):
            populated_db.select("orders", order_by=order_by, **bounds)

    def test_zero_and_past_the_end_are_fine(self, populated_db):
        assert populated_db.select("orders", limit=0) == []
        assert populated_db.select("orders", offset=99) == []
        assert len(populated_db.select("orders", limit=99)) == 3


class TestDistinct:
    def test_distinct_projection(self, populated_db):
        rows = populated_db.select(
            "orders", columns=["person_id"], distinct=True,
            order_by="person_id",
        )
        assert rows == [{"person_id": 1}, {"person_id": 2}]

    def test_distinct_full_rows_noop_with_pk(self, populated_db):
        """Full rows contain the PK, so DISTINCT changes nothing."""
        rows = populated_db.select("orders", distinct=True)
        assert len(rows) == 3

    def test_distinct_before_limit(self, populated_db):
        rows = populated_db.select(
            "orders", columns=["person_id"], distinct=True,
            order_by="person_id", limit=1,
        )
        assert rows == [{"person_id": 1}]

    def test_distinct_handles_json_columns(self, populated_db):
        populated_db.insert(
            "people", {"person_id": 7, "name": "dup", "tags": ["stu"]}
        )
        rows = populated_db.select(
            "people", columns=["tags"], distinct=True
        )
        tag_sets = [tuple(r["tags"]) for r in rows]
        assert len(tag_sets) == len(set(tag_sets))

    def test_distinct_keeps_first_occurrence_in_order(self, populated_db):
        rows = populated_db.select(
            "orders", columns=["person_id"],
            order_by="amount", descending=True, distinct=True,
        )
        # amounts 7.5 (p1), 5.0 (p1), 2.0 (p2) -> p1 first
        assert [r["person_id"] for r in rows] == [1, 2]


class TestUpsert:
    def test_insert_path(self, db):
        created = db.upsert("people", {"person_id": 1, "name": "new"})
        assert created is True
        assert db.get("people", 1)["name"] == "new"

    def test_update_path(self, populated_db):
        created = populated_db.upsert(
            "people", {"person_id": 1, "name": "ada2", "age": 37}
        )
        assert created is False
        row = populated_db.get("people", 1)
        assert row["name"] == "ada2" and row["age"] == 37
        # untouched columns survive
        assert row["email"] == "ada@mmu.edu"

    def test_missing_pk_column_rejected(self, db):
        with pytest.raises(SchemaError, match="primary-key column"):
            db.upsert("people", {"name": "nameless"})

    def test_pk_only_upsert_is_noop_update(self, populated_db):
        assert populated_db.upsert("people", {"person_id": 1}) is False
        assert populated_db.get("people", 1)["name"] == "ada"

    def test_upsert_respects_constraints(self, populated_db):
        from repro.rdb import DuplicateKeyError

        with pytest.raises(DuplicateKeyError):
            populated_db.upsert(
                "people",
                {"person_id": 3, "email": "ada@mmu.edu"},  # unique clash
            )

    def test_upsert_inside_transaction_rolls_back(self, populated_db):
        populated_db.begin()
        populated_db.upsert("people", {"person_id": 1, "name": "changed"})
        populated_db.rollback()
        assert populated_db.get("people", 1)["name"] == "ada"
