"""Tests for query execution: selects, plans, joins, aggregates."""

import pytest

from repro.rdb import Database, UnknownColumnError, col
from repro.rdb.query import aggregate, join_rows


def _crowd(db, extra=12):
    """Grow the 3-row fixture until an index pays: a candidate reached
    through an index costs about four heap rows (``query._INDEX_ROW_COST``),
    so on three rows every honest plan is ``scan``.  The extra people
    are old and their orders large, outside every range asked below."""
    for i in range(extra):
        db.insert("people", {"person_id": 100 + i, "name": f"p{i}",
                             "age": 300 + i, "email": f"p{i}@mmu.edu"})
        db.insert("orders", {"order_id": 100 + i, "person_id": 100 + i,
                             "amount": 100.0 + i})


class TestSelect:
    def test_select_all(self, populated_db):
        assert len(populated_db.select("people")) == 3

    def test_where_filters(self, populated_db):
        rows = populated_db.select("people", where=col("age") > 25)
        assert [r["name"] for r in rows] == ["ada"]

    def test_order_by(self, populated_db):
        rows = populated_db.select("people", order_by="name")
        assert [r["name"] for r in rows] == ["ada", "bob", "cyd"]

    def test_order_by_descending(self, populated_db):
        rows = populated_db.select("people", order_by="name", descending=True)
        assert [r["name"] for r in rows] == ["cyd", "bob", "ada"]

    def test_order_by_nulls_first(self, populated_db):
        rows = populated_db.select("people", order_by="age")
        assert rows[0]["name"] == "cyd"  # null age sorts first

    def test_multi_column_order(self, populated_db):
        rows = populated_db.select("orders", order_by=("person_id", "amount"))
        assert [r["order_id"] for r in rows] == [10, 11, 12]

    def test_limit_offset(self, populated_db):
        rows = populated_db.select("people", order_by="person_id",
                                   limit=1, offset=1)
        assert [r["person_id"] for r in rows] == [2]

    def test_projection(self, populated_db):
        rows = populated_db.select("people", columns=["name"])
        assert all(set(r) == {"name"} for r in rows)

    def test_projection_unknown_column(self, populated_db):
        with pytest.raises(UnknownColumnError):
            populated_db.select("people", columns=["ghost"])

    def test_order_by_unknown_column(self, populated_db):
        with pytest.raises(UnknownColumnError):
            populated_db.select("people", order_by="ghost")

    @pytest.mark.parametrize("path", ["scan", "hash probe", "empty table"])
    @pytest.mark.parametrize("statement", ["select", "count", "update", "delete"])
    def test_where_naming_an_unknown_column_is_refused_on_every_path(
            self, populated_db, path, statement):
        """Once answered ``[]``/``0`` through a probe or on an empty
        table and raised a bare KeyError on a scan; now refused at plan
        time whatever the path, before a row is touched."""
        where = col("ghost") == 1
        target = populated_db
        if path == "hash probe":
            probe = col("person_id") == 99
            assert target.explain_plan("people", probe).access_path \
                == "index:__pk__"
            where = probe & where
        elif path == "scan":
            assert target.explain_plan("people", None).access_path == "scan"
        else:
            target = Database("empty")
            target.create_table(populated_db.schema("people"))
        before = target.select("people")
        run = {
            "select": lambda: target.select("people", where=where),
            "count": lambda: target.count("people", where=where),
            "update": lambda: target.update("people", {"name": "x"}, where=where),
            "delete": lambda: target.delete("people", where=where),
        }[statement]
        with pytest.raises(UnknownColumnError) as excinfo:
            run()
        assert excinfo.value.column == "ghost"
        assert target.select("people") == before

    def test_rows_are_copies(self, populated_db):
        row = populated_db.select("people", where=col("person_id") == 1)[0]
        row["name"] = "mutated"
        assert populated_db.get("people", 1)["name"] == "ada"


class TestPlanner:
    def test_pk_equality_uses_index(self, populated_db):
        _crowd(populated_db)
        plan = populated_db.explain("people", col("person_id") == 1)
        assert "index:" in plan

    def test_fk_equality_uses_index(self, populated_db):
        _crowd(populated_db)
        plan = populated_db.explain("orders", col("person_id") == 1)
        assert "index:" in plan

    def test_non_indexed_column_scans(self, populated_db):
        assert "scan" in populated_db.explain("people", col("age") > 5)

    def test_or_predicate_scans(self, populated_db):
        plan = populated_db.explain(
            "people", (col("person_id") == 1) | (col("person_id") == 2)
        )
        assert "scan" in plan

    def test_index_plus_residual_filter(self, populated_db):
        rows = populated_db.select(
            "orders", where=(col("person_id") == 1) & (col("amount") > 6)
        )
        assert [r["order_id"] for r in rows] == [11]

    def test_secondary_index_used_after_creation(self, populated_db):
        _crowd(populated_db)
        populated_db.create_hash_index("people", "by_name", ["name"])
        plan = populated_db.explain("people", col("name") == "ada")
        assert "index:by_name" in plan


class TestRange:
    def test_range_without_index(self, populated_db):
        rows = populated_db.select(
            "orders", where=col("amount").between(3.0, 8.0))
        assert sorted(r["order_id"] for r in rows) == [10, 11]

    def test_range_with_sorted_index(self, populated_db):
        _crowd(populated_db)
        populated_db.create_sorted_index("orders", "by_amount", "amount")
        where = col("amount").between(3.0, 8.0)
        assert "index:by_amount" in populated_db.explain("orders", where)
        rows = populated_db.select("orders", where=where)
        # Straight off the index: ascending key order.
        assert [r["order_id"] for r in rows] == [10, 11]

    def test_range_exclusive(self, populated_db):
        where = (col("amount") > 5.0) & (col("amount") < 7.5)
        assert populated_db.select("orders", where=where) == []
        populated_db.create_sorted_index("orders", "by_amount", "amount")
        assert populated_db.select("orders", where=where) == []

    def test_range_ignores_nulls(self, populated_db):
        _crowd(populated_db)
        where = col("age").between(0, 200)
        rows = populated_db.select("people", where=where)
        assert sorted(r["name"] for r in rows) == ["ada", "bob"]
        populated_db.create_sorted_index("people", "by_age", "age")
        assert "index:by_age" in populated_db.explain("people", where)
        rows = populated_db.select("people", where=where)
        assert [r["name"] for r in rows] == ["bob", "ada"]


class TestJoin:
    def test_inner_join(self, populated_db):
        rows = populated_db.join(
            "people", "orders", on=[("person_id", "person_id")]
        )
        assert len(rows) == 3
        assert {r["l.name"] for r in rows} == {"ada", "bob"}

    def test_left_join_keeps_unmatched(self, populated_db):
        rows = populated_db.join(
            "people", "orders", on=[("person_id", "person_id")], kind="left"
        )
        cyd = [r for r in rows if r["l.name"] == "cyd"]
        assert len(cyd) == 1 and cyd[0]["r.order_id"] is None

    def test_join_with_filters(self, populated_db):
        rows = populated_db.join(
            "people", "orders", on=[("person_id", "person_id")],
            where_right=col("amount") > 6,
        )
        assert [r["r.order_id"] for r in rows] == [11]

    def test_join_null_keys_never_match(self):
        rows = join_rows(
            [{"k": None, "v": 1}], [{"k": None, "w": 2}], on=[("k", "k")]
        )
        assert rows == []

    def test_bad_join_kind(self, populated_db):
        with pytest.raises(ValueError):
            populated_db.join("people", "orders",
                              on=[("person_id", "person_id")], kind="outer")


class TestAggregate:
    def test_global_aggregates(self, populated_db):
        out = populated_db.aggregate(
            "orders",
            {"n": ("count", None), "total": ("sum", "amount"),
             "mean": ("avg", "amount"), "low": ("min", "amount"),
             "high": ("max", "amount")},
        )
        assert out == [
            {"n": 3, "total": 14.5, "mean": pytest.approx(14.5 / 3),
             "low": 2.0, "high": 7.5}
        ]

    def test_group_by(self, populated_db):
        out = populated_db.aggregate(
            "orders",
            {"n": ("count", None), "total": ("sum", "amount")},
            group_by=["person_id"],
        )
        assert out == [
            {"person_id": 1, "n": 2, "total": 12.5},
            {"person_id": 2, "n": 1, "total": 2.0},
        ]

    def test_nulls_excluded_from_column_aggregates(self, populated_db):
        out = populated_db.aggregate(
            "people", {"n": ("count", None), "mean_age": ("avg", "age")}
        )
        assert out[0]["n"] == 3
        assert out[0]["mean_age"] == pytest.approx(28.0)

    @pytest.mark.parametrize("where", [
        col("amount") > 1e9,   # matches nothing: used to answer [{'s': 0}] / []
        None,                  # matches rows: used to be a bare KeyError
    ])
    def test_unknown_column_is_refused_before_a_row_is_touched(
            self, populated_db, where):
        with pytest.raises(UnknownColumnError) as excinfo:
            populated_db.aggregate(
                "orders", {"s": ("sum", "nope")}, where=where)
        assert "nope" in str(excinfo.value)
        with pytest.raises(UnknownColumnError):
            populated_db.aggregate(
                "orders", {"n": ("count", None)}, where=where,
                group_by=["zzz"])
        # The schema-less form has nothing to check names against.
        assert aggregate([], {"s": ("sum", "nope")}) == [{"s": 0}]

    def test_empty_input(self):
        assert aggregate([], {"n": ("count", None), "m": ("max", "x")}) == [
            {"n": 0, "m": None}
        ]

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], {"bad": ("median", "x")})

    def test_count_star_includes_null_rows(self):
        rows = [{"x": None}, {"x": 1}]
        out = aggregate(rows, {"all": ("count", None), "xs": ("sum", "x")})
        assert out == [{"all": 2, "xs": 1}]
