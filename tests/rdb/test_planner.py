"""Tests for the cost-based planner: selectivity, pushdown, top-k."""

import pytest

from repro.rdb import (
    Column, ColumnType, Database, Schema, UnknownColumnError, col, lit,
)
from repro.rdb.query import _INDEX_ROW_COST, _collect_matching, plan_select

from tests.conftest import index_named

T = ColumnType


@pytest.fixture
def catalog_db() -> Database:
    """A course-catalog-ish table with skewed and selective columns."""
    db = Database("catalog")
    db.create_table(Schema(
        name="courses",
        columns=(
            Column("course_id", T.INT, nullable=False),
            Column("dept", T.TEXT, nullable=False),       # 4 distinct values
            Column("code", T.TEXT, nullable=False),       # unique-ish
            Column("credits", T.INT, nullable=False),
        ),
        primary_key=("course_id",),
    ))
    db.create_hash_index("courses", "by_dept", ["dept"])
    db.create_hash_index("courses", "by_code", ["code"])
    db.create_sorted_index("courses", "by_credits", "credits")
    for i in range(200):
        db.insert("courses", {
            "course_id": i,
            "dept": ("cs", "ee", "me", "ed")[i % 4],
            "code": f"c{i:03d}",
            "credits": i % 10,
        })
    return db


class TestSelectivityChoice:
    def test_picks_most_selective_hash_index(self, catalog_db):
        # Both by_dept (50 rows/key) and by_code (1 row/key) are covered;
        # the selective one must win regardless of registration order.
        plan = catalog_db.explain_plan(
            "courses",
            (col("dept") == "cs") & (col("code") == "c017"),
        )
        assert plan.access_path == "index:by_code"
        assert plan.estimated_candidates == 1

    def test_conjuncts_recorded(self, catalog_db):
        plan = catalog_db.explain_plan("courses", col("code") == "c017")
        assert plan.chosen_conjuncts == ("code == 'c017'",)

    def test_estimated_cost_tracks_selectivity(self, catalog_db):
        selective = catalog_db.explain_plan("courses", col("code") == "c017")
        skewed = catalog_db.explain_plan("courses", col("dept") == "cs")
        assert selective.estimated_cost < skewed.estimated_cost
        # Costs are in heap-scan rows, an index candidate weighing
        # _INDEX_ROW_COST of them: 1 row per key and 50 rows per key.
        assert selective.estimated_cost == 1 * _INDEX_ROW_COST
        assert skewed.estimated_cost == 50 * _INDEX_ROW_COST
        # A quarter of the table through the index costs what scanning
        # all 200 rows costs — a tie, which the index path takes ...
        assert skewed.estimated_cost == 200
        assert skewed.access_path == "index:by_dept"
        # ... and a probe returning more than that no longer "beats the
        # scan": three departments left, each a third of the table.
        catalog_db.delete("courses", where=col("dept") == "ed")
        third = catalog_db.explain_plan("courses", col("dept") == "cs")
        assert third.access_path == "scan"
        assert third.estimated_cost == 150

    def test_empty_probe_costs_nothing(self, catalog_db):
        plan = catalog_db.explain_plan("courses", col("code") == "missing")
        assert plan.access_path == "index:by_code"
        assert plan.estimated_candidates == 0
        assert plan.estimated_cost == 0.0


class TestUnhashableLiteral:
    """``column == <list/dict>`` is false for every row.  The planner
    used to hash the literal into every covering index — the ``__pk__``
    index covers the primary key of *every* table — and raise."""

    @pytest.mark.parametrize("literal", [[1], {"k": 1}, [[]], ({},)])
    @pytest.mark.parametrize("column", ["course_id", "code", "credits"])
    def test_matches_no_row_on_any_column(self, catalog_db, column, literal):
        where = col(column) == literal
        assert not any(where.eval(r) for r in catalog_db.table("courses").rows())
        assert catalog_db.select("courses", where=where) == []
        assert catalog_db.count("courses", where=where) == 0
        plan = catalog_db.explain_plan("courses", where)
        assert plan.access_path == "scan"
        assert catalog_db.explain("courses", where) == plan.describe()

    def test_another_conjunct_still_gets_its_index(self, catalog_db):
        where = (col("code") == "c017") & (col("course_id") == [17])
        assert catalog_db.explain_plan("courses", where).access_path == (
            "index:by_code")
        assert catalog_db.select("courses", where=where) == []

    def test_composite_key_with_one_unhashable_part(self, catalog_db):
        catalog_db.create_hash_index("courses", "by_both", ["dept", "code"])
        where = (col("dept") == "cs") & (col("code") == ["c017"])
        assert catalog_db.select("courses", where=where) == []
        assert catalog_db.explain_plan("courses", where).access_path in (
            "index:by_dept", "scan")


class TestInListProbe:
    def test_isin_over_a_hashed_column_probes_per_member(self, catalog_db):
        where = col("code").isin(["c040", "c012", "c077", "nope"])
        plan = catalog_db.explain_plan("courses", where)
        assert plan.access_path == "index:by_code"
        assert plan.estimated_candidates == 3
        assert plan.estimated_cost == 3 * _INDEX_ROW_COST
        assert plan.chosen_conjuncts == (
            "code in ['c012', 'c040', 'c077', 'nope']",)
        assert catalog_db.explain("courses", where) == (
            "courses: index:by_code (~3 rows, cost 12) "
            "using code in ['c012', 'c040', 'c077', 'nope']"
        )
        rows = catalog_db.select("courses", where=where)
        # Members are probed in sorted order, on every run.
        assert [r["code"] for r in rows] == ["c012", "c040", "c077"]

    def test_residual_filter_still_applies(self, catalog_db):
        where = col("code").isin(["c012", "c040"]) & (col("credits") > 1)
        assert catalog_db.explain_plan("courses", where).access_path == (
            "index:by_code")
        rows = catalog_db.select("courses", where=where)
        assert [r["code"] for r in rows] == ["c012"]

    def test_wide_in_list_reads_the_heap(self, catalog_db):
        # Half the table through the index costs twice the scan.
        where = col("dept").isin(["cs", "ee"])
        plan = catalog_db.explain_plan("courses", where)
        assert plan.access_path == "scan"
        assert len(catalog_db.select("courses", where=where)) == 100

    def test_empty_in_list_costs_nothing(self, catalog_db):
        plan = catalog_db.explain_plan("courses", col("code").isin([]))
        assert plan.access_path == "index:by_code"
        assert plan.estimated_cost == 0.0
        assert catalog_db.select("courses", where=col("code").isin([])) == []

    @pytest.mark.parametrize("members", [["c012", 12], ["c012", None]])
    def test_unsortable_members_fall_to_another_path(self, catalog_db, members):
        where = col("code").isin(members)
        assert catalog_db.explain_plan("courses", where).access_path == "scan"
        rows = catalog_db.select("courses", where=where)
        assert [r["code"] for r in rows] == ["c012"]

    def test_needs_a_single_column_hash_index(self, catalog_db):
        # credits has a sorted index only; course_id's is the pk index.
        assert catalog_db.explain_plan(
            "courses", col("credits").isin([1, 2])).access_path == "scan"
        assert catalog_db.explain_plan(
            "courses", col("course_id").isin([1, 2])).access_path == (
            "index:__pk__")

    def test_isin_under_or_is_not_a_candidate(self, catalog_db):
        where = col("code").isin(["c012"]) | (col("credits") == 3)
        assert catalog_db.explain_plan("courses", where).access_path == "scan"


class TestVanishedRows:
    @pytest.mark.parametrize("where", [
        col("code") == "c017",
        col("code").isin(["c016", "c017"]),
        col("credits").between(7, 7),
    ])
    def test_row_deleted_between_probe_and_fetch_is_skipped(
            self, catalog_db, where):
        table = catalog_db.table("courses")
        plan, rowids = plan_select(table, where)
        assert plan.access_path.startswith("index:")
        catalog_db.delete("courses", where=col("code") == "c017")
        rows = _collect_matching(table, plan, rowids, where, [0, 0], None)
        assert "c017" not in [r["code"] for r in rows]


class TestRangePushdown:
    def test_range_predicate_uses_sorted_index(self, catalog_db):
        plan = catalog_db.explain_plan("courses", col("credits") >= 8)
        assert plan.access_path == "index:by_credits"
        assert plan.pushdown is not None
        assert "credits" in plan.pushdown

    def test_between_shape_tightens_both_ends(self, catalog_db):
        where = (col("credits") >= 3) & (col("credits") <= 4)
        plan = catalog_db.explain_plan("courses", where)
        assert plan.access_path == "index:by_credits"
        assert len(plan.chosen_conjuncts) == 2
        rows = catalog_db.select("courses", where=where)
        assert sorted({r["credits"] for r in rows}) == [3, 4]

    def test_between_helper_is_pushed_down(self, catalog_db):
        plan = catalog_db.explain_plan("courses", col("credits").between(3, 4))
        assert plan.access_path == "index:by_credits"

    def test_flipped_literal_side(self, catalog_db):
        plan = catalog_db.explain_plan("courses", lit(8) <= col("credits"))
        assert plan.access_path == "index:by_credits"
        rows = catalog_db.select("courses", where=lit(8) <= col("credits"))
        assert {r["credits"] for r in rows} == {8, 9}

    def test_pushdown_results_match_scan(self, catalog_db):
        where = (col("credits") > 6) & (col("credits") < 9)
        via_index = catalog_db.select("courses", where=where,
                                      order_by="course_id")
        naive = [r for r in catalog_db.select("courses", order_by="course_id")
                 if 6 < r["credits"] < 9]
        assert via_index == naive

    def test_none_literal_is_not_pushed_as_unbounded(self, catalog_db):
        # col < None is false for every row; it must not become an
        # unbounded range probe that returns everything.
        where = col("credits") < lit(None)
        assert catalog_db.select("courses", where=where) == []

    def test_wide_range_falls_back_to_scan(self, catalog_db):
        # A range covering everything is no cheaper than the heap scan.
        plan = catalog_db.explain_plan("courses", col("credits") >= 0)
        assert plan.estimated_cost >= 200 or plan.access_path == "scan"


class TestLazyScan:
    def test_scan_candidates_are_lazy(self, catalog_db):
        plan, rowids = plan_select(catalog_db.table("courses"), None)
        assert plan.access_path == "scan"
        assert not isinstance(rowids, list)
        assert iter(rowids) is rowids  # a generator, not a materialized list

    def test_limit_without_order_stops_early(self, catalog_db):
        rows = catalog_db.select("courses", limit=3)
        assert len(rows) == 3

    def test_equality_on_unindexed_int_still_scans_correctly(self, catalog_db):
        rows = catalog_db.select("courses", where=col("course_id") == 7)
        assert [r["code"] for r in rows] == ["c007"]


class TestTopK:
    def test_topk_matches_full_sort(self, catalog_db):
        full = catalog_db.select("courses", order_by=("credits", "course_id"))
        topk = catalog_db.select("courses", order_by=("credits", "course_id"),
                                 limit=7)
        assert topk == full[:7]

    def test_topk_descending(self, catalog_db):
        full = catalog_db.select("courses", order_by=("credits", "course_id"),
                                 descending=True)
        topk = catalog_db.select("courses", order_by=("credits", "course_id"),
                                 descending=True, limit=5, offset=2)
        assert topk == full[2:7]

    def test_topk_ties_stable_like_sort(self, catalog_db):
        # credits has heavy ties; heapq.nsmallest is documented as
        # sorted(...)[:k], so ties must resolve identically.
        full = catalog_db.select("courses", order_by="credits")
        topk = catalog_db.select("courses", order_by="credits", limit=12)
        assert topk == full[:12]

    def test_distinct_with_limit_still_exact(self, catalog_db):
        full = catalog_db.select("courses", columns=["credits"],
                                 order_by="credits", distinct=True)
        limited = catalog_db.select("courses", columns=["credits"],
                                    order_by="credits", distinct=True, limit=4)
        assert limited == full[:4]


class TestExplainSurface:
    def test_explain_mentions_cost(self, catalog_db):
        text = catalog_db.explain("courses", col("code") == "c017")
        assert "cost" in text and "index:by_code" in text

    def test_explain_mentions_pushdown(self, catalog_db):
        text = catalog_db.explain("courses", col("credits") > 7)
        assert "pushdown" in text

    def test_statistics_snapshot(self, catalog_db):
        """The counters the planner costs a probe with: rows per key is
        ``len(index) / index.distinct_keys()``."""
        by_code = index_named(catalog_db, "courses", "by_code")
        by_dept = index_named(catalog_db, "courses", "by_dept")
        assert len(catalog_db.table("courses")) == 200
        assert len(by_code) == by_code.distinct_keys() == 200
        assert len(by_code) / by_code.distinct_keys() == 1.0
        assert by_dept.distinct_keys() == 4
        assert len(by_dept) / by_dept.distinct_keys() == 50.0

    def test_explain_shows_the_ordering_decision(self, catalog_db):
        where = col("credits") > 7
        assert catalog_db.explain("courses", where) == (
            "courses: index:by_credits (~40 rows, cost 160) "
            "using credits > 7 pushdown credits in (7, None]")
        # ORDER BY the pushed-down column: the range is read in key
        # order and stops at the key boundary past the tenth match.
        plan = catalog_db.explain_plan(
            "courses", where, ("credits", "course_id"), 10)
        assert plan.walk == "ascending"
        assert plan.describe() == (
            catalog_db.explain("courses", where)
            + " order credits via index, stops after 10")
        assert catalog_db.explain("courses", where, "credits", 10) == (
            plan.describe())
        # Any other leading column: every candidate meets the heap.
        plan = catalog_db.explain_plan("courses", where, "course_id", 10)
        assert plan.walk is None
        assert plan.describe().endswith(" top-10 of ~40 by heap")
        assert catalog_db.explain("courses", None, "credits", 3).endswith(
            "courses: scan (~200 rows, cost 200) top-3 of ~200 by heap")
        # No LIMIT, nothing to decide; an unknown column is refused.
        assert catalog_db.explain("courses", where, "credits") == (
            catalog_db.explain("courses", where))
        with pytest.raises(UnknownColumnError):
            catalog_db.explain("courses", where, "ghost", 10)

    def test_e15_shapes_explain_byte_for_byte(self):
        """The planner reads ``len(table)`` and the costed index's own
        two counters instead of a statistics snapshot of every index:
        the text and every cost E15's plan guard prints stay put."""
        db = Database("catalog")
        db.create_table(Schema(
            name="courses",
            columns=(
                Column("course_number", T.TEXT, nullable=False),
                Column("instructor", T.TEXT, nullable=False),
                Column("enrolled", T.INT, nullable=False),
            ),
            primary_key=("course_number",),
        ))
        db.create_hash_index("courses", "by_instructor", ["instructor"])
        db.create_sorted_index("courses", "by_enrolled", "enrolled")
        db.insert_many("courses", [
            {"course_number": f"c{i:06d}", "instructor": f"prof{i % 100:04d}",
             "enrolled": (i * 37) % 500}
            for i in range(1000)
        ])
        shapes = [
            (col("course_number") == "c000042",
             "courses: index:__pk__ (~1 rows, cost 4) "
             "using course_number == 'c000042'"),
            ((col("enrolled") >= 480) & (col("enrolled") < 495),
             "courses: index:by_enrolled (~30 rows, cost 120) using "
             "enrolled < 495 AND enrolled >= 480 "
             "pushdown enrolled in [480, 495)"),
            (col("instructor").isin(["prof0007", "prof0042", "prof0099"]),
             "courses: index:by_instructor (~30 rows, cost 120) using "
             "instructor in ['prof0007', 'prof0042', 'prof0099']"),
            (col("enrolled") >= 200, "courses: scan (~1000 rows, cost 1000)"),
            (col("instructor") == "prof0007",
             "courses: index:by_instructor (~10 rows, cost 40) "
             "using instructor == 'prof0007'"),
            (col("instructor") == "nobody",
             "courses: index:by_instructor (~0 rows, cost 0) "
             "using instructor == 'nobody'"),
        ]
        for where, text in shapes:
            assert db.explain("courses", where) == text
