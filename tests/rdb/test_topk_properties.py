"""Property tests: ORDER BY + LIMIT equals the full sort it stands for.

``execute_select`` may stop an ordered walk of the sorted index at a key
boundary (``SelectPlan.walk``) and may sort on bare values instead of
``(is-not-None, value)`` pairs; neither may show.  The oracle is
``tests.rdb.oracles._reference_order`` — a full stable sort on the
paired key, sliced afterwards — and results are compared as *lists*,
twice: against the sort of the very candidate list the unwalked
statement collects (``matching_view``: tie order included, whatever the
ORDER BY columns leave undecided), and, with the unique ``pk`` appended
to the ORDER BY, against the sort of a naive ``Expr.eval`` scan.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, enabled
from repro.rdb import Column, ColumnType, Database, Schema, col, lit
from repro.rdb import query as rdb_query
from repro.rdb.query import _collect_matching, matching_view, plan_select
from tests.rdb.oracles import _reference_order

T = ColumnType


def _table(rows) -> Database:
    db = Database("topk")
    db.create_table(Schema(
        name="t",
        columns=(
            Column("pk", T.INT, nullable=False),
            Column("s", T.INT),
            Column("t", T.TEXT),
            Column("a", T.INT, nullable=False),
        ),
        primary_key=("pk",),
    ))
    db.create_sorted_index("t", "by_s", "s")
    db.create_sorted_index("t", "by_a", "a")
    db.insert_many("t", [{"pk": pk, **row} for pk, row in enumerate(rows)])
    return db


# -- strategies ------------------------------------------------------------
def _ranges(low: int, high: int) -> st.SearchStrategy:
    """Every way to say "a range of ``s``": closed, open at either end,
    exclusive bounds, literal on the left, ``low > high``."""
    bound = st.integers(low, high)
    return st.one_of(
        st.tuples(bound, bound).map(lambda b: col("s").between(*b)),
        st.tuples(bound, st.integers(0, 8)).map(
            lambda b: col("s").between(b[0], b[0] + b[1])),
        bound.map(lambda v: col("s") >= v),
        bound.map(lambda v: col("s") > v),
        bound.map(lambda v: col("s") < v),
        bound.map(lambda v: col("s") <= v),
        bound.map(lambda v: lit(v) <= col("s")),
        st.tuples(bound, st.integers(0, 8)).map(
            lambda b: (col("s") > b[0]) & (col("s") < b[0] + b[1])),
        st.tuples(bound, st.integers(0, 8)).map(
            lambda b: (col("s") >= b[0]) & (col("s") < b[0] + b[1])),
    )


# Conjuncts the range leaves to the residual filter (``a`` has a sorted
# index of its own, so the planner may push that one down instead).
residuals = st.one_of(
    st.none(),
    st.integers(0, 3).map(lambda v: col("a") == v),
    st.integers(0, 3).map(lambda v: col("a") >= v),
    st.sampled_from(["x", "y"]).map(lambda v: col("t") == v),
    st.just(col("t").is_null()),
    st.integers(0, 12).map(lambda v: col("s") != v),
    st.lists(st.integers(0, 3), max_size=3).map(lambda vs: col("a").isin(vs)),
)

orders = st.sampled_from([
    "s", ("s",), ("s", "pk"), ("s", "t"), ("s", "t", "pk"), ("s", "a", "t"),
    ("t", "s"), ("a", "s", "pk"), ("a",), ("pk",),
])

row_strategy = st.fixed_dictionaries({
    # few distinct values: tie groups on the leading key wider than LIMIT
    "s": st.one_of(st.none(), st.integers(0, 12)),
    "t": st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
    "a": st.integers(0, 3),
})

mutations = st.lists(
    st.one_of(
        st.tuples(st.just("delete"), st.integers(0, 60)),
        st.tuples(st.just("update"), st.integers(0, 60),
                  st.one_of(st.none(), st.integers(0, 12))),
    ),
    max_size=6,
)


def _check(db, where, order_by, descending, limit, offset):
    table = db.table("t")
    keys = (order_by,) if isinstance(order_by, str) else order_by
    got = db.select("t", where=where, order_by=order_by,
                    descending=descending, limit=limit, offset=offset)
    assert got == _reference_order(
        matching_view(table, where), keys, descending, limit, offset)
    total = keys + ("pk",)
    got = db.select("t", where=where, order_by=total,
                    descending=descending, limit=limit, offset=offset)
    naive = [row for row in table.rows() if where.eval(row)]
    assert got == _reference_order(naive, total, descending, limit, offset)


@given(
    rows=st.lists(row_strategy, max_size=60),
    changes=mutations,
    span=_ranges(-2, 14),
    residual=residuals,
    order_by=orders,
    descending=st.booleans(),
    limit=st.one_of(st.integers(0, 6), st.integers(0, 70)),
    offset=st.integers(0, 5),
    every_range_through_the_index=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_order_limit_equals_the_reference_sort(
    rows, changes, span, residual, order_by, descending, limit, offset,
    every_range_through_the_index,
):
    db = _table(rows)
    # Rows deleted and re-keyed (to NULL too) after the index was built.
    for change in changes:
        if not rows:
            break
        pk = change[1] % len(rows)
        if change[0] == "delete":
            db.delete("t", where=col("pk") == pk)
        else:
            db.update("t", {"s": change[2]}, where=col("pk") == pk)
    where = span if residual is None else span & residual
    # An index row is costed at four heap rows, so on 60 rows only the
    # narrowest ranges take the index; at a hundredth of a row all do,
    # and the walk runs through several of its doubling steps.
    cost = 0.01 if every_range_through_the_index else rdb_query._INDEX_ROW_COST
    with mock.patch.object(rdb_query, "_INDEX_ROW_COST", cost):
        _check(db, where, order_by, descending, limit, offset)


# -- a table where the index is the honest choice ---------------------------
def _big() -> Database:
    """400 rows, four per ``s`` key (NULL every 50th): a range of up to
    24 keys is under a quarter of the table, so it plans through
    ``by_s`` at the real cost and spans three walk steps (4, 8, 16)."""
    return _table([
        {"s": None if i % 50 == 0 else (i * 7) % 100,
         "t": None if i % 9 == 0 else "xyz"[i % 3], "a": i % 5}
        for i in range(400)
    ])


BIG = _big()


@given(
    low=st.integers(-3, 103),
    width=st.integers(0, 23),
    exclusive=st.booleans(),
    residual=st.one_of(
        st.none(),
        st.integers(0, 4).map(lambda v: col("a") == v),
        st.just(col("t") == "x"),
        st.just(col("pk") > 390),  # a handful of matches: the walk runs out
    ),
    order_by=st.sampled_from(
        ["s", ("s", "pk"), ("s", "t"), ("s", "a", "pk"), ("t", "s")]),
    descending=st.booleans(),
    limit=st.integers(0, 40),
    offset=st.integers(0, 6),
)
@settings(max_examples=300, deadline=None)
def test_walked_ranges_equal_the_reference_sort(
    low, width, exclusive, residual, order_by, descending, limit, offset
):
    if exclusive:
        where = (col("s") > low - 1) & (col("s") < low + width + 1)
    else:
        where = col("s").between(low, low + width)
    if residual is not None:
        where = where & residual
    plan = BIG.explain_plan("t", where, order_by, limit)
    assert plan.access_path == "index:by_s"
    # The walk engages exactly when the leading ORDER BY column is the
    # pushed-down one.
    assert (plan.walk is not None) == (order_by[0] == "s")
    _check(BIG, where, order_by, descending, limit, offset)


def test_walk_skips_a_row_deleted_after_planning():
    db = _big()
    table = db.table("t")
    where = col("s").between(10, 20)
    plan, runs = plan_select(table, where, ("s", "pk"), False, 5)
    assert plan.walk == "ascending"
    gone = db.select("t", where=where, order_by=("s", "pk"), limit=1)[0]["pk"]
    db.delete("t", where=col("pk") == gone)
    rows = _collect_matching(table, plan, runs, where, [0, 0], 5)
    assert gone not in [row["pk"] for row in rows]
    assert rows == matching_view(table, where)[:len(rows)] and len(rows) >= 5


def test_walk_hands_back_a_suffix_in_index_order_when_descending():
    table = BIG.table("t")
    where = col("s").between(10, 33)
    everything = matching_view(table, where)
    for top in (0, 1, 5, 17, 50, 96, 200):
        plan, runs = plan_select(table, where, ("s",), True, top)
        assert plan.walk == "descending"
        rows = _collect_matching(table, plan, runs, where, [0, 0], top)
        assert min(top, len(everything)) <= len(rows)
        assert rows == everything[len(everything) - len(rows):]


# -- the stop condition is worth something ---------------------------------
def _unique(rows: int) -> Database:
    db = Database("unique")
    db.create_table(Schema(
        name="t",
        columns=(Column("pk", T.INT, nullable=False),
                 Column("u", T.INT, nullable=False)),
        primary_key=("pk",),
    ))
    db.insert_many("t", [{"pk": i, "u": (i * 7919) % rows} for i in range(rows)])
    db.create_sorted_index("t", "by_u", "u")
    return db


def test_top_10_of_a_sorted_range_examines_a_fraction_of_it():
    """1,000 unique keys in the range, ten wanted: the walk fetches 4
    keys, then 8 — not the thousand rows the parent fetched, keyed and
    heap-selected.  The counters keep their meaning: examined rows are
    the rows actually fetched."""
    db = _unique(5_000)
    where = col("u").between(1_000, 1_999)
    assert db.explain_plan("t", where).estimated_candidates == 1_000
    with enabled(registry=MetricsRegistry()) as (registry, _):
        rows = db.select("t", where=where, order_by="u", limit=10)
    assert [row["u"] for row in rows] == list(range(1_000, 1_010))
    snap = registry.snapshot()
    assert snap.counter_total("rdb.rows_scanned") < 100
    assert snap.counter_total("rdb.rows_scanned") == 12
    assert snap.counter_total("rdb.rows_returned") == 10
    assert snap.counter_total("rdb.batches") == 2
    assert snap.counter_total("rdb.plan") == 1
