"""Property tests: every planner access path is exactly a full scan.

For random schemas, data and predicates — including ORDER BY / LIMIT /
OFFSET / DISTINCT combinations — ``execute_select`` (which may probe
hash indexes once or once per IN-list member, push ranges into sorted
indexes, read the heap because the index would cost more, or select
top-k) must return exactly what a naive evaluate-every-row reference
returns — whichever path the cost model picks, and whatever the
literals are (unhashable ones included).
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, enabled
from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.rdb import query as rdb_query
from repro.rdb.predicate import Expr

T = ColumnType

# -- data ------------------------------------------------------------------
row_strategy = st.fixed_dictionaries({
    "a": st.integers(min_value=0, max_value=5),
    "b": st.one_of(st.none(), st.integers(min_value=-10, max_value=10)),
    "c": st.sampled_from(["x", "y", "z", "w"]),
})
rows_strategy = st.lists(row_strategy, max_size=40)


# -- predicates ------------------------------------------------------------
# Equality literals of every kind a caller can hand in: the column's own
# type, another type, and unhashables (which no index can be probed with
# and no row can equal).
equality_literal = st.one_of(
    st.integers(0, 5),
    st.sampled_from(["x", "y", "z", "w"]),
    st.sampled_from([[1], [], {"k": 1}, [[0]], 2.0, True]),
)

# IN-list members over the hashed columns: same-type sets (probed per
# member), mixed-type and None-carrying ones (unsortable: no candidate),
# and the empty set.
member_sets = st.one_of(
    st.lists(st.integers(0, 6), max_size=4),
    st.lists(st.sampled_from(["x", "y", "z", "w", "q"]), max_size=4),
    st.lists(st.one_of(st.none(), st.integers(0, 5),
                       st.sampled_from(["x", "y"]), st.just(1.0)),
             max_size=4),
)


def _leaf() -> st.SearchStrategy[Expr]:
    return st.one_of(
        equality_literal.map(lambda v: col("a") == v),
        equality_literal.map(lambda v: col("c") == v),
        equality_literal.map(lambda v: col("pk") == v),
        member_sets.map(lambda vs: col("a").isin(vs)),
        member_sets.map(lambda vs: col("c").isin(vs)),
        member_sets.map(lambda vs: col("b").isin(vs)),
        st.integers(-10, 10).map(lambda v: col("b") < v),
        st.integers(-10, 10).map(lambda v: col("b") >= v),
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)).map(
            lambda lo_hi: col("b").between(min(lo_hi), max(lo_hi))
        ),
        st.just(col("b").is_null()),
    )


predicate_strategy = st.recursive(
    _leaf(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: p[0] & p[1]),
        st.tuples(children, children).map(lambda p: p[0] | p[1]),
        children.map(lambda p: ~p),
    ),
    max_leaves=6,
)

order_strategy = st.one_of(
    st.none(),
    # Always end with the unique pk so the reference order is total and
    # tie-handling can't hide behind candidate-iteration order.
    st.sampled_from([("a", "pk"), ("b", "pk"), ("c", "a", "pk"), ("pk",)]),
)


def _build(rows) -> Database:
    db = Database("prop")
    db.create_table(Schema(
        name="t",
        columns=(
            Column("pk", T.INT, nullable=False),
            Column("a", T.INT, nullable=False),
            Column("b", T.INT),
            Column("c", T.TEXT, nullable=False),
        ),
        primary_key=("pk",),
    ))
    db.create_hash_index("t", "by_a", ["a"])
    db.create_hash_index("t", "by_c", ["c"])
    # b is nullable: an IN probe for None finds the null rows, and the
    # residual filter (null is in nothing) must drop them again.
    db.create_hash_index("t", "by_b_eq", ["b"])
    db.create_sorted_index("t", "by_b", "b")
    for pk, row in enumerate(rows):
        db.insert("t", {"pk": pk, **row})
    return db


def _bag(rows):
    """Rows as a multiset of rendered rows (order follows the access path)."""
    return sorted(tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows)


def _naive(
    db: Database,
    where: Expr | None,
    order_by,
    descending: bool,
    limit,
    offset: int,
    columns,
    distinct: bool,
):
    """Reference implementation: full scan, full sort, post-hoc slicing."""
    rows = [dict(r) for r in db.table("t").rows()
            if where is None or where.eval(r)]
    if order_by is not None:
        rows.sort(
            key=lambda r: tuple((r[k] is not None, r[k]) for k in order_by),
            reverse=descending,
        )
    elif descending:
        rows.reverse()
    out = [
        dict(r) if columns is None else {n: r[n] for n in columns}
        for r in rows
    ]
    if distinct:
        seen, deduped = set(), []
        for r in out:
            key = tuple((n, r[n]) for n in sorted(r))
            if key not in seen:
                seen.add(key)
                deduped.append(r)
        out = deduped
    if offset:
        out = out[offset:]
    if limit is not None:
        out = out[:limit]
    return out


@given(
    rows=rows_strategy,
    where=st.one_of(st.none(), predicate_strategy),
    order_by=order_strategy,
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(0, 10)),
    offset=st.integers(0, 5),
    columns=st.one_of(st.none(), st.just(["a", "c"]), st.just(["b"])),
    distinct=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_planner_equals_naive_scan(
    rows, where, order_by, descending, limit, offset, columns, distinct
):
    db = _build(rows)
    expected = _naive(
        db, where, order_by, descending, limit, offset, columns, distinct
    )
    actual = db.select(
        "t", where=where, order_by=order_by, descending=descending,
        limit=limit, offset=offset, columns=columns, distinct=distinct,
    )
    if order_by is None:
        # Without ORDER BY, row order follows the access path; compare
        # as multisets of rendered rows.
        if limit is None and not offset and not distinct:
            assert _bag(actual) == _bag(expected)
        else:
            # Sliced unordered results: the *set* of returned rows may
            # legitimately differ, but the count must match and every
            # row must come from the unsliced result.
            unsliced = _naive(
                db, where, None, descending, None, 0, columns, distinct
            )
            assert len(actual) == len(expected)
            assert all(r in unsliced for r in actual)
    else:
        assert actual == expected


@given(rows=rows_strategy, where=predicate_strategy, cheap_index=st.booleans())
@settings(max_examples=120, deadline=None)
def test_count_consistent_with_select(rows, where, cheap_index):
    db = _build(rows)
    # count(where=…) reads through the planner.  At four heap rows per
    # index row a 40-row table mostly scans; at a hundredth of a row
    # every probe, IN-list and range the predicate offers is taken.
    cost = 0.01 if cheap_index else rdb_query._INDEX_ROW_COST
    with mock.patch.object(rdb_query, "_INDEX_ROW_COST", cost):
        counted = db.count("t", where=where)
    assert counted == len(db.select("t", where=where))
    assert counted == sum(1 for r in db.table("t").rows() if where.eval(r))


@given(rows=rows_strategy, where=predicate_strategy)
@settings(max_examples=80, deadline=None)
def test_explain_never_crashes_and_names_real_access_path(rows, where):
    db = _build(rows)
    plan = db.explain_plan("t", where)
    assert plan.access_path == "scan" or plan.access_path.startswith("index:")
    assert plan.estimated_cost >= 0


# -- the cost model's two sides, on a table large enough to have them ------
def _thousand() -> Database:
    db = Database("k")
    db.create_table(Schema(
        name="t",
        columns=(
            Column("pk", T.INT, nullable=False),
            Column("b", T.INT),
            Column("c", T.TEXT, nullable=False),
        ),
        primary_key=("pk",),
    ))
    db.create_hash_index("t", "by_c", ["c"])
    db.create_sorted_index("t", "by_b", "b")
    db.insert_many("t", [
        {"pk": i, "b": None if i % 50 == 0 else i % 100, "c": f"c{i % 40}"}
        for i in range(1000)
    ])
    return db


@given(low=st.integers(-5, 105), width=st.integers(0, 110))
@settings(max_examples=60, deadline=None)
def test_ranges_of_every_selectivity_equal_the_naive_scan(low, width):
    db = _thousand()
    where = col("b").between(low, low + width)
    plan = db.explain_plan("t", where)
    naive = [dict(r) for r in db.table("t").rows() if where.eval(r)]
    assert _bag(db.select("t", where=where)) == _bag(naive)
    # An index row costs ~4 heap rows: the index is taken up to about a
    # quarter of the table and never for more than half of it.
    if len(naive) <= 200:
        assert plan.access_path == "index:by_b"
    if len(naive) > 500:
        assert plan.access_path == "scan"


def test_selective_range_plans_index_and_wide_range_plans_scan():
    db = _thousand()
    selective = db.explain_plan("t", col("b") < 5)           # ~5 %
    wide = db.explain_plan("t", col("b") >= 40)              # ~60 %
    assert selective.access_path == "index:by_b"
    assert selective.pushdown == "b in [None, 5)"
    assert wide.access_path == "scan" and wide.pushdown is None
    assert wide.estimated_cost == 1000
    for where in (col("b") < 5, col("b") >= 40):
        naive = [dict(r) for r in db.table("t").rows() if where.eval(r)]
        assert _bag(db.select("t", where=where)) == _bag(naive)


@given(where=st.one_of(
    st.integers(0, 45).map(lambda v: col("c") == f"c{v}"),
    st.lists(st.integers(0, 45), max_size=5).map(
        lambda vs: col("c").isin([f"c{v}" for v in vs])),
    st.tuples(st.integers(-5, 105), st.integers(0, 110)).map(
        lambda b: col("b").between(b[0], b[0] + b[1])),
    st.integers(-5, 105).map(lambda v: col("b") < v),
).flatmap(lambda leaf: st.sampled_from(
    [leaf, leaf & (col("pk") >= 500), leaf & ~col("b").is_null()])))
@settings(max_examples=120, deadline=None)
def test_count_asks_the_planner_and_equals_the_naive_scan(where):
    """``count(where=…)`` journals nothing, so it reads through whichever
    path the planner picks — probe, IN-list, pushed-down range or heap,
    all of which a 1,000-row table has — and counts the same rows."""
    db = _thousand()
    path = db.explain_plan("t", where).access_path
    with enabled(registry=MetricsRegistry()) as (registry, _):
        counted = db.count("t", where=where)
    assert counted == sum(1 for r in db.table("t").rows() if where.eval(r))
    assert registry.snapshot().counters[
        ("rdb.plan", (("path", path), ("table", "t")))] == 1


def test_in_list_over_a_hashed_column_plans_index():
    db = _thousand()
    where = col("c").isin(["c3", "c17", "c39"]) & (col("b") > 10)
    plan = db.explain_plan("t", where)
    assert plan.access_path == "index:by_c"
    assert plan.estimated_candidates == 75
    naive = [dict(r) for r in db.table("t").rows() if where.eval(r)]
    assert _bag(db.select("t", where=where)) == _bag(naive) and naive
