"""Property tests: compiled predicates are bit-identical to Expr.eval.

For random expression trees over random rows — None values, missing
columns, unhashable values, type mismatches — the fused batch filter
must agree with the interpreter on *outcomes*: the same rows back, or
the same exception type raised.  The compiled
code is shared by statement *shape* with the literals passed in, so the
same must hold for several literal assignments of one tree compiled
back to back through the shared store — no assignment may see another's
values — also with the store's bound patched down until it evicts.
Further properties pin the batched executor end to end against oracles
that live here in the tests: ``execute_select`` / ``matching_view``
equal a naive evaluate-every-row scan (also over tables spanning
several executor batches), the vectorized ``join_rows`` equals the seed
hash join kept as ``tests.rdb.oracles._reference_join``, and
``aggregate`` equals the per-row-key-tuple loop kept as
``_reference_aggregate`` — bare over row lists, and through
``Database.aggregate`` over an indexed table, floats to the last bit.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.rdb import Column, ColumnType, Database, Schema, col, lit
from repro.rdb import compile as rdb_compile
from repro.rdb import query as rdb_query
from repro.rdb.compile import batch_filter, cache_stats
from repro.rdb.predicate import Expr
from repro.rdb.query import aggregate, join_rows, matching_view
from tests.rdb.oracles import _reference_aggregate, _reference_join

T = ColumnType

COLUMNS = ("a", "b", "c")

# Scalar values rows may hold: None, ints, strings, bools, floats and an
# unhashable list (isin/contains must swallow its TypeError like eval).
value_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from(["x", "y", "xx", ""]),
    st.floats(allow_nan=False, allow_infinity=True),
    st.just([1, 2]),
)

# Rows may be missing any column — KeyError parity is part of the
# contract (Compare evaluates both operands eagerly, like eval).
row_strategy = st.dictionaries(
    st.sampled_from(COLUMNS), value_strategy, max_size=len(COLUMNS)
)
rows_strategy = st.lists(row_strategy, max_size=12)


def _operand() -> st.SearchStrategy[Expr]:
    return st.one_of(
        st.sampled_from(COLUMNS).map(col),
        value_strategy.map(lit),
        # Apply nodes hoist an opaque callable into the generated source.
        st.sampled_from(COLUMNS).map(lambda c: col(c).apply(str, "str")),
    )


def _leaf() -> st.SearchStrategy[Expr]:
    ops = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

    def compare(pair_op):
        (left, right), op = pair_op
        return {"==": left.__eq__, "!=": left.__ne__, "<": left.__lt__,
                "<=": left.__le__, ">": left.__gt__, ">=": left.__ge__}[op](right)

    return st.one_of(
        st.tuples(st.tuples(_operand(), _operand()), ops).map(compare),
        st.sampled_from(COLUMNS).map(lambda c: col(c).is_null()),
        st.sampled_from(COLUMNS).map(lambda c: col(c).not_null()),
        st.tuples(
            st.sampled_from(COLUMNS),
            st.lists(st.one_of(st.integers(-5, 5),
                               st.sampled_from(["x", "y"])), max_size=4),
        ).map(lambda p: col(p[0]).isin(p[1])),
        st.tuples(
            st.sampled_from(COLUMNS),
            st.sampled_from(["x%", "%x", "_", "%", "x_%"]),
        ).map(lambda p: col(p[0]).like(p[1])),
        st.tuples(
            st.sampled_from(COLUMNS),
            st.one_of(st.integers(-5, 5), st.sampled_from(["x"])),
        ).map(lambda p: col(p[0]).contains(p[1])),
    )


expr_strategy = st.recursive(
    _leaf(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: p[0] & p[1]),
        st.tuples(children, children).map(lambda p: p[0] | p[1]),
        children.map(lambda p: ~p),
    ),
    max_leaves=8,
)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - exception type is the result
        return ("raise", type(exc))
    return ("return", value)


@settings(max_examples=300, deadline=None)
@given(expr=expr_strategy, rows=rows_strategy)
# Column-vs-column with a null on the right: the general compare form
# must apply the null rule to *both* temporaries (``1 < None`` would
# raise, ``1 != None`` would pass) — random search rarely lands here.
@example(expr=col("a") < col("b"), rows=[{"a": 1, "b": None}])
@example(expr=col("a") != col("b"), rows=[{"a": 1, "b": None}])
@example(expr=col("a") >= col("b"), rows=[{"a": "x", "b": None}, {"a": None, "b": None}])
def test_batch_filter_matches_per_row_eval(expr, rows):
    def reference(batch):
        return [r for r in batch if expr.eval(r)]

    assert _outcome(batch_filter(expr), rows) == _outcome(reference, rows)


# -- one shape, many literal assignments -------------------------------------
# Literals chosen to collide wherever a value-keyed cache would let them:
# 1 == True == 1.0 (and hash alike), nan is equal to nothing, strings
# carry what would break out of a quoted source literal, None/True/False
# change the emitted form, and unhashables cannot key anything.
leak_literal = st.one_of(
    st.sampled_from([1, True, 1.0, 0, False, 0.0, -1, 5]),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5]),
    st.sampled_from(["x", "y", "it's", 'say "hi"', "line\nbreak", "\\",
                     "') or True or ('", ""]),
    st.none(),
    st.sampled_from([[1, 2], [], {"k": 1}]),
)
leak_members = st.lists(
    st.one_of(st.integers(-5, 5), st.sampled_from(["x", "y", "xx"]),
              st.sampled_from([True, 1.0, None])),
    max_size=4,
)
leak_pattern = st.sampled_from(["x%", "%x", "_", "%", "x_%", "y", "%'%"])
leak_callable = st.sampled_from([str, repr, len, bool, lambda v: v])

#: A tree shape: how to build the tree once every literal is drawn.
#: Leaves name a column; what they compare it with comes from ``draw``.
_LEAF_KINDS = ("cmp", "rcmp", "in", "like", "contains", "apply", "null", "lit")
shape_strategy = st.recursive(
    st.tuples(
        st.sampled_from(_LEAF_KINDS),
        st.sampled_from(COLUMNS),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
        st.tuples(st.just("not"), children),
    ),
    max_leaves=5,
)

_COMPARE = {"==": "__eq__", "!=": "__ne__", "<": "__lt__", "<=": "__le__",
            ">": "__gt__", ">=": "__ge__"}


def _build_tree(shape, draw) -> Expr:
    """``shape`` with a fresh draw for every literal it carries."""
    kind = shape[0]
    if kind == "and":
        return _build_tree(shape[1], draw) & _build_tree(shape[2], draw)
    if kind == "or":
        return _build_tree(shape[1], draw) | _build_tree(shape[2], draw)
    if kind == "not":
        return ~_build_tree(shape[1], draw)
    _, column, op = shape
    if kind == "cmp":
        return getattr(col(column), _COMPARE[op])(draw(leak_literal))
    if kind == "rcmp":
        return getattr(lit(draw(leak_literal)), _COMPARE[op])(col(column))
    if kind == "in":
        return col(column).isin(draw(leak_members))
    if kind == "like":
        return col(column).like(draw(leak_pattern))
    if kind == "contains":
        return col(column).contains(draw(leak_literal))
    if kind == "apply":
        applied = col(column).apply(draw(leak_callable))
        return getattr(applied, _COMPARE[op])(draw(leak_literal))
    if kind == "null":
        return col(column).is_null()
    return lit(draw(leak_literal))


@pytest.mark.parametrize("bound", [None, 2], ids=["default-bound", "bound-2"])
@settings(max_examples=200, deadline=None)
@given(shape=shape_strategy, rows=rows_strategy, data=st.data(),
       assignments=st.integers(2, 4))
def test_same_shape_statements_never_see_each_others_literals(
        bound, shape, rows, data, assignments):
    """Compile several literal assignments of one tree in sequence
    through the shared store — then run them all: each must still equal
    its own ``Expr.eval``.  With the bound at 2 every other statement
    evicts and re-compiles."""
    with (mock.patch.object(rdb_compile, "_MAX_SHAPES", bound)
          if bound is not None else nullcontext()):
        exprs = [_build_tree(shape, data.draw) for _ in range(assignments)]
        compiled = [batch_filter(e) for e in exprs]
        for expr, batch in zip(exprs, compiled):
            def reference(batch_rows, expr=expr):
                return [r for r in batch_rows if expr.eval(r)]

            assert _outcome(batch, rows) == _outcome(reference, rows)


def test_fresh_literals_of_one_shape_cost_one_compile():
    """N statements of one shape cost exactly one ``compile()``; a
    different shape one more — counted at the builtin and read off
    ``cache_stats()``."""
    with mock.patch.object(rdb_compile, "_FACTORIES", {}), \
            mock.patch.object(rdb_compile, "compile", create=True,
                              wraps=compile) as compile_spy:
        before = cache_stats()
        assert before["shapes"] == 0
        for n in range(40):
            where = (col("a") == n) & (col("b") > str(n)) & col("c").isin([n])
            assert batch_filter(where)([{"a": n, "b": "~", "c": n}])
        assert compile_spy.call_count == 1
        batch_filter((col("a") == 1) & (col("b") >= "x") & col("c").isin([1]))
        assert compile_spy.call_count == 2
        # 1 and True are equal and hash alike, but not one shape.
        batch_filter(col("a") == 1)
        batch_filter(col("a") == 1.0)
        batch_filter(col("a") == True)  # noqa: E712
        assert compile_spy.call_count == 4
        after = cache_stats()
    assert after["shapes"] == 4
    assert after["misses"] - before["misses"] == 4
    assert after["hits"] - before["hits"] == 40
    assert after["evictions"] == before["evictions"]
    # No literal ever reached compile(): every source it saw is value-free.
    for call in compile_spy.call_args_list:
        assert "'~'" not in call.args[0] and "39" not in call.args[0]


def test_store_is_bounded_and_counts_what_it_drops():
    with mock.patch.object(rdb_compile, "_FACTORIES", {}), \
            mock.patch.object(rdb_compile, "_MAX_SHAPES", 2):
        before = cache_stats()
        for column in ("a", "b", "c", "a", "b", "c"):
            assert batch_filter(col(column) == 1)([{column: 1}])
            assert cache_stats()["shapes"] <= 2
        after = cache_stats()
    assert after["misses"] - before["misses"] == 6
    assert after["evictions"] - before["evictions"] == 4


# -- executor end to end ----------------------------------------------------
def _typed_leaf() -> st.SearchStrategy[Expr]:
    """Predicates over the typed test schema (no KeyErrors possible)."""
    return st.one_of(
        st.integers(0, 5).map(lambda v: col("a") == v),
        st.integers(-10, 10).map(lambda v: col("b") > v),
        st.sampled_from(["x", "y", "z"]).map(lambda v: col("c") != v),
        st.just(col("b").is_null()),
        st.lists(st.sampled_from(["x", "y", "z"]), max_size=3).map(
            lambda vs: col("c").isin(vs)),
        st.sampled_from(["x%", "%z", "_"]).map(lambda p: col("c").like(p)),
    )


typed_expr_strategy = st.recursive(
    _typed_leaf(),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: p[0] & p[1]),
        st.tuples(children, children).map(lambda p: p[0] | p[1]),
        children.map(lambda p: ~p),
    ),
    max_leaves=6,
)

typed_row_strategy = st.fixed_dictionaries({
    "a": st.integers(0, 5),
    "b": st.one_of(st.none(), st.integers(-10, 10)),
    "c": st.sampled_from(["x", "y", "z", "xz"]),
})


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
    db.insert_many("t", [dict(row, pk=i) for i, row in enumerate(rows)])
    return db


@settings(max_examples=150, deadline=None)
@given(
    expr=typed_expr_strategy,
    rows=st.lists(typed_row_strategy, max_size=30),
    limit=st.one_of(st.none(), st.integers(0, 8)),
    offset=st.integers(0, 3),
)
def test_batched_select_equals_naive_scan(expr, rows, limit, offset):
    db = _build(rows)
    naive = [dict(r) for r in db.table("t").rows() if expr.eval(r)]
    expected = naive[offset:offset + limit if limit is not None else None]
    assert db.select("t", where=expr, limit=limit, offset=offset) == expected


# -- batch boundaries -------------------------------------------------------
#: Executor batch size for the property below (a test seam: the module
#: global is patched, there is no option for it).
SMALL_BATCH = 4


def _bag(rows) -> Counter:
    return Counter(tuple(sorted(r.items())) for r in rows)


def _naive_select(rows, where, order_by, descending, limit, offset,
                  columns, distinct):
    """SQL select semantics, one row at a time, nothing shared with
    ``execute_select``: filter, order (None first), project, dedup
    (first occurrence wins), then OFFSET/LIMIT."""
    out = [r for r in rows if where is None or where.eval(r)]
    if order_by is not None:
        keys = (order_by,) if isinstance(order_by, str) else order_by
        out.sort(key=lambda r: [(r[k] is not None, r[k]) for k in keys],
                 reverse=descending)
    elif descending:
        out.reverse()
    out = [{c: r[c] for c in (columns or r)} for r in out]
    if distinct:
        out = [r for i, r in enumerate(out) if r not in out[:i]]
    return out[offset:offset + limit if limit is not None else None]


@settings(max_examples=200, deadline=None)
@given(
    expr=st.one_of(st.none(), typed_expr_strategy),
    rows=st.lists(typed_row_strategy, min_size=3 * SMALL_BATCH,
                  max_size=6 * SMALL_BATCH),
    # Total orders only (pk is unique): ties would be broken by the
    # candidate order, which legitimately differs per access path.
    order_by=st.sampled_from([None, "pk", ("a", "pk"), ("b", "pk")]),
    descending=st.booleans(),
    limit=st.one_of(st.none(), st.integers(0, 3 * SMALL_BATCH)),
    offset=st.integers(0, SMALL_BATCH + 1),
    columns=st.sampled_from([None, ("a",), ("c", "b")]),
    distinct=st.booleans(),
    indexed=st.booleans(),
)
def test_select_across_batch_boundaries_equals_naive_scan(
    expr, rows, order_by, descending, limit, offset, columns, distinct,
    indexed,
):
    """Every table here spans >= 3 executor batches, so the LIMIT
    early-exit, the lazy DISTINCT pull and the index-probe batching are
    all exercised at and across a batch edge."""
    db = _build(rows)
    if indexed:
        db.create_hash_index("t", "by_a", ["a"])
        db.create_sorted_index("t", "by_b", "b")
    stored = [dict(r) for r in db.table("t").rows()]
    expected = _naive_select(stored, expr, order_by, descending, limit,
                             offset, columns, distinct)
    with mock.patch.object(rdb_query, "DEFAULT_BATCH", SMALL_BATCH):
        got = db.select(
            "t", where=expr, order_by=order_by, descending=descending,
            limit=limit, offset=offset, columns=columns, distinct=distinct,
        )
        view = matching_view(db.table("t"), expr)
    if indexed and order_by is None:
        # An index probe yields in index order, not heap order: the
        # right number of rows, each drawn from the unbounded answer.
        full = _naive_select(stored, expr, None, False, None, 0, columns,
                             distinct)
        assert len(got) == len(expected)
        assert not _bag(got) - _bag(full)
    else:
        assert got == expected
    assert sorted(view, key=lambda r: r["pk"]) == [
        r for r in stored if expr is None or expr.eval(r)
    ]


# -- vectorized join vs the reference join ----------------------------------
join_value = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["x", "y"]))
# Heterogeneous shapes: any subset of the columns, so rows may lack a
# join column (KeyError parity) and right rows need not share a shape
# (the left-join null columns are the union of all right shapes).
left_row = st.dictionaries(st.sampled_from(["k", "j", "v"]), join_value)
right_row = st.dictionaries(st.sampled_from(["k", "j", "w", "x"]), join_value)
full_left_row = st.fixed_dictionaries(
    {"k": join_value, "j": join_value}, optional={"v": join_value})
full_right_row = st.fixed_dictionaries(
    {"k": join_value, "j": join_value},
    optional={"w": join_value, "x": join_value})


@settings(max_examples=300, deadline=None)
@given(
    left=st.lists(st.one_of(full_left_row, left_row), max_size=8),
    right=st.lists(st.one_of(full_right_row, right_row), max_size=8),
    on=st.sampled_from([[], [("k", "k")], [("k", "j")],
                        [("k", "k"), ("j", "j")]]),
    kind=st.sampled_from(["inner", "left"]),
)
@example(left=[{"k": None, "v": 1}], right=[{"k": None, "w": 2}],
         on=[("k", "k")], kind="left")
@example(left=[{"k": 1, "j": None}], right=[{"k": 1, "j": None}],
         on=[("k", "k"), ("j", "j")], kind="inner")
@example(left=[{"k": 1}], right=[], on=[("k", "k")], kind="left")
@example(left=[{"k": 1}, {"k": 2, "v": 0}],
         right=[{"k": 2, "w": 1}, {"k": 3, "x": 2}],
         on=[("k", "k")], kind="left")
def test_join_rows_matches_reference_join(left, right, on, kind):
    def run(join):
        return join(left, right, on, left_prefix="L", right_prefix="R",
                    kind=kind)

    assert _outcome(run, join_rows) == _outcome(run, _reference_join)


# -- aggregate vs the per-row-key-tuple loop --------------------------------
agg_value = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["x", "y"]),
                      st.sampled_from([1.0, True]))
agg_row = st.fixed_dictionaries(
    {"g": agg_value, "h": agg_value,
     "v": st.one_of(st.none(), st.integers(-9, 9))},
    optional={"w": st.one_of(st.none(), st.integers(0, 3))},
)
AGG_SPEC = {"n": ("count", None), "vs": ("count", "v"), "total": ("sum", "v"),
            "mean": ("avg", "v"), "low": ("min", "v"), "high": ("max", "v")}


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(agg_row, max_size=16),
    group_by=st.sampled_from([None, [], ["g"], ["w"], ["g", "h"], ["h", "w"]]),
)
@example(rows=[], group_by=None)
@example(rows=[], group_by=["g"])
@example(rows=[{"g": None, "h": 1, "v": None}, {"g": 1, "h": 1, "v": 2},
               {"g": True, "h": 1, "v": 3}, {"g": 1.0, "h": 1, "v": None}],
         group_by=["g"])
def test_aggregate_matches_reference_aggregate(rows, group_by):
    """Bit-identical to the loop it replaced over 0/1/2 group columns:
    group order (``None`` keys first), which of several equal keys names
    a group (``1``/``True``/``1.0``: the first seen), null-excluding
    aggregates — and the same exception for a missing group column or
    keys of unorderable types."""
    def run(fn):
        return fn(iter(rows), AGG_SPEC, group_by=group_by)

    got, expected = _outcome(run, aggregate), _outcome(run, _reference_aggregate)
    assert got == expected
    if got[0] == "return":  # == cannot tell 1 from True from 1.0
        assert repr(got[1]) == repr(expected[1])


# -- the same, one level up: Database.aggregate over an indexed table --------
table_agg_row = st.fixed_dictionaries({
    "g": st.one_of(st.none(), st.sampled_from(["x", "y", "z"])),
    "h": st.integers(0, 2),
    "v": st.one_of(st.none(), st.integers(-9, 9)),
    "f": st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
})
TABLE_AGG_SPEC = {**AGG_SPEC, "ftotal": ("sum", "f"), "fmean": ("avg", "f"),
                  "flow": ("min", "f")}


table_agg_where = st.one_of(
    st.none(),
    st.integers(0, 2).map(lambda v: col("h") == v),
    st.lists(st.integers(0, 3), max_size=3).map(lambda vs: col("h").isin(vs)),
    st.tuples(st.integers(-9, 9), st.integers(0, 6)).map(
        lambda b: col("v").between(b[0], b[0] + b[1])),
    st.integers(-9, 9).map(lambda v: (col("v") > v) & (col("g") == "x")),
    # Shapes no index path can take: the filter alone decides.
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])).map(
        lambda p: (col("h") == p[0]) | (col("g") == p[1])),
    st.integers(-9, 9).map(lambda v: ~(col("v") < v)),
    st.sampled_from(["v", "g", "f"]).map(lambda c: col(c).is_null()),
    st.integers(0, 2).map(lambda v: col("f").not_null() & ~(col("h") == v)),
)
# v and f hold None too: groups keyed by None sort first.
table_agg_group_by = st.sampled_from(
    [None, ["g"], ["h"], ["g", "h"], ["v"], ["g", "v"], ["f"]])


def _check_database_aggregate(rows, where, group_by, cheap_index):
    db = Database("agg")
    db.create_table(Schema(
        name="t",
        columns=(Column("pk", T.INT, nullable=False), Column("g", T.TEXT),
                 Column("h", T.INT, nullable=False), Column("v", T.INT),
                 Column("f", T.FLOAT)),
        primary_key=("pk",),
    ))
    db.create_hash_index("t", "by_h", ["h"])
    db.create_sorted_index("t", "by_v", "v")
    db.insert_many("t", [{"pk": pk, **row} for pk, row in enumerate(rows)])
    cost = 0.01 if cheap_index else rdb_query._INDEX_ROW_COST
    with mock.patch.object(rdb_query, "_INDEX_ROW_COST", cost):
        got = db.aggregate("t", TABLE_AGG_SPEC, where=where, group_by=group_by)
        candidates = matching_view(db.table("t"), where)
        again = db.aggregate("t", TABLE_AGG_SPEC, where=where, group_by=group_by)
    expected = _reference_aggregate(candidates, TABLE_AGG_SPEC, group_by)
    assert repr(got) == repr(expected) == repr(again)
    naive = _reference_aggregate(
        [r for r in db.table("t").rows() if where is None or where.eval(r)],
        AGG_SPEC, group_by)
    exact = [*(group_by or ()), *AGG_SPEC]
    assert [{k: row[k] for k in exact} for row in got] == naive


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(table_agg_row, max_size=40), where=table_agg_where,
       group_by=table_agg_group_by, cheap_index=st.booleans())
def test_database_aggregate_matches_reference_aggregate(
        rows, where, group_by, cheap_index):
    """``Database.aggregate`` groups and folds the candidates of
    whichever access path the planner picks (``cheap_index``: every
    probe, IN-list and range the WHERE offers) in one compiled pass.
    Floats are summed by ``sum()`` over each group's values in
    candidate order, so against the reference loop over the same
    candidates the answer is the same to the last bit (``repr``);
    against a naive heap scan everything that does not depend on float
    summation order is."""
    _check_database_aggregate(rows, where, group_by, cheap_index)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(table_agg_row, max_size=40), where=table_agg_where,
       group_by=table_agg_group_by, cheap_index=st.booleans())
def test_database_aggregate_with_the_store_bound_at_2(
        rows, where, group_by, cheap_index):
    """The same, with the shape store's bound at 2: every statement
    evicts the store and rebuilds its kernels from their text."""
    with mock.patch.object(rdb_compile, "_MAX_SHAPES", 2):
        _check_database_aggregate(rows, where, group_by, cheap_index)
