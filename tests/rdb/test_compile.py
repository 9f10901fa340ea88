"""Unit tests for compiled predicate execution (repro.rdb.compile).

Covers codegen (hoisted opaque callables included), per-shape caching
and its counters, the restricted generated namespace, ``predicate_fn``, EXPLAIN's
single-executor rendering, the LIKE-regex LRU cache, and the batched
write paths the vectorized executor leans on.  Semantic equivalence
with ``Expr.eval`` is pinned separately by the Hypothesis suite in
``test_compile_properties.py``.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest

from repro.rdb import (
    Column,
    ColumnType,
    Database,
    Expr,
    Schema,
    TriggerEvent,
    TriggerTiming,
    col,
)
from repro.rdb import compile as rdb_compile
from repro.rdb.compile import (
    _SAFE_BUILTINS,
    batch_filter,
    compiled_predicate,
    compiled_source,
    predicate_fn,
)
from repro.rdb.predicate import _like_to_regex

T = ColumnType

ROWS = [
    {"a": 1, "b": "x", "c": None},
    {"a": 2, "b": "y", "c": 7},
    {"a": None, "b": "xx", "c": 3},
]


def _docs_db() -> Database:
    db = Database("t")
    db.create_table(Schema(
        name="docs",
        columns=(
            Column("doc_id", T.INT, nullable=False),
            Column("author", T.TEXT),
            Column("size", T.INT),
        ),
        primary_key=("doc_id",),
    ))
    return db


# -- codegen ----------------------------------------------------------------
def test_plain_tree_uses_codegen():
    expr = (col("a") > 1) & col("b").like("x%")
    assert compiled_source(expr).startswith("def _compiled(r):")


def test_apply_fn_is_a_hoisted_constant_of_the_generated_source():
    expr = col("b").apply(str.upper) == "X"
    fn = compiled_predicate(expr)
    # The callable is an argument of the shape's factory — a closure
    # cell of the generated function — not a global of its namespace,
    # and neither it nor the literal appears in the text.
    cells = dict(zip(
        fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)
    ))
    hoisted = [k for k, v in cells.items() if v is str.upper]
    assert len(hoisted) == 1
    source = compiled_source(expr)
    assert f"{hoisted[0]}(r['b'])" in source
    assert "upper" not in source and "'X'" not in source
    assert str.upper not in fn.__globals__.values()
    assert [r["a"] for r in ROWS if fn(r)] == [1]
    assert [r["a"] for r in batch_filter(expr)(ROWS)] == [1]


def test_foreign_expr_subclass_runs_its_own_eval():
    class LongB(Expr):
        def eval(self, row):
            return len(row["b"]) > 1

        def columns(self):
            return frozenset({"b"})

    expr = LongB() & (col("a").is_null())
    assert [r["b"] for r in ROWS if compiled_predicate(expr)(r)] == ["xx"]
    assert [r["b"] for r in batch_filter(expr)(ROWS)] == ["xx"]


def test_compiled_closure_is_cached_per_expression():
    # Cached per statement *shape*, not per Expr instance: equal-shaped
    # trees share one compiled code object whatever their literals ...
    expr = col("a") == 1
    assert compiled_predicate(expr).__code__ is compiled_predicate(expr).__code__
    assert batch_filter(expr).__code__ is batch_filter(expr).__code__
    other = compiled_predicate(col("a") == 2)
    assert other.__code__ is compiled_predicate(expr).__code__
    # ... each closed over its own: sharing the code shares no value.
    assert [r["a"] for r in ROWS if other(r)] == [2]
    assert [r["a"] for r in ROWS if compiled_predicate(expr)(r)] == [1]
    # A different shape compiles independently.
    assert compiled_predicate(col("a") > 1).__code__ is not other.__code__


def test_compiled_source_shows_literals_as_parameters():
    source = compiled_source(
        (col("a") == 7) & col("b").like("x%") & (col("c") > "q'"))
    assert source.startswith("def _compiled(r):")
    for value in ("7", "x%", "q'"):
        assert value not in source
    assert "_c0" in source and "_c1" in source
    # None/True/False select the emitted form, so they stay in the text
    # (and 1 can never be served True's code, equal though they are).
    assert "== True" in compiled_source(col("a") == True)  # noqa: E712
    assert "and False" in compiled_source(col("a") == None)  # noqa: E711
    assert compiled_source(col("a") == 1) == compiled_source(col("a") == "x")


def test_compile_outcomes_are_counted_once_per_statement(metrics_registry):
    db = _docs_db()
    db.insert_many("docs", [
        {"doc_id": i, "author": "a", "size": i} for i in range(600)
    ])
    with mock.patch.object(rdb_compile, "_FACTORIES", {}):
        before = db.stats()["compile"]
        assert len(db.select("docs", where=col("size") > 3)) == 596
        assert len(db.select("docs", where=col("size") > 4)) == 595
        assert db.count("docs", where=col("size") > 5) == 594
        after = db.stats()["compile"]
    assert set(after) == {"shapes", "hits", "misses", "evictions"}
    assert after["shapes"] == 1
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2
    # Once per statement, never per row or per batch.
    assert metrics_registry.counter("rdb.compile", outcome="miss").value == 1
    assert metrics_registry.counter("rdb.compile", outcome="hit").value == 2


def test_batch_filter_matches_per_row_closure():
    expr = (col("a").not_null()) & (col("c") != 3)
    pred = compiled_predicate(expr)
    assert batch_filter(expr)(ROWS) == [r for r in ROWS if pred(r)]


def test_missing_column_raises_keyerror_like_interpreter():
    expr = col("nope") == 1
    with pytest.raises(KeyError):
        expr.eval({"a": 1})
    with pytest.raises(KeyError):
        compiled_predicate(expr)({"a": 1})


def test_generated_namespace_is_restricted():
    # The whitelist must never grow I/O, import, or entropy builtins.
    assert set(_SAFE_BUILTINS) == {"bool", "isinstance", "str"}
    fn = compiled_predicate(col("a") == 1)
    namespace = getattr(fn, "__globals__", {})
    assert namespace.get("__builtins__") is _SAFE_BUILTINS


# -- one executor ----------------------------------------------------------
def test_predicate_fn_is_none_or_the_compiled_closure():
    expr = col("a") == 1
    assert predicate_fn(None) is None
    assert predicate_fn(expr).__code__ is compiled_predicate(expr).__code__
    assert [r["a"] for r in ROWS if predicate_fn(expr)(r)] == [1]


def test_select_equals_naive_eval_scan():
    db = _docs_db()
    db.insert_many("docs", [
        {"doc_id": i, "author": f"a{i % 5}", "size": i * 3 % 17}
        for i in range(60)
    ])
    where = (col("size") > 4) & col("author").isin(("a1", "a3"))
    naive = [dict(r) for r in db.table("docs").rows() if where.eval(r)]
    got = db.select("docs", where=where, order_by="doc_id")
    assert got == sorted(naive, key=lambda r: r["doc_id"]) and got


def test_explain_has_one_executor_and_says_nothing_about_it():
    db = _docs_db()
    plan = db.explain_plan("docs", col("size") > 4)
    fields = {f.name for f in dataclasses.fields(plan)}
    assert fields == {
        "table", "access_path", "estimated_candidates", "estimated_cost",
        "chosen_conjuncts", "pushdown", "order_by", "top", "walk",
    }
    assert plan.describe() == "docs: scan (~0 rows, cost 0)"
    assert db.explain("docs", col("size") > 4) == plan.describe()


# -- LIKE regex LRU cache ---------------------------------------------------
def test_like_to_regex_is_lru_cached():
    _like_to_regex.cache_clear()
    before = _like_to_regex.cache_info()
    col("b").like("doc_%.html")
    col("b").like("doc_%.html")
    after = _like_to_regex.cache_info()
    assert after.misses == before.misses + 1
    assert after.hits >= before.hits + 1
    # Cached pattern still matches correctly.
    assert col("b").like("x%").eval({"b": "xyz"})


# -- batched write paths ----------------------------------------------------
def test_insert_many_maintains_indexes_and_triggers():
    db = _docs_db()
    db.create_sorted_index("docs", "by_size", "size")
    fired = []
    db.register_trigger(
        "after_insert", "docs", TriggerEvent.INSERT, TriggerTiming.AFTER,
        lambda ctx: fired.append(ctx.new_row["doc_id"]),
    )
    keys = db.insert_many("docs", [
        {"doc_id": i, "author": "a", "size": 100 - i} for i in range(20)
    ])
    assert keys == [(i,) for i in range(20)]
    assert fired == list(range(20))
    got = db.select("docs", where=col("size").between(95, 99))
    assert [r["size"] for r in got] == [95, 96, 97, 98, 99]
    # Point probe through the pk index still works after the bulk path.
    assert db.select("docs", where=col("doc_id") == 7)[0]["size"] == 93
