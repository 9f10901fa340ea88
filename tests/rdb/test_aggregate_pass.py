"""``Database.aggregate`` is one compiled pass over its candidates.

The WHERE filter, the group bucketing and the per-group fold run as the
one generated form :func:`repro.rdb.compile.grouped_form`, fed by the
access path the planner picks.  What it must keep from the three-step
pipeline it replaced (``matching_view``, then ``aggregate`` over the
matching rows): the four ``rdb.*`` counts a statement emits, and the
order in which a bad statement is refused — before any row is read.
The answers themselves are pinned against the reference loop in
``test_compile_properties.py``.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.obs import MetricsRegistry
from repro.obs.instrument import enabled
from repro.rdb import Column, ColumnType, Database, Schema, UnknownColumnError, col
from repro.rdb import compile as rdb_compile
from repro.rdb.query import matching_view

T = ColumnType

#: What a statement counts: its plan, the candidates it examined, the
#: rows that matched, the batches it pulled.
RDB_COUNTS = ("rdb.plan", "rdb.rows_scanned", "rdb.rows_returned", "rdb.batches")
SPEC = {"n": ("count", None), "total": ("sum", "v"), "low": ("min", "v")}


@pytest.fixture
def db() -> Database:
    db = Database("agg")
    db.create_table(Schema(
        name="t",
        columns=(Column("pk", T.INT, nullable=False), Column("g", T.TEXT),
                 Column("h", T.INT, nullable=False), Column("v", T.INT)),
        primary_key=("pk",),
    ))
    db.create_hash_index("t", "by_h", ["h"])
    db.insert_many("t", [
        {"pk": pk, "g": (None, "x", "y")[pk % 3], "h": pk % 50,
         "v": None if pk % 7 == 0 else pk % 11}
        for pk in range(1_000)
    ])
    return db


def _rdb_counts(run) -> dict:
    with enabled(registry=MetricsRegistry()) as (registry, _):
        run()
    return {
        key: value for key, value in registry.snapshot().counters.items()
        if key[0] in RDB_COUNTS
    }


def _by_name(counts: dict) -> dict:
    totals: dict[str, int] = {}
    for (name, _labels), value in counts.items():
        totals[name] = totals.get(name, 0) + value
    return totals


@pytest.mark.parametrize("where, path, candidates", [
    ((col("v") > 5) & (col("g") == "x"), "scan", 1_000),
    (col("h") == 7, "index:by_h", 20),
    (col("h").isin([3, 4]) & ~col("v").is_null(), "index:by_h", 40),
], ids=["scan", "hash-probe", "in-list"])
def test_counts_are_the_select_it_equals(db, where, path, candidates):
    """The same label sets and values as the ``matching_view`` the
    aggregate used to be fed from: one plan, every candidate examined,
    the matching rows returned (not the groups), one batch."""
    table = db.table("t")
    assert db.explain_plan("t", where).access_path == path
    matched = len(matching_view(table, where))
    got = _rdb_counts(lambda: db.aggregate("t", SPEC, where=where, group_by=["g"]))
    assert got == _rdb_counts(lambda: matching_view(table, where))
    assert _by_name(got) == {
        "rdb.plan": 1, "rdb.rows_scanned": candidates,
        "rdb.rows_returned": matched, "rdb.batches": 1,
    }


def test_counts_with_no_where_and_no_match(db):
    table = db.table("t")
    for where in (None, col("h") == 99):
        got = _rdb_counts(lambda: db.aggregate("t", SPEC, where=where))
        assert got == _rdb_counts(lambda: matching_view(table, where))


BAD = {
    "spec": {"n": ("count", None), "x": ("sum", "ghost_spec")},
    "group": ["ghost_group"],
    "where": col("ghost_where") == 1,
    "function": {"n": ("count", None), "m": ("median", "v")},
}


@pytest.mark.parametrize("faults, refusal", [
    (("spec", "group", "where", "function"), "ghost_spec"),
    (("group", "where", "function"), "ghost_group"),
    (("where", "function"), "ghost_where"),
    (("function",), ValueError),
], ids=["spec-column", "group-column", "where-column", "function"])
def test_refusal_order_before_any_row_is_read(db, faults, refusal):
    """An unknown spec or group column first, then an unknown WHERE
    column, then an unknown function — and none of them reads a row,
    plans a path or compiles a form."""
    spec = SPEC
    if "spec" in faults:
        spec = BAD["spec"]
    if "function" in faults:
        spec = {**spec, **BAD["function"]}
    group_by = BAD["group"] if "group" in faults else ["g"]
    where = BAD["where"] if "where" in faults else col("h") == 1
    with enabled(registry=MetricsRegistry()) as (registry, _):
        if refusal is ValueError:
            with pytest.raises(ValueError, match="unknown aggregate 'median'"):
                db.aggregate("t", spec, where=where, group_by=group_by)
        else:
            with pytest.raises(UnknownColumnError) as refused:
                db.aggregate("t", spec, where=where, group_by=group_by)
            assert refused.value.column == refusal
    emitted = registry.snapshot().names()
    assert not emitted & {*RDB_COUNTS, "rdb.compile"}


def test_fresh_literals_of_one_report_cost_one_compile(db):
    """The grouped form lives in the one shape store, keyed by its
    text: a report run with forty fresh literals compiles once, and no
    literal reaches ``compile()``."""
    with mock.patch.object(rdb_compile, "_FACTORIES", {}), \
            mock.patch.object(rdb_compile, "compile", create=True,
                              wraps=compile) as compile_spy:
        for n in range(40):
            where = (col("h") > n) & (col("v") != 1000 + n)
            db.aggregate("t", SPEC, where=where, group_by=["g"])
        assert compile_spy.call_count == 1
        db.aggregate("t", SPEC, where=col("h") > 3, group_by=["g", "h"])
        assert compile_spy.call_count == 2
    for call in compile_spy.call_args_list:
        assert "1039" not in call.args[0]
