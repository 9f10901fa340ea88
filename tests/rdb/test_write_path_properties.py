"""Property tests for the write path PR 23 rebuilt in place.

What a statement needs from its table is now resolved once per table
(``Schema.__post_init__``, ``HashIndex.key_of``, the column-tuple map of
``IndexSet``) instead of once per row, and ``update``/``delete(where=…)``
select their targets through the planner.  Each rewritten piece is held
against what it replaced, kept here (or in :mod:`tests.rdb.oracles`)
verbatim from the parent commit:

* ``Schema.normalize_row`` against the per-value ``ColumnType.validate``
  loop, over every column type;
* ``encode_row`` against ``{k: encode_value(v)}``;
* the constraint checker against a naive one that scans the heap — the
  same exception type *and message* for the same row;
* ``update``/``delete(where=…)`` over random predicates and index sets
  against the heap scan — same rows, same count, same journal bytes.
"""

from __future__ import annotations

import datetime as dt
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdb import (
    CheckError,
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    ForeignKey,
    ForeignKeyError,
    NotNullError,
    Schema,
    SchemaError,
)
from repro.rdb.types import _check_json
from repro.rdb.wal import Journal, encode_row, encode_value
from tests.rdb.oracles import _reference_matching_rowids
from tests.rdb.test_planner_properties import predicate_strategy, rows_strategy

T = ColumnType
_dt = dt


# -- the oracles, verbatim from the parent of the rewrite -------------------
def _reference_validate(self: ColumnType, value: Any, *, column: str) -> Any:
    if self is ColumnType.INT:
        # bool is an int subclass; reject it to avoid silent surprises.
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"column {column!r} expects int, got {value!r}")
        return value
    if self is ColumnType.FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"column {column!r} expects float, got {value!r}")
        return float(value)
    if self is ColumnType.TEXT:
        if not isinstance(value, str):
            raise TypeError(f"column {column!r} expects str, got {value!r}")
        return value
    if self is ColumnType.BOOL:
        if not isinstance(value, bool):
            raise TypeError(f"column {column!r} expects bool, got {value!r}")
        return value
    if self is ColumnType.DATETIME:
        if not isinstance(value, _dt.datetime):
            raise TypeError(
                f"column {column!r} expects datetime, got {value!r}"
            )
        return value
    if self is ColumnType.JSON:
        _check_json(value, column)
        return value
    if self is ColumnType.BYTES:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"column {column!r} expects bytes, got {value!r}")
        return bytes(value)
    raise AssertionError(f"unhandled column type {self!r}")


def _reference_normalize_row(self: Schema, values: dict[str, Any]) -> dict[str, Any]:
    for key in values:
        if key not in self._by_name:
            raise SchemaError(
                f"table {self.name!r} has no column {key!r}"
            )
    row: dict[str, Any] = {}
    for column in self.columns:
        if column.name in values:
            value = values[column.name]
        else:
            value = column.default
        if value is not None:
            value = _reference_validate(column.type, value, column=column.name)
        row[column.name] = value
    return row


def _reference_encode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {k: encode_value(v) for k, v in row.items()}


def _outcome(fn, *args: Any) -> tuple:
    """What a call did: its value with the class of every part, or the
    exception's class and message."""
    try:
        return "ok", _typed(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _typed(value: Any) -> Any:
    if isinstance(value, dict):
        return [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


# -- values ------------------------------------------------------------------
class Name(str):
    """A ``str`` subclass: accepted by TEXT, stored as it came."""


class Count(int):
    """An ``int`` subclass: accepted by INT and FLOAT, never a bool."""


class Ratio(float):
    """A ``float`` subclass: FLOAT stores a plain ``float``."""


class Stamp(dt.datetime):
    """A ``datetime`` subclass (as pandas' Timestamp is)."""


def _nested(depth: int) -> Any:
    value: Any = 0
    for _ in range(depth):
        value = [value]
    return value


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=4),
              st.floats(allow_nan=False, allow_infinity=False, width=16)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.sampled_from(["k", "$dt", "$b64", "$esc", "n"]),
                        inner, max_size=3),
    ),
    max_leaves=8,
)

#: Every class a caller can hand any column, right or wrong for it.
any_value = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-3, 3).map(Count),
    st.floats(allow_nan=False, width=32), st.just(Ratio(1.5)),
    st.text(max_size=5), st.text(max_size=5).map(Name),
    st.binary(max_size=5), st.binary(max_size=5).map(bytearray),
    st.datetimes(min_value=dt.datetime(1990, 1, 1), max_value=dt.datetime(2030, 1, 1)),
    st.just(Stamp(1999, 9, 21)), json_values,
    st.sampled_from([_nested(32), _nested(34), {1: "non-str key"}, {"k": {2, 3}},
                     object, 1 + 2j]),
)

EVERY_TYPE = Schema(
    name="every",
    columns=(
        Column("i", T.INT, nullable=False),
        Column("f", T.FLOAT, default=2),          # an int default, stored 2.0
        Column("t", T.TEXT, default="unnamed"),
        Column("b", T.BOOL, default=False),
        Column("d", T.DATETIME),
        Column("j", T.JSON, default=[1, {"k": None}]),
        Column("y", T.BYTES, default=bytearray(b"ab")),
    ),
    primary_key=("i",),
)

row_values = st.dictionaries(
    st.sampled_from(["i", "f", "t", "b", "d", "j", "y", "ghost", 7]),
    any_value, max_size=8,
)


class TestNormalizeRow:
    @settings(max_examples=400, deadline=None)
    @given(values=row_values)
    def test_agrees_with_the_per_value_validate_loop(self, values):
        assert _outcome(EVERY_TYPE.normalize_row, values) == \
            _outcome(_reference_normalize_row, EVERY_TYPE, values)

    @settings(max_examples=300, deadline=None)
    @given(ctype=st.sampled_from(list(T)), value=any_value.filter(lambda v: v is not None))
    def test_validate_agrees_with_the_if_chain(self, ctype, value):
        assert _outcome(lambda: ctype.validate(value, column="c")) == \
            _outcome(lambda: _reference_validate(ctype, value, column="c"))

    @settings(max_examples=200, deadline=None)
    @given(changes=row_values)
    def test_changes_are_the_row_s_values(self, changes):
        """``normalize_changes`` stores what ``normalize_row`` would, and
        fails on the first bad key in the caller's order."""
        def reference(changes):
            out = {}
            for key, value in changes.items():
                column = EVERY_TYPE.column(key)
                if value is not None:
                    value = _reference_validate(column.type, value, column=key)
                out[key] = value
            return out

        assert _outcome(EVERY_TYPE.normalize_changes, changes) == \
            _outcome(reference, changes)

    @pytest.mark.parametrize("column, value", [("i", True), ("f", False)])
    def test_bool_is_not_a_number(self, column, value):
        with pytest.raises(TypeError, match=f"column '{column}' expects"):
            EVERY_TYPE.normalize_row({"i": 1, column: value})

    def test_int_into_float_is_stored_as_float(self):
        stored = EVERY_TYPE.normalize_row({"i": 1, "f": 3})["f"]
        assert stored == 3.0 and type(stored) is float


class TestEncodeRow:
    @settings(max_examples=300, deadline=None)
    @given(row=st.dictionaries(st.text(max_size=3), any_value.filter(
        lambda v: v is not object and not isinstance(v, complex)), max_size=6))
    def test_agrees_with_encode_value_per_column(self, row):
        assert _outcome(encode_row, row) == _outcome(_reference_encode_row, row)


# -- constraints ---------------------------------------------------------------
OWNERS = Schema(
    name="owners",
    columns=(
        Column("owner_id", T.INT, nullable=False),
        Column("email", T.TEXT),
        Column("dept", T.TEXT),
        Column("badge", T.INT),
    ),
    primary_key=("owner_id",),
    unique=(("email",), ("dept", "badge")),
)

ITEMS = Schema(
    name="items",
    columns=(
        Column("item_id", T.INT, nullable=False),
        Column("owner_id", T.INT),
        Column("dept", T.TEXT),
        Column("badge", T.INT),
        Column("title", T.TEXT, nullable=False, default="untitled"),
        Column("score", T.FLOAT, check=lambda v: v >= 0, check_label="score_ge_0"),
        Column("stock", T.INT, nullable=False, default=0, check=lambda v: v < 4),
    ),
    primary_key=("item_id",),
    unique=(("title", "score"),),
    foreign_keys=(
        ForeignKey(("owner_id",), "owners", ("owner_id",)),
        ForeignKey(("dept", "badge"), "owners", ("dept", "badge")),
    ),
)


def _naive_check(db: Database, table_name: str, row: dict[str, Any],
                 skip: dict[str, Any] | None = None) -> None:
    """Every constraint, by reading every row — the parent's checker
    with the indexes taken out."""
    schema = db.schema(table_name)
    others = [r for r in db.table(table_name).rows() if r is not skip]
    for column in schema.columns:
        if not column.nullable and row[column.name] is None:
            raise NotNullError(schema.name, column.name)
    for column in schema.columns:
        if column.check is None:
            continue
        value = row[column.name]
        if value is not None and not column.check(value):
            raise CheckError(
                schema.name, column.name, column.constraint_name, value,
            )
    for columns in (schema.primary_key, *schema.unique):
        key = tuple(row[c] for c in columns)
        if columns != schema.primary_key and any(v is None for v in key):
            continue
        if any(tuple(r[c] for c in columns) == key for r in others):
            raise DuplicateKeyError(schema.name, columns, key)
    for fk in schema.foreign_keys:
        key = tuple(row[c] for c in fk.columns)
        nulls = sum(1 for v in key if v is None)
        if nulls == len(key):
            continue
        if nulls:
            raise ForeignKeyError(
                f"foreign key {fk.columns!r} is partially null: {key!r}"
            )
        if not any(
            tuple(r[c] for c in fk.parent_columns) == key
            for r in db.table(fk.parent_table).rows()
        ):
            raise ForeignKeyError(
                f"table {schema.name!r}: foreign key "
                f"{fk.columns!r} -> {fk.parent_table!r}"
                f"{fk.parent_columns!r} has no parent row for {key!r}"
            )


small = st.integers(0, 3)
maybe = lambda s: st.one_of(st.none(), s)  # noqa: E731
owner_rows = st.fixed_dictionaries({
    "owner_id": small, "email": maybe(st.sampled_from(["a@x", "b@x"])),
    "dept": maybe(st.sampled_from(["cs", "ee"])), "badge": maybe(small),
})
item_rows = st.fixed_dictionaries({
    "item_id": small, "owner_id": maybe(small),
    "dept": maybe(st.sampled_from(["cs", "ee"])), "badge": maybe(small),
    "title": maybe(st.sampled_from(["t", "u"])),
    "score": maybe(st.sampled_from([-1.0, 0.0, 2.5])), "stock": maybe(st.integers(2, 5)),
})
item_changes = st.dictionaries(
    st.sampled_from(["owner_id", "dept", "badge", "title", "score", "stock"]),
    st.one_of(st.none(), small, st.sampled_from(["cs", "t", -1.0, 2.5])),
    min_size=1, max_size=3,
)
constraint_ops = st.lists(st.one_of(
    st.tuples(st.just("owners"), owner_rows),
    st.tuples(st.just("items"), item_rows),
    st.tuples(st.just("update"), small, item_changes),
), max_size=25)


class TestConstraintViolations:
    @settings(max_examples=250, deadline=None)
    @given(ops=constraint_ops)
    def test_same_exception_and_message_as_a_naive_checker(self, ops):
        db = Database("c")
        db.create_table(OWNERS)
        db.create_table(ITEMS)
        for op in ops:
            if op[0] == "update":
                _kind, pk, changes = op
                old = db.table("items").row_for_pk((pk,))

                def expected():
                    stored = ITEMS.normalize_changes(changes)
                    if old is not None:
                        _naive_check(db, "items", {**old, **stored}, skip=old)

                wanted = _outcome(expected)
                got = _outcome(db.update_pk, "items", pk, changes)
                wanted = ("ok", _typed(old is not None)) if wanted[0] == "ok" else wanted
            else:
                table, values = op
                wanted = _outcome(
                    lambda: _naive_check(db, table, db.schema(table).normalize_row(values))
                )
                got = _outcome(db.insert, table, values)
                if wanted[0] == "ok":
                    wanted = ("ok", _typed(db.schema(table).primary_key_of(
                        db.schema(table).normalize_row(values))))
            assert got == wanted


# -- update / delete target selection ------------------------------------------
INDEX_SETS = st.sets(st.sampled_from(["by_a", "by_c", "by_b_eq", "by_b"]))
statements = st.lists(st.tuples(
    st.sampled_from(["update", "delete"]),
    st.one_of(st.none(), predicate_strategy),
    st.sampled_from([{"a": 1}, {"b": None}, {"b": 3, "c": "w"}, {"pk": 0}, {"c": "x"}]),
), min_size=1, max_size=3)


def _planner_db(rows, indexes, path) -> Database:
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
    for name, column in (("by_a", "a"), ("by_c", "c"), ("by_b_eq", "b")):
        if name in indexes:
            db.create_hash_index("t", name, [column])
    if "by_b" in indexes:
        db.create_sorted_index("t", "by_b", "b")
    db.attach_journal(Journal(path))
    db.insert_many("t", [{"pk": pk, **row} for pk, row in enumerate(rows)])
    return db


class TestTargetSelection:
    @settings(max_examples=150, deadline=None)
    @given(rows=rows_strategy, indexes=INDEX_SETS, script=statements)
    def test_update_and_delete_agree_with_the_heap_scan(
        self, tmp_path_factory, rows, indexes, script
    ):
        """The planner-selected statement against the same statement
        spelt row by row over the naive scan's targets: same outcome,
        same rows, byte-identical journals."""
        tmp = tmp_path_factory.mktemp("targets")
        real = _planner_db(rows, indexes, tmp / "real.wal")
        naive = _planner_db(rows, set(), tmp / "naive.wal")
        for kind, where, changes in script:
            def by_scan():
                table = naive.table("t")
                pks = [
                    (table.get(rowid)["pk"],)
                    for rowid in _reference_matching_rowids(table, where)
                ]
                done = 0
                with naive.transaction():
                    for pk in pks:
                        if kind == "update":
                            done += naive.update_pk("t", pk, changes)
                        else:
                            done += naive.delete_pk("t", pk)
                return done

            if kind == "update":
                got = _outcome(real.update, "t", changes, where)
            else:
                got = _outcome(real.delete, "t", where)
            assert got == _outcome(by_scan)
            assert real.select("t", order_by="pk") == naive.select("t", order_by="pk")
        for db in (real, naive):
            db.journal.close()
        assert (tmp / "real.wal").read_bytes() == (tmp / "naive.wal").read_bytes()
