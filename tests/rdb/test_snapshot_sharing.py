"""A reopened database keeps one object per distinct string value.

``Database.load_snapshot`` shares equal ``str`` values across every row
and table of the snapshot it loads.  These tests hold it to the rows
that were written — each value keeps its exact type, so ``1``, ``1.0``,
``True`` and ``"1"`` stay apart — and check that journal replay, which
decodes without the memo, is unchanged.
"""

import datetime as dt
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault.crashsim import database_state
from repro.rdb import Column, ColumnType, Database, Schema
from repro.rdb.wal import decode_row, encode_row

T = ColumnType

MIXED = Schema(
    name="mixed",
    columns=(
        Column("k", T.INT, nullable=False),
        Column("label", T.TEXT),
        Column("n", T.INT),
        Column("x", T.FLOAT),
        Column("flag", T.BOOL),
        Column("meta", T.JSON),
        Column("when", T.DATETIME),
        Column("payload", T.BYTES),
    ),
    primary_key=("k",),
)

TAGS = Schema(
    name="tags",
    columns=(
        Column("tag", T.TEXT, nullable=False),
        Column("owner", T.TEXT),
    ),
    primary_key=("tag",),
)

WHEN = dt.datetime(1999, 9, 21, 8, 30, tzinfo=dt.timezone.utc)

ROWS = [
    {"k": 1, "label": "1", "n": 1, "x": 1.0, "flag": True, "meta": "1",
     "when": WHEN, "payload": b"1"},
    {"k": 2, "label": "c012", "n": 0, "x": 0.0, "flag": False,
     "meta": {"course": "c012", "ids": [1, 1.0, True, "1", None]},
     "when": None, "payload": b""},
    {"k": 3, "label": "c012", "n": None, "x": None, "flag": None,
     "meta": ["c012", {"$dt": "not a date"}], "when": WHEN,
     "payload": None},
    {"k": 4, "label": None, "n": -7, "x": 2.5, "flag": True, "meta": None,
     "when": None, "payload": b"\x00\xff"},
]

TAG_ROWS = [
    {"tag": "c012", "owner": "1"},
    {"tag": "1", "owner": "c012"},
]


def typed(value):
    """``value`` with the exact type of every part spelled out, so a
    comparison tells ``1``, ``1.0``, ``True`` and ``"1"`` apart."""
    if isinstance(value, dict):
        return ("dict", {k: typed(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [typed(v) for v in value])
    return (type(value).__name__, value)


def build(tmp_path):
    db = Database.open(
        "sharing", (MIXED, TAGS), journal_path=tmp_path / "db.wal",
    )
    db.insert_many("mixed", ROWS)
    db.insert_many("tags", TAG_ROWS)
    return db


def reopen(tmp_path):
    return Database.open(
        "sharing", (MIXED, TAGS),
        snapshot_path=str(tmp_path / "db.snapshot"),
        journal_path=tmp_path / "db.wal",
    )


def rows_by_key(db, table):
    return {row[db.schema(table).primary_key[0]]: row
            for row in db.table(table).rows()}


class TestReopenedRows:
    def test_rows_and_types_survive_the_snapshot(self, tmp_path):
        db = build(tmp_path)
        db.snapshot(str(tmp_path / "db.snapshot"))
        written = database_state(db)
        db.journal.close()
        back = reopen(tmp_path)
        assert typed(database_state(back)) == typed(written)
        back.journal.close()

    def test_equal_strings_are_one_object_across_rows_and_tables(self, tmp_path):
        db = build(tmp_path)
        db.snapshot(str(tmp_path / "db.snapshot"))
        db.journal.close()
        back = reopen(tmp_path)
        mixed, tags = rows_by_key(back, "mixed"), rows_by_key(back, "tags")
        assert mixed[2]["label"] is mixed[3]["label"]
        assert mixed[2]["label"] is tags["c012"]["tag"]
        assert mixed[2]["label"] is tags["1"]["owner"]
        assert mixed[1]["label"] is mixed[1]["meta"] is tags["1"]["tag"]
        back.journal.close()

    def test_no_other_type_is_merged_with_a_string(self, tmp_path):
        db = build(tmp_path)
        db.snapshot(str(tmp_path / "db.snapshot"))
        db.journal.close()
        row = rows_by_key(reopen(tmp_path), "mixed")[1]
        assert [type(row[c]) for c in ("label", "n", "x", "flag", "meta")] == [
            str, int, float, bool, str,
        ]
        assert type(row["payload"]) is bytes and row["payload"] == b"1"

    def test_journal_replay_is_unchanged(self, tmp_path):
        """Rows journaled after the checkpoint replay as written, beside
        the snapshot's shared strings."""
        db = build(tmp_path)
        db.snapshot(str(tmp_path / "db.snapshot"))
        db.insert("mixed", {"k": 5, "label": "c012", "n": 1, "x": 1.0,
                            "flag": True, "meta": ["1", 1], "when": WHEN,
                            "payload": b"c012"})
        db.update_pk("tags", ("1",), {"owner": "1"})
        db.delete_pk("mixed", (4,))
        written = database_state(db)
        db.journal.close()
        back = reopen(tmp_path)
        assert back.recovery_stats.records_recovered == 3
        assert typed(database_state(back)) == typed(written)
        recovered = Database.recover(
            "sharing", (MIXED, TAGS),
            snapshot_path=str(tmp_path / "db.snapshot"),
            journal_path=tmp_path / "db.wal",
        )
        assert typed(database_state(recovered)) == typed(written)
        back.journal.close()


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["1", "1.0", "True", "None", "", "c012"]),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.just(WHEN),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)


class TestDecodeWithMemo:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(
        st.dictionaries(st.sampled_from("abcd"), _values, max_size=4),
        max_size=6,
    ))
    def test_memo_changes_no_value_or_type(self, rows):
        """The snapshot load's decoding equals journal replay's, value
        and type, and equal top-level strings come out as one object."""
        wire = json.loads(json.dumps([encode_row(row) for row in rows]))
        plain = [decode_row(row) for row in json.loads(json.dumps(wire))]
        strings: dict[str, str] = {}
        shared = [decode_row(row, strings) for row in wire]
        assert typed(shared) == typed(plain) == typed(rows)
        seen: dict[str, str] = {}
        for row in shared:
            for value in row.values():
                if type(value) is str:
                    assert seen.setdefault(value, value) is value
