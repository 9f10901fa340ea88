"""Tests for the incremental index counters and hash-probe snapshots.

The planner reads ``len(table)`` and each costed index's own two
counters — ``len(index)`` and ``index.distinct_keys()`` — so those are
what these tests pin, through ``db.table(name).indexes``.
"""

from repro.rdb import Column, ColumnType, Database, Schema
from repro.rdb.index import HashIndex, SortedIndex

from tests.conftest import index_named

T = ColumnType


def _db() -> Database:
    db = Database("stats")
    db.create_table(Schema(
        name="t",
        columns=(
            Column("id", T.INT, nullable=False),
            Column("grp", T.TEXT, nullable=False),
            Column("rank", T.INT),
        ),
        primary_key=("id",),
    ))
    db.create_hash_index("t", "by_grp", ["grp"])
    db.create_sorted_index("t", "by_rank", "rank")
    return db


class TestIncrementalCounters:
    def test_counters_track_inserts(self):
        db = _db()
        for i in range(10):
            db.insert("t", {"id": i, "grp": "ab"[i % 2], "rank": i})
        by_grp = index_named(db, "t", "by_grp")
        by_rank = index_named(db, "t", "by_rank")
        assert len(db.table("t")) == 10
        assert len(by_grp) == 10 and by_grp.distinct_keys() == 2
        assert len(by_rank) == 10 and by_rank.distinct_keys() == 10

    def test_counters_track_updates_and_deletes(self):
        db = _db()
        for i in range(6):
            db.insert("t", {"id": i, "grp": "a", "rank": i})
        db.update_pk("t", (0,), {"grp": "b"})
        db.delete_pk("t", (5,))
        by_grp = index_named(db, "t", "by_grp")
        assert len(db.table("t")) == 5
        assert len(by_grp) == 5 and by_grp.distinct_keys() == 2

    def test_null_sorted_keys_not_counted(self):
        db = _db()
        db.insert("t", {"id": 1, "grp": "a", "rank": None})
        db.insert("t", {"id": 2, "grp": "a", "rank": 3})
        by_rank = index_named(db, "t", "by_rank")
        assert len(by_rank) == 1 and by_rank.distinct_keys() == 1

    def test_rollback_restores_counters(self):
        db = _db()
        db.insert("t", {"id": 1, "grp": "a", "rank": 1})
        db.begin()
        db.insert("t", {"id": 2, "grp": "b", "rank": 2})
        db.rollback()
        by_grp = index_named(db, "t", "by_grp")
        assert len(db.table("t")) == 1
        assert len(by_grp) == 1 and by_grp.distinct_keys() == 1


class TestHashLookupSnapshot:
    def test_repeated_probe_returns_equal_snapshots(self):
        # Was ``test_repeated_probe_reuses_snapshot`` (``first is
        # second``): that pinned the per-key frozenset cache, an
        # allocation detail PR 21 dropped for its bytes.  What the index
        # promises is the value and its immutability, for one id held
        # bare and for many held in a set alike.
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        assert index.lookup((1,)) == index.lookup((1,)) == frozenset({10})
        index.insert((1,), 11)
        assert index.lookup((1,)) == index.lookup((1,)) == frozenset({10, 11})
        assert type(index.lookup((1,))) is frozenset

    def test_mutation_after_lookup_does_not_alias(self):
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        before = index.lookup((1,))
        index.insert((1,), 11)
        index.remove((1,), 10)
        assert before == {10}  # the old snapshot is untouched
        assert index.lookup((1,)) == {11}

    def test_missing_key_returns_shared_empty(self):
        index = HashIndex("i", ("a",))
        assert index.lookup((9,)) == frozenset()
        # an empty probe must not pin an entry for the missing key
        index.insert((9,), 1)
        assert index.lookup((9,)) == {1}

    def test_duplicate_insert_does_not_inflate_entries(self):
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        index.insert((1,), 10)
        assert len(index) == 1
        index.remove((1,), 10)
        assert len(index) == 0


class TestSortedEstimate:
    def test_estimate_matches_exact_on_uniform_keys(self):
        index = SortedIndex("s", "a")
        for key in range(100):
            index.insert(key, key)
        assert index.estimate_range(10, 19) == 10
        assert index.estimate_range(None, None) == 100
        assert index.estimate_range(200, 300) == 0

    def test_estimate_scales_with_duplicates(self):
        index = SortedIndex("s", "a")
        for rowid in range(40):
            index.insert(rowid % 4, rowid)  # 4 keys x 10 rows
        assert index.estimate_range(0, 1) == 20
        assert index.distinct_keys() == 4
        assert len(index) == 40
