"""Tests for hash and sorted secondary indexes."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fault.crashsim import posting_problems, verify_database
from repro.rdb import Column, ColumnType, Database, ForeignKey, Schema, col
from repro.rdb.index import HashIndex, IndexSet, SortedIndex
from tests.rdb.oracles import _reference_range

#: One model-based op on one index.  ``refile`` takes a key's lowest id out
#: and files it again (an insert below the key's tail, as an undone
#: delete or a re-filed row makes); ``duplicate`` files an id the key
#: already holds; ``remove`` of an id the key does not hold is drawn as
#: often as one it does.
_INDEX_OP = st.tuples(
    st.sampled_from(["insert", "remove", "refile", "duplicate"]),
    st.integers(0, 3), st.integers(0, 9),
)


def _apply_to_model(index, model, op, key, rowid):
    """Apply one :data:`_INDEX_OP` to ``index`` and to ``model``
    (key -> set of row ids)."""
    held = sorted(model.get(key, ()))
    if op == "insert":
        index.insert(key, rowid)
        model.setdefault(key, set()).add(rowid)
    elif op == "remove":
        index.remove(key, rowid)
        model.get(key, set()).discard(rowid)
        if not model.get(key, True):
            del model[key]
    elif held and op == "refile":
        index.remove(key, held[0])
        index.insert(key, held[0])
    elif held:
        index.insert(key, held[rowid % len(held)])


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        index.insert((1,), 11)
        index.insert((2,), 12)
        assert index.lookup((1,)) == {10, 11}
        assert index.lookup((2,)) == {12}
        assert index.lookup((3,)) == frozenset()

    def test_count(self):
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        assert index.count((1,)) == 1 and index.count((9,)) == 0

    def test_remove(self):
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        index.insert((1,), 11)
        index.remove((1,), 10)
        assert index.lookup((1,)) == {11}
        index.remove((1,), 11)
        assert (1,) not in list(index.keys())

    def test_remove_absent_is_noop(self):
        index = HashIndex("i", ("a",))
        index.remove((1,), 10)  # no raise
        assert len(index) == 0

    def test_len_counts_rowids(self):
        index = HashIndex("i", ("a",))
        index.insert((1,), 10)
        index.insert((1,), 11)
        index.insert((2,), 12)
        assert len(index) == 3

    def test_composite_keys(self):
        index = HashIndex("i", ("a", "b"))
        index.insert((1, "x"), 10)
        assert index.lookup((1, "x")) == {10}
        assert index.lookup((1, "y")) == frozenset()

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            HashIndex("i", ())

    # Few keys and few row ids, so a key's holders cross one <-> many
    # (a bare id <-> a list) in both directions many times per example.
    @given(st.lists(_INDEX_OP, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_of_sets_model(self, ops):
        index = HashIndex("i", ("a",))
        model: dict[tuple, set[int]] = {}
        taken: list[tuple[frozenset, frozenset]] = []
        for op, k, rowid in ops:
            key = (k,)
            _apply_to_model(index, model, op, key, rowid)
            assert posting_problems("i", index) == []
            snapshot = index.lookup(key)
            assert type(snapshot) is frozenset
            taken.append((snapshot, frozenset(model.get(key, ()))))
            for probe in range(4):
                held = model.get((probe,), set())
                assert index.lookup((probe,)) == held
                assert index.count((probe,)) == len(held)
                assert index.any_rowid((probe,)) == min(held, default=None)
            assert len(index) == sum(map(len, model.values()))
            assert index.distinct_keys() == len(model)
            assert set(index.keys()) == set(model)
        # No snapshot handed out earlier moved with a later mutation.
        assert all(snapshot == then for snapshot, then in taken)

    def test_a_posting_is_one_ascending_list(self):
        index = HashIndex("i", ("a",))
        for rowid in (7, 3, 9, 5):
            index.insert((1,), rowid)
        assert dict(index.postings()) == {(1,): [3, 5, 7, 9]}
        for rowid in (3, 9, 7):
            index.remove((1,), rowid)
        assert dict(index.postings()) == {(1,): 5}


class TestSortedIndex:
    def _index(self):
        index = SortedIndex("s", "a")
        for key, rowid in [(5, 1), (1, 2), (3, 3), (3, 4), (9, 5)]:
            index.insert(key, rowid)
        return index

    def test_range_inclusive(self):
        assert set(self._index().range(3, 5)) == {1, 3, 4}

    def test_range_exclusive_bounds(self):
        index = self._index()
        assert set(index.range(3, 5, include_low=False)) == {1}
        assert set(index.range(3, 5, include_high=False)) == {3, 4}

    def test_open_ended(self):
        index = self._index()
        assert set(index.range(low=5)) == {1, 5}
        assert set(index.range(high=3)) == {2, 3, 4}
        assert set(index.range()) == {1, 2, 3, 4, 5}

    def test_none_keys_excluded(self):
        index = SortedIndex("s", "a")
        index.insert(None, 1)
        assert len(index) == 0
        index.remove(None, 1)  # no raise

    def test_min_max(self):
        index = self._index()
        assert index.min_key() == 1 and index.max_key() == 9
        assert SortedIndex("s", "a").min_key() is None

    def test_remove_shrinks(self):
        index = self._index()
        index.remove(3, 3)
        assert set(index.range(3, 3)) == {4}
        index.remove(3, 4)
        assert set(index.range(3, 3)) == set()

    def test_remove_absent_key(self):
        index = self._index()
        index.remove(99, 1)  # no raise
        assert len(index) == 5

    def test_inverted_range_is_empty(self):
        assert list(self._index().range(5, 3)) == []
        assert list(self._index().range(3, 3, include_low=False)) == []

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 40)),
                       max_size=30),
        low=st.one_of(st.none(), st.integers(-2, 14)),
        high=st.one_of(st.none(), st.integers(-2, 14)),
        include_low=st.booleans(),
        include_high=st.booleans(),
        bulk=st.booleans(),
        step=st.integers(1, 5),
    )
    def test_range_equals_the_per_rowid_generator(
        self, pairs, low, high, include_low, include_high, bulk, step
    ):
        """The chained range yields exactly what the generator it
        replaced did, in the same order — open ends, exclusive bounds
        and ``low > high`` included.  ``range_steps`` is the same row
        ids cut at key boundaries: ``step`` keys, then twice as many
        each time, from either end."""
        index = SortedIndex("s", "a")
        if bulk:
            index.bulk_load(pairs)
        else:
            for key, rowid in pairs:
                index.insert(key, rowid)
        bounds = dict(include_low=include_low, include_high=include_high)
        whole = list(_reference_range(index, low, high, **bounds))
        assert list(index.range(low, high, **bounds)) == whole
        start, stop = index._bounds(low, high, include_low, include_high)
        per_key = [list(rowids) for rowids in index._rowids[start:stop]]
        for reverse in (False, True):
            left, size, expected = per_key[::-1] if reverse else per_key, step, []
            while left:
                run, left = left[:size], left[size:]
                expected.append(sum(run[::-1] if reverse else run, []))
                size *= 2
            runs = [list(run) for run in index.range_steps(
                low, high, **bounds, step=step, reverse=reverse)]
            assert runs == expected
            if reverse:
                runs.reverse()
            assert sum(runs, []) == whole

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(st.one_of(
            _INDEX_OP,
            st.tuples(st.just("bulk"), st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 9)),
                max_size=6)),
        ), max_size=40),
        low=st.one_of(st.none(), st.integers(-1, 4)),
        high=st.one_of(st.none(), st.integers(-1, 4)),
        include_low=st.booleans(),
        include_high=st.booleans(),
        step=st.integers(1, 3),
    )
    def test_matches_a_dict_of_sets_model(
        self, ops, low, high, include_low, include_high, step
    ):
        """After every insert, remove and ``bulk_load`` over keys already
        held, the postings are in shape and ``range``/``range_steps``
        yield the model's ids ascending by (key, row id);
        ``estimate_range`` is still ``ceil(keys in range * entries /
        distinct keys)``."""
        index = SortedIndex("s", "a")
        model: dict[int, set[int]] = {}
        bounds = dict(include_low=include_low, include_high=include_high)
        for op in ops:
            if op[0] == "bulk":
                index.bulk_load(op[1])
                for key, rowid in op[1]:
                    model.setdefault(key, set()).add(rowid)
            else:
                _apply_to_model(index, model, *op)
            assert posting_problems("s", index) == []
            assert len(index) == sum(map(len, model.values()))
            assert index.distinct_keys() == len(model)
            inside = [key for key in sorted(model) if (
                (low is None or key > low or include_low and key == low)
                and (high is None or key < high
                     or include_high and key == high))]
            expected = [rowid for key in inside for rowid in sorted(model[key])]
            assert list(index.range(low, high, **bounds)) == expected
            for reverse in (False, True):
                runs = [list(run) for run in index.range_steps(
                    low, high, **bounds, step=step, reverse=reverse)]
                assert sum(runs[::-1] if reverse else runs, []) == expected
            estimate = index.estimate_range(low, high, **bounds)
            assert estimate == (math.ceil(
                len(inside) * len(index) / len(model)) if inside else 0)


class TestIndexSet:
    def _set(self):
        indexes = IndexSet()
        indexes.add_hash(HashIndex("h1", ("a",)))
        indexes.add_hash(HashIndex("h2", ("a", "b")))
        indexes.add_sorted(SortedIndex("s1", "c"))
        return indexes

    def test_duplicate_names_rejected(self):
        indexes = self._set()
        with pytest.raises(ValueError):
            indexes.add_hash(HashIndex("h1", ("z",)))
        with pytest.raises(ValueError):
            indexes.add_sorted(SortedIndex("s1", "z"))

    def test_hash_index_on_exact_columns(self):
        indexes = self._set()
        assert indexes.hash_index_on(("a",)).name == "h1"
        assert indexes.hash_index_on(("a", "b")).name == "h2"
        assert indexes.hash_index_on(("b",)) is None

    def test_candidate_hash_indexes_are_the_fully_covered_ones(self):
        indexes = self._set()

        def names(bound):
            return sorted(
                i.name for i in indexes.candidate_hash_indexes(frozenset(bound))
            )

        assert names({"a", "b"}) == ["h1", "h2"]
        assert names({"a"}) == ["h1"]
        assert names({"z"}) == []

    def test_sorted_index_on(self):
        indexes = self._set()
        assert indexes.sorted_index_on("c").name == "s1"
        assert indexes.sorted_index_on("a") is None

    def test_row_maintenance(self):
        indexes = self._set()
        row = {"a": 1, "b": "x", "c": 5}
        indexes.insert_row(row, 10)
        assert indexes.hash_index_on(("a",)).lookup((1,)) == {10}
        assert indexes.hash_index_on(("a", "b")).lookup((1, "x")) == {10}
        assert set(indexes.sorted_index_on("c").range(5, 5)) == {10}
        indexes.remove_row(row, 10)
        assert indexes.hash_index_on(("a",)).lookup((1,)) == frozenset()
        assert set(indexes.sorted_index_on("c").range()) == set()


#: A child table with a non-unique hash key and a sorted key, both
#: under many rows, beside the parent its FK names.
_PARENT = Schema(
    name="groups",
    columns=(Column("group_id", ColumnType.INT, nullable=False),),
    primary_key=("group_id",),
)
_CHILD = Schema(
    name="members",
    columns=(
        Column("member_id", ColumnType.INT, nullable=False),
        Column("group_id", ColumnType.INT, nullable=False),
        Column("rank", ColumnType.INT),
    ),
    primary_key=("member_id",),
    foreign_keys=(ForeignKey(("group_id",), "groups", ("group_id",)),),
)


class TestPostingsThroughTheEngine:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.sampled_from(["insert", "update", "delete", "delete_group",
                         "savepoint", "rollback_to"]),
        st.integers(0, 11), st.integers(0, 1), st.integers(0, 2),
    ), max_size=12), max_size=8), st.lists(st.booleans(), min_size=8,
                                            max_size=8))
    def test_savepoint_rollbacks_leave_the_postings_in_shape(
        self, transactions, commits
    ):
        """Inserts, updates that re-file a row under another key, deletes
        and rollbacks to savepoints (which put deleted rows back under
        their old, lower row ids) leave every posting in shape."""
        db = Database("postings")
        db.create_table(_PARENT)
        db.create_table(_CHILD)
        db.create_hash_index("members", "members_by_group", ("group_id",))
        db.create_sorted_index("members", "members_by_rank", "rank")
        db.insert_many("groups", [{"group_id": g} for g in range(2)])
        for ops, commit in zip(transactions, commits):
            db.begin()
            marks = 0
            for op, member, group, rank in ops:
                if op == "insert" and db.get("members", member) is None:
                    db.insert("members", {"member_id": member,
                                          "group_id": group, "rank": rank})
                elif op == "update":
                    db.update_pk("members", member,
                                 {"group_id": group, "rank": rank})
                elif op == "delete":
                    db.delete_pk("members", member)
                elif op == "delete_group":
                    db.delete("members", where=col("group_id") == group)
                elif op == "savepoint":
                    marks += 1
                    db.savepoint(f"s{marks}")
                elif op == "rollback_to" and marks:
                    db.rollback_to(f"s{1 + member % marks}")
                    marks = min(marks, 1 + member % marks)
                assert verify_database(db) == []
            if commit:
                db.commit()
            else:
                db.rollback()
            assert verify_database(db) == []
