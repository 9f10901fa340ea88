"""Tests for hash and sorted secondary indexes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdb.index import HashIndex, IndexSet, SortedIndex
from tests.rdb.oracles import _reference_range


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
    # (a bare id <-> a set) in both directions many times per example.
    @given(st.lists(st.tuples(
        st.sampled_from(["insert", "remove"]),
        st.integers(0, 3), st.integers(0, 4),
    ), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_of_sets_model(self, ops):
        index = HashIndex("i", ("a",))
        model: dict[tuple, set[int]] = {}
        taken: list[tuple[frozenset, frozenset]] = []
        for op, k, rowid in ops:
            key = (k,)
            if op == "insert":
                index.insert(key, rowid)
                model.setdefault(key, set()).add(rowid)
            else:
                index.remove(key, rowid)
                model.get(key, set()).discard(rowid)
                if not model.get(key, True):
                    del model[key]
            snapshot = index.lookup(key)
            assert type(snapshot) is frozenset
            taken.append((snapshot, frozenset(model.get(key, ()))))
            for probe in range(4):
                held = model.get((probe,), set())
                assert index.lookup((probe,)) == held
                assert index.count((probe,)) == len(held)
            assert len(index) == sum(map(len, model.values()))
            assert index.distinct_keys() == len(model)
            assert set(index.keys()) == set(model)
        # No snapshot handed out earlier moved with a later mutation.
        assert all(snapshot == then for snapshot, then in taken)


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
