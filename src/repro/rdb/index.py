"""Secondary indexes: hash (equality) and sorted (range).

Indexes map a key tuple (values of the indexed columns) to the set of
row ids holding that key.  The table maintains them on every mutation;
the query planner consults them through :class:`IndexSet`.

Both index kinds keep two O(1) statistics counters up to date on every
mutation — total entries and distinct keys — so the cost-based planner
(:mod:`repro.rdb.query`) can estimate selectivity without touching the
data.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain
from typing import Any, Iterable, Iterator

from repro.rdb.types import key_getter

__all__ = ["HashIndex", "SortedIndex", "IndexSet"]

_EMPTY: frozenset[int] = frozenset()


class HashIndex:
    """Equality index: key tuple -> set of row ids.

    ``None`` components are allowed in keys (SQL would exclude them from
    unique enforcement; uniqueness is handled by the constraint layer,
    not here, so the index simply stores what it is given).

    A key with one row id — every primary and unique key — holds that
    id bare; the ``set`` (216 bytes before its first member) exists only
    from a key's second id and goes again when it is back to one.
    ``key_of(row)`` is the key tuple a row files under.
    """

    __slots__ = ("name", "columns", "key_of", "_map", "_entries")

    def __init__(self, name: str, columns: tuple[str, ...]) -> None:
        if not columns:
            raise ValueError("an index needs at least one column")
        self.name = name
        self.columns = columns
        self.key_of = key_getter(columns)
        self._map: dict[tuple, int | set[int]] = {}
        self._entries = 0

    def insert(self, key: tuple, rowid: int) -> None:
        held = self._map.get(key)
        if held is None:
            self._map[key] = rowid
        elif type(held) is set:
            if rowid in held:
                return
            held.add(rowid)
        elif held == rowid:
            return
        else:
            self._map[key] = {held, rowid}
        self._entries += 1

    def remove(self, key: tuple, rowid: int) -> None:
        held = self._map.get(key)
        if type(held) is set:
            if rowid not in held:
                return
            held.discard(rowid)
            if len(held) == 1:
                self._map[key] = held.pop()
        elif held == rowid:  # never None: row ids are ints
            del self._map[key]
        else:
            return
        self._entries -= 1

    def lookup(self, key: tuple) -> frozenset[int]:
        """Row ids holding ``key`` as an immutable snapshot: a frozenset
        built per probe, so it can never alias later mutations."""
        held = self._map.get(key)
        if held is None:
            return _EMPTY
        return frozenset(held if type(held) is set else (held,))

    def count(self, key: tuple) -> int:
        held = self._map.get(key)
        if held is None:
            return 0
        return len(held) if type(held) is set else 1

    def any_rowid(self, key: tuple) -> int | None:
        """One row id holding ``key`` (*the* one under a primary or
        unique key), or None — no snapshot is built."""
        held = self._map.get(key)
        return next(iter(held)) if type(held) is set else held

    def keys(self) -> Iterator[tuple]:
        return iter(self._map)

    def distinct_keys(self) -> int:
        """Number of distinct key tuples currently stored (O(1))."""
        return len(self._map)

    def __len__(self) -> int:
        return self._entries


class SortedIndex:
    """Range index over a single column, ``None`` keys excluded.

    Implemented as parallel sorted lists (keys / rowid lists) maintained
    with :mod:`bisect` — O(log n) lookup, O(n) worst-case insert, which is
    fine at the table sizes the document database reaches and keeps the
    implementation transparent.
    """

    __slots__ = ("name", "column", "_keys", "_rowids", "_entries")

    def __init__(self, name: str, column: str) -> None:
        self.name = name
        self.column = column
        self._keys: list[Any] = []
        self._rowids: list[set[int]] = []
        self._entries = 0

    def insert(self, key: Any, rowid: int) -> None:
        if key is None:
            return
        pos = bisect.bisect_left(self._keys, key)
        if pos < len(self._keys) and self._keys[pos] == key:
            if rowid not in self._rowids[pos]:
                self._rowids[pos].add(rowid)
                self._entries += 1
        else:
            self._keys.insert(pos, key)
            self._rowids.insert(pos, {rowid})
            self._entries += 1

    def remove(self, key: Any, rowid: int) -> None:
        if key is None:
            return
        pos = bisect.bisect_left(self._keys, key)
        if pos >= len(self._keys) or self._keys[pos] != key:
            return
        if rowid in self._rowids[pos]:
            self._rowids[pos].discard(rowid)
            self._entries -= 1
        if not self._rowids[pos]:
            del self._keys[pos]
            del self._rowids[pos]

    def bulk_load(self, items: Iterable[tuple[Any, int]]) -> None:
        """Insert many (key, rowid) pairs in one sorted rebuild.

        Per-pair :meth:`insert` pays an O(n) list shift per new key;
        bulk load buckets the pairs in a dict, merges the existing
        parallel lists in, and rebuilds with one sort — O((n+m) log
        (n+m)) total.  ``None`` keys are excluded as on insert.
        """
        pending: dict[Any, set[int]] = {}
        for key, rowid in items:
            if key is None:
                continue
            pending.setdefault(key, set()).add(rowid)
        if not pending:
            return
        for key, rowids in zip(self._keys, self._rowids):
            existing = pending.get(key)
            if existing is None:
                pending[key] = rowids
            else:
                existing.update(rowids)
        keys = sorted(pending)
        self._keys = keys
        self._rowids = [pending[key] for key in keys]
        self._entries = sum(len(rowids) for rowids in self._rowids)

    def _bounds(
        self, low: Any, high: Any, include_low: bool, include_high: bool
    ) -> tuple[int, int]:
        """Key-list positions [start, stop) covered by the range."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif include_high:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return start, stop

    def range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Row ids whose key falls in [low, high] (bounds optional), in
        key order — one C-level chain over the covered keys' row-id
        sets, not a generator resumed per row."""
        start, stop = self._bounds(low, high, include_low, include_high)
        return chain.from_iterable(self._rowids[start:stop])

    def range_steps(
        self, low: Any = None, high: Any = None, *, include_low: bool = True,
        include_high: bool = True, step: int, reverse: bool = False,
    ) -> Iterator[Iterator[int]]:
        """:meth:`range`, a run of whole keys at a time — ``step`` keys,
        then twice as many each time — from the low end (the high end
        when ``reverse``).  Inside a run the ids come in :meth:`range`
        order either way, so the runs pulled so far are a prefix (laid
        end to end backwards, a suffix) of what :meth:`range` yields."""
        start, stop = self._bounds(low, high, include_low, include_high)
        while start < stop:
            if reverse:
                cut = max(start, stop - step)
                yield chain.from_iterable(self._rowids[cut:stop])
                stop = cut
            else:
                cut = min(stop, start + step)
                yield chain.from_iterable(self._rowids[start:cut])
                start = cut
            step *= 2

    def estimate_range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> int:
        """Estimated row count in the range, from distinct-key positions.

        O(log n): assumes entries are spread evenly across distinct keys
        (``entries / distinct_keys`` rows per key).
        """
        start, stop = self._bounds(low, high, include_low, include_high)
        span = max(0, stop - start)
        if span == 0 or not self._keys:
            return 0
        return math.ceil(span * self._entries / len(self._keys))

    def min_key(self) -> Any:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Any:
        return self._keys[-1] if self._keys else None

    def distinct_keys(self) -> int:
        """Number of distinct keys currently stored (O(1))."""
        return len(self._keys)

    def __len__(self) -> int:
        return self._entries


class IndexSet:
    """All secondary indexes of one table, keyed by index name."""

    def __init__(self) -> None:
        self._hash: dict[str, HashIndex] = {}
        self._sorted: dict[str, SortedIndex] = {}
        #: column tuple -> the first hash index registered on exactly it
        self._by_columns: dict[tuple[str, ...], HashIndex] = {}

    # -- registration ------------------------------------------------------
    def add_hash(self, index: HashIndex) -> None:
        if index.name in self._hash or index.name in self._sorted:
            raise ValueError(f"duplicate index name {index.name!r}")
        self._hash[index.name] = index
        self._by_columns.setdefault(index.columns, index)

    def add_sorted(self, index: SortedIndex) -> None:
        if index.name in self._hash or index.name in self._sorted:
            raise ValueError(f"duplicate index name {index.name!r}")
        self._sorted[index.name] = index

    @property
    def hash_indexes(self) -> Iterable[HashIndex]:
        return self._hash.values()

    @property
    def sorted_indexes(self) -> Iterable[SortedIndex]:
        return self._sorted.values()

    def hash_index_on(self, columns: tuple[str, ...]) -> HashIndex | None:
        """Find a hash index whose column tuple is exactly ``columns``."""
        return self._by_columns.get(columns)

    def candidate_hash_indexes(
        self, bound_columns: frozenset[str]
    ) -> list[HashIndex]:
        """Every hash index fully covered by the equality bindings."""
        return [
            index
            for index in self._hash.values()
            if bound_columns.issuperset(index.columns)
        ]

    def sorted_index_on(self, column: str) -> SortedIndex | None:
        for index in self._sorted.values():
            if index.column == column:
                return index
        return None

    # -- maintenance ---------------------------------------------------------
    def insert_row(self, row: dict[str, Any], rowid: int) -> None:
        for index in self._hash.values():
            index.insert(index.key_of(row), rowid)
        for index in self._sorted.values():
            index.insert(row[index.column], rowid)

    def insert_rows(
        self, pairs: Iterable[tuple[dict[str, Any], int]]
    ) -> None:
        """Index many (row, rowid) pairs with per-index batched loops.

        The bulk twin of :meth:`insert_row`: lookups are hoisted out of
        the row loop and sorted indexes take one :meth:`SortedIndex.
        bulk_load` rebuild instead of a bisect-insert per row.
        """
        pairs = list(pairs)
        for index in self._hash.values():
            key_of, insert = index.key_of, index.insert
            for row, rowid in pairs:
                insert(key_of(row), rowid)
        for index in self._sorted.values():
            column = index.column
            index.bulk_load((row[column], rowid) for row, rowid in pairs)

    def remove_row(self, row: dict[str, Any], rowid: int) -> None:
        for index in self._hash.values():
            index.remove(index.key_of(row), rowid)
        for index in self._sorted.values():
            index.remove(row[index.column], rowid)
