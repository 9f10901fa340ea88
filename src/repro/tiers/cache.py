"""Version-stamped result cache for the class administrator.

The middle tier re-executes the same selects on every browser request
(rosters, transcripts, course lookups) — the repeated-read pattern the
BTeV web document database and the cellular content-management design
solve with server-side caching in front of the DBMS.  This module adds
that tier:

* :class:`TableVersions` reads the **version counter every table
  keeps** (:attr:`repro.rdb.table.Table.version`).  The table bumps it
  wherever rows change — DML, rollback and savepoint undo, journal
  replay, replicated apply, snapshot load — so nothing here has to be
  told about a write, and a dropped-and-re-created table resumes past
  its old number.
* :class:`QueryCache` is **one LRU store** whose entries carry the
  ``{table: version}`` stamps they were computed at.  A lookup names
  the version lag it tolerates.  ``read_through`` looks up with lag 0
  (any change to a stamped table since the entry was stored is a miss,
  and the fresh value replaces the dead entry in its slot) and hands
  out a copy; ``select`` is that read-through keyed by query shape, and
  the server keys it by request, storing its finished ``transcript``
  and ``roster`` replies.  The server's degraded-mode ledger looks the
  same kind of store up with a small positive lag while it sheds load.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Sequence

from repro.obs.instrument import OBS, Instrument
from repro.rdb import Database, Expr, predicate_cache_key

__all__ = ["TableVersions", "QueryCache", "copy_reply"]

LOOKUPS = Instrument(
    "counter", "tiers.cache", "outcome", values=("hit", "miss", "bypass")
)


def copy_reply(value: Any) -> Any:
    """A copy of a stored value at the depth an uncached select gives.

    A stored list holds row dicts or scalars, never both (select rows,
    transcripts, rosters of names): a list of dicts copies as a fresh
    list of fresh dicts, any other list as a fresh list.  Anything else
    is returned as it is.
    """
    if type(value) is not list:
        return value
    if value and type(value[0]) is dict:
        return [dict(row) for row in value]
    return value.copy()


class TableVersions:
    """The per-table version counters of one attached database."""

    def __init__(self) -> None:
        self._db: Database | None = None

    def attach(self, db: Database) -> None:
        """Read versions from ``db`` (every table, present and future)."""
        self._db = db

    def version(self, table: str) -> int:
        """Current version of ``table``; unknown tables raise as in
        ``db.select``."""
        if self._db is None:
            raise RuntimeError("TableVersions.attach(db) was never called")
        return self._db.table(table).version


class QueryCache:
    """LRU store of values stamped with the table versions they saw.

    ``record``/``lookup`` are the store; ``read_through`` is the one
    read path over it, and ``select`` keys it with the same contract as
    ``db.select``.  What a read-through hands out is always a copy
    (:func:`copy_reply`), on a miss as on a hit, so callers mutating a
    result can never poison the store.  Predicates embedding opaque
    callables cannot be keyed and bypass the store entirely.
    """

    def __init__(self, versions: TableVersions, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("cache needs room for at least one entry")
        self.versions = versions
        self.max_entries = max_entries
        #: key -> (value, {table: version at record time})
        self._entries: OrderedDict[
            tuple, tuple[Any, dict[str, int]]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.too_stale = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, key: tuple, tables: Sequence[str], value: Any) -> None:
        """Store ``value``, derived from ``tables`` as they are now."""
        version = self.versions.version
        stamps = {table: version(table) for table in tables}
        self._entries[key] = (value, stamps)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def lookup(self, key: tuple, max_lag: int) -> tuple[bool, Any]:
        """``(hit, value)`` — a hit only while no stamped table has
        moved more than ``max_lag`` versions past its stamp."""
        hit, value = self._probe(key, max_lag)
        self._count(hit)
        return hit, value

    def _probe(self, key: tuple, max_lag: int) -> tuple[bool, Any]:
        """``lookup`` without counting the outcome."""
        entry = self._entries.get(key)
        if entry is None:
            return False, None
        value, stamps = entry
        version = self.versions.version
        for table, recorded in stamps.items():
            if version(table) - recorded > max_lag:
                # Evict: nobody should serve this, now or later.
                del self._entries[key]
                self.too_stale += 1
                return False, None
        self._entries.move_to_end(key)
        return True, value

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def select(
        self,
        db: Database,
        table: str,
        where: Expr | None = None,
        order_by: str | Sequence[str] | None = None,
        descending: bool = False,
        limit: int | None = None,
        offset: int = 0,
        columns: Sequence[str] | None = None,
        distinct: bool = False,
    ) -> list[dict[str, Any]]:
        """Read-through select with the same contract as ``db.select``."""
        predicate = predicate_cache_key(where)
        if predicate is None:
            self.bypasses += 1
            if OBS.enabled:
                LOOKUPS["bypass"].inc()
            return db.select(
                table, where=where, order_by=order_by, descending=descending,
                limit=limit, offset=offset, columns=columns, distinct=distinct,
            )
        order = (order_by,) if isinstance(order_by, str) else (
            tuple(order_by) if order_by is not None else None
        )
        projection = tuple(columns) if columns is not None else None
        key = (
            table, predicate, projection, order, descending,
            limit, offset, distinct,
        )
        return self.read_through(key, (table,), lambda: db.select(
            table, where=where, order_by=order_by, descending=descending,
            limit=limit, offset=offset, columns=columns, distinct=distinct,
        ))

    def read_through(
        self, key: tuple, tables: Sequence[str], compute: Callable[[], Any]
    ) -> Any:
        """A copy of the value under ``key`` while none of ``tables`` has
        changed since it was stored; else of ``compute()``'s, stored in
        its place.  When ``compute`` raises (a refused read), nothing is
        stored and the lookup is not counted."""
        hit, value = self._probe(key, 0)
        if not hit:
            value = compute()
            self.record(key, tables, value)
        self._count(hit)
        if OBS.enabled:
            LOOKUPS["hit" if hit else "miss"].inc()
        return copy_reply(value)

    def stats(self) -> dict[str, int]:
        """Lookup outcome counters and current residency."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "too_stale": self.too_stale,
            "entries": len(self._entries),
        }
