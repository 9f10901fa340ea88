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
  the version lag it tolerates: ``select`` reads through with lag 0
  (any change to the table since the entry was stored is a miss, and
  the fresh result replaces the dead entry in its slot), and the
  server's degraded-mode ledger looks the same kind of store up with a
  small positive lag while it sheds load.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

from repro.obs.instrument import OBS
from repro.rdb import Database, Expr, predicate_cache_key

__all__ = ["TableVersions", "QueryCache"]


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

    ``record``/``lookup`` are the store; ``select`` is the read-through
    over it with the same contract as ``db.select``.  Hits return
    copies of the stored rows (the same copy depth an uncached select
    provides), so callers mutating result rows can never poison the
    cache.  Predicates embedding opaque callables cannot be keyed and
    bypass the cache entirely.
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
        self._obs_cache: dict[str, Any] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def _obs(self) -> dict[str, Any]:
        registry = OBS.registry
        cache = self._obs_cache
        if cache is None or cache["registry"] is not registry:
            assert registry is not None
            cache = self._obs_cache = {
                "registry": registry,
                "hit": registry.counter("tiers.cache", outcome="hit"),
                "miss": registry.counter("tiers.cache", outcome="miss"),
                "bypass": registry.counter("tiers.cache", outcome="bypass"),
            }
        return cache

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
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        value, stamps = entry
        version = self.versions.version
        for table, recorded in stamps.items():
            if version(table) - recorded > max_lag:
                # Evict: nobody should serve this, now or later.
                del self._entries[key]
                self.too_stale += 1
                self.misses += 1
                return False, None
        self.hits += 1
        self._entries.move_to_end(key)
        return True, value

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
                self._obs()["bypass"].inc()
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
        hit, cached = self.lookup(key, 0)
        if OBS.enabled:
            self._obs()["hit" if hit else "miss"].inc()
        if hit:
            return [dict(row) for row in cached]
        rows = db.select(
            table, where=where, order_by=order_by, descending=descending,
            limit=limit, offset=offset, columns=columns, distinct=distinct,
        )
        self.record(key, (table,), rows)
        return [dict(row) for row in rows]

    def stats(self) -> dict[str, int]:
        """Lookup outcome counters and current residency."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "too_stale": self.too_stale,
            "entries": len(self._entries),
        }
