"""Shard maps: which shard owns which rows, and shard pruning.

A :class:`ShardMap` assigns every row of every registered table to one
of ``num_shards`` shards by its **shard key** (one or more columns):

* ``hash`` — a *stable* CRC-32 over the canonically JSON-encoded key
  (never Python's builtin ``hash``, which is salted per process), so
  the placement of a row is identical across runs, processes and
  recoveries;
* ``range`` — a sorted list of ``num_shards - 1`` upper-exclusive
  split points over a single key column; shard *i* owns keys below
  ``bounds[i]``, the last shard owns the rest.

Pruning turns a WHERE expression into the minimal set of shards that
can hold matching rows: equality bindings covering the full shard key
pin a single shard; range predicates on a range-partitioned key pin a
contiguous shard span; anything else fans out to all shards.  Related
tables sharded by the same key column(s) are **co-located**: a child
row always lands on its parent's shard, which is what lets the query
tier push FK joins down to each shard.
"""

from __future__ import annotations

import bisect
import json
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.rdb.predicate import Expr, conjunct_bindings
from repro.rdb.wal import encode_value

__all__ = ["TableSharding", "ShardMap", "stable_shard_hash"]


def stable_shard_hash(key: tuple[Any, ...]) -> int:
    """Deterministic 32-bit hash of a shard-key tuple.

    CRC-32 over the canonical JSON encoding (the WAL value codec keeps
    datetimes/bytes stable too), so hash placement survives process
    restarts and ``PYTHONHASHSEED`` changes — a row must recover onto
    the shard that journaled it.
    """
    canon = json.dumps(
        [encode_value(v) for v in key],
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return zlib.crc32(canon)


@dataclass(frozen=True, slots=True)
class TableSharding:
    """How one table is partitioned."""

    key: tuple[str, ...]
    strategy: str = "hash"  # "hash" | "range"
    #: upper-exclusive split points (range strategy only), sorted
    bounds: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in ("hash", "range"):
            raise ValueError(f"unknown shard strategy {self.strategy!r}")
        if not self.key:
            raise ValueError("shard key needs at least one column")
        if self.strategy == "range":
            if len(self.key) != 1:
                raise ValueError("range sharding needs a single key column")
            if list(self.bounds) != sorted(self.bounds):
                raise ValueError("range split points must be sorted")

    def describe(self) -> str:
        cols = ",".join(self.key)
        if self.strategy == "range":
            return f"range({cols})"
        return f"hash({cols})"


class ShardMap:
    """The catalog entry mapping tables to shards."""

    def __init__(
        self,
        num_shards: int,
        tables: Mapping[str, TableSharding],
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        for name, sharding in tables.items():
            if sharding.strategy == "range" and \
                    len(sharding.bounds) != num_shards - 1:
                raise ValueError(
                    f"{name}: range sharding over {num_shards} shards "
                    f"needs {num_shards - 1} split points, "
                    f"got {len(sharding.bounds)}"
                )
        self.num_shards = num_shards
        self.tables = dict(tables)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def sharding(self, table: str) -> TableSharding:
        try:
            return self.tables[table]
        except KeyError:
            raise LookupError(f"table {table!r} is not in the shard map") \
                from None

    def shard_for_key(self, table: str, key: tuple[Any, ...]) -> int:
        """The shard owning shard-key value ``key``."""
        sharding = self.sharding(table)
        if len(key) != len(sharding.key):
            raise ValueError(
                f"{table}: shard key has {len(sharding.key)} columns, "
                f"got {len(key)} values"
            )
        if sharding.strategy == "range":
            return bisect.bisect_right(sharding.bounds, key[0])
        return stable_shard_hash(key) % self.num_shards

    def shard_for_row(self, table: str, row: Mapping[str, Any]) -> int:
        """The shard owning ``row`` (all key columns must be present)."""
        sharding = self.sharding(table)
        try:
            key = tuple(row[c] for c in sharding.key)
        except KeyError as missing:
            raise ValueError(
                f"{table}: row is missing shard key column {missing}"
            ) from None
        return self.shard_for_key(table, key)

    def all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.num_shards))

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def shards_for_where(
        self, table: str, where: Expr | None
    ) -> tuple[int, ...]:
        """Minimal shard set that can hold rows matching ``where``.

        Sound over-approximation: pruning only narrows when the
        predicate *provably* pins the shard key — full-key equality
        (either strategy) or a bounded range on a range-partitioned
        key.  Everything else returns all shards.
        """
        sharding = self.sharding(table)
        if where is None:
            return self.all_shards()
        bindings, _memberships, bounds = conjunct_bindings(where)
        if all(c in bindings for c in sharding.key):
            key = tuple(bindings[c] for c in sharding.key)
            return (self.shard_for_key(table, key),)
        if sharding.strategy == "range":
            bound = bounds.get(sharding.key[0])
            if bound is not None:
                lo = 0 if bound.low is None else \
                    bisect.bisect_right(sharding.bounds, bound.low)
                if bound.high is None:
                    hi = self.num_shards - 1
                elif bound.include_high:
                    hi = bisect.bisect_right(sharding.bounds, bound.high)
                else:
                    # Exclusive high: keys stop just below it, so a high
                    # that IS a split point stays left of the split.
                    hi = bisect.bisect_left(sharding.bounds, bound.high)
                return tuple(range(lo, hi + 1))
        return self.all_shards()

    def group_rows(
        self, table: str, rows: Iterable[Mapping[str, Any]]
    ) -> dict[int, list[dict[str, Any]]]:
        """Partition ``rows`` by owning shard (insert_many routing)."""
        groups: dict[int, list[dict[str, Any]]] = {}
        for row in rows:
            groups.setdefault(
                self.shard_for_row(table, row), []
            ).append(dict(row))
        return groups

    def colocated(self, left: str, right: str) -> bool:
        """True when two tables shard identically on the same columns,
        so equal keys are guaranteed to live on the same shard."""
        a, b = self.sharding(left), self.sharding(right)
        return (a.key == b.key and a.strategy == b.strategy
                and a.bounds == b.bounds)

    # ------------------------------------------------------------------
    # Catalog serialization / EXPLAIN
    # ------------------------------------------------------------------
    def describe(self, table: str) -> str:
        """One-line placement summary (surfaces in EXPLAIN)."""
        return f"{self.sharding(table).describe()}%{self.num_shards}"
