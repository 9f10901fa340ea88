"""Incrementally-maintained table statistics for the cost-based planner.

Every index keeps O(1) counters (total entries, distinct keys) current
on each mutation, so a statistics snapshot costs O(number of indexes)
and never scans rows.  The planner turns the same counters into
selectivity estimates: a hash index with ``entries`` rows spread over
``distinct_keys`` keys is expected to return ``entries / distinct_keys``
rows per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rdb.table import Table

__all__ = ["IndexStatistics", "TableStatistics", "collect_statistics"]


@dataclass(frozen=True, slots=True)
class IndexStatistics:
    """Counters for one index, all maintained incrementally."""

    name: str
    kind: str  # "hash" or "sorted"
    columns: tuple[str, ...]
    entries: int
    distinct_keys: int

    @property
    def rows_per_key(self) -> float:
        """Expected rows returned by an equality probe of this index."""
        if self.distinct_keys == 0:
            return 0.0
        return self.entries / self.distinct_keys


@dataclass(frozen=True, slots=True)
class TableStatistics:
    """One table's planner-visible statistics snapshot."""

    table: str
    row_count: int
    indexes: tuple[IndexStatistics, ...]

    def index(self, name: str) -> IndexStatistics | None:
        for stats in self.indexes:
            if stats.name == name:
                return stats
        return None


def collect_statistics(table: "Table") -> TableStatistics:
    """Snapshot ``table``'s statistics (O(number of indexes)).

    What ``Database.statistics()`` / ``Table.statistics()`` return.  The
    planner does not build one per statement: it reads ``len(table)``
    and the counters of the one index it is costing.
    """
    hash_stats = (
        IndexStatistics(
            name=index.name,
            kind="hash",
            columns=index.columns,
            entries=len(index),
            distinct_keys=index.distinct_keys(),
        )
        for index in table.indexes.hash_indexes
    )
    sorted_stats = (
        IndexStatistics(
            name=index.name,
            kind="sorted",
            columns=(index.column,),
            entries=len(index),
            distinct_keys=index.distinct_keys(),
        )
        for index in table.indexes.sorted_indexes
    )
    return TableStatistics(
        table=table.schema.name,
        row_count=len(table),
        indexes=(*hash_stats, *sorted_stats),
    )
