"""Reference implementations the batched executor is judged against.

``repro.rdb`` has one executor; what it must agree with lives here, in
the tests, not behind a switch in ``src/``.  The naive scan oracle is a
one-liner over ``Expr.eval`` and is written inline where it is used;
the hash join below is the seed (pre-vectorization) ``join_rows``,
moved here verbatim in PR 13.  ``bench_e19`` times the vectorized join
against this same function.  ``_reference_aggregate`` is ``aggregate``
as it stood before PR 19 gave the one-column GROUP BY its own bucketing
loop (a key tuple built by a generator for every row), and
``_reference_range`` the per-rowid generator ``SortedIndex.range`` was
before it became one ``chain`` over the covered keys — both verbatim.
``_reference_order`` is ORDER BY [+ LIMIT/OFFSET] as a full stable sort
on the ``(is-not-None, value)`` key, sliced afterwards — the key function
verbatim from ``execute_select`` before PR 20 taught it to stop an
ordered index walk early and to sort on bare values.
``_reference_matching_rowids`` is ``Database._matching_rowids`` — what
``update``/``delete(where=…)`` selected their targets with before PR 23
handed that to the planner: a copy of the heap and the predicate called
per row — with ``Expr.eval`` for the compiled closure and the result in
ascending row-id order, the visiting order PR 23 fixed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.rdb.index import SortedIndex
from repro.rdb.predicate import Expr
from repro.rdb.table import Table


def _reference_join(
    left_rows: Iterable[dict[str, Any]],
    right_rows: Iterable[dict[str, Any]],
    on: Sequence[tuple[str, str]],
    *,
    left_prefix: str = "l",
    right_prefix: str = "r",
    kind: str = "inner",
) -> list[dict[str, Any]]:
    right_list = list(right_rows)
    buckets: dict[tuple, list[dict[str, Any]]] = {}
    for row in right_list:
        key = tuple(row[rc] for _lc, rc in on)
        buckets.setdefault(key, []).append(row)
    right_columns: set[str] = set()
    for row in right_list:
        right_columns.update(row)
    out: list[dict[str, Any]] = []
    for left in left_rows:
        key = tuple(left[lc] for lc, _rc in on)
        matches = buckets.get(key, []) if None not in key else []
        if matches:
            for right in matches:
                merged = {f"{left_prefix}.{k}": v for k, v in left.items()}
                merged.update({f"{right_prefix}.{k}": v for k, v in right.items()})
                out.append(merged)
        elif kind == "left":
            merged = {f"{left_prefix}.{k}": v for k, v in left.items()}
            merged.update({f"{right_prefix}.{k}": None for k in right_columns})
            out.append(merged)
    return out


_AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": lambda values: sum(values) if values else 0,
    "avg": lambda values: (sum(values) / len(values)) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


def _reference_aggregate(
    rows: Iterable[dict[str, Any]],
    spec: dict[str, tuple[str, str | None]],
    group_by: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    for out_name, (fn_name, _column) in spec.items():
        if fn_name not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {fn_name!r} for {out_name!r}")
    groups: dict[tuple, list[dict[str, Any]]] = {}
    group_cols = tuple(group_by) if group_by else ()
    for row in rows:
        key = tuple(row[c] for c in group_cols)
        groups.setdefault(key, []).append(row)
    if not groups and not group_cols:
        groups[()] = []
    out: list[dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: tuple((v is not None, v) for v in k)):
        bucket = groups[key]
        result: dict[str, Any] = dict(zip(group_cols, key))
        for out_name, (fn_name, column) in spec.items():
            if column is None:
                values: list[Any] = bucket
            else:
                values = [row[column] for row in bucket if row[column] is not None]
            result[out_name] = _AGGREGATES[fn_name](values)
        out.append(result)
    return out


def _reference_range(
    index: SortedIndex,
    low: Any = None,
    high: Any = None,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> Iterator[int]:
    start, stop = index._bounds(low, high, include_low, include_high)
    for pos in range(start, stop):
        yield from index._rowids[pos]


def _reference_order(
    rows: Iterable[dict[str, Any]],
    order_by: Sequence[str],
    descending: bool = False,
    limit: int | None = None,
    offset: int = 0,
) -> list[dict[str, Any]]:
    keys = tuple(order_by)

    def sort_key(r: dict[str, Any]) -> tuple:
        return tuple((r[k] is not None, r[k]) for k in keys)

    ordered = sorted(rows, key=sort_key, reverse=descending)
    return ordered[offset:] if limit is None else ordered[offset:offset + limit]


def _reference_matching_rowids(table: Table, where: Expr | None) -> list[int]:
    items = list(table.items())
    if where is None:
        return sorted(rowid for rowid, _row in items)
    return sorted(rowid for rowid, row in items if where.eval(row))
