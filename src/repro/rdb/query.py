"""Query execution: cost-based access-path selection, joins, aggregates.

The planner is cost-based over incrementally-maintained statistics
(:mod:`repro.rdb.stats`).  For a WHERE clause it costs every access
path whose preconditions hold, in heap-scan rows, and picks the
cheapest:

* **hash probe** — a hash index fully covered by top-level equality
  conjuncts; expected rows = ``entries / distinct_keys`` (selectivity),
  so among several candidate indexes the most selective wins;
* **IN-list probe** — a top-level ``column.isin(values)`` conjunct over
  a column with a single-column hash index chains one probe per member;
  expected rows = the exact sum of the members' counts;
* **sorted-range pushdown** — a top-level comparison conjunct (``<``,
  ``<=``, ``>``, ``>=``, or a BETWEEN-shaped pair) over a column with a
  sorted index probes :meth:`SortedIndex.range` instead of the heap;
* **heap scan** — always available, cost = row count; candidates are
  yielded lazily so a LIMIT-bounded select stops early.

A candidate row reached through an index is costed at
:data:`_INDEX_ROW_COST` heap rows — what the row-id hop measures — so a
probe or range covering more than about a quarter of the table reads
the heap sequentially instead.  The residual WHERE filter is always
re-applied, so any access path yielding a superset of matching rows is
correct.  ORDER BY + LIMIT selects through a bounded heap
(:func:`heapq.nsmallest`/``nlargest``) instead of a full sort.

Execution is **compiled and batched** (:mod:`repro.rdb.compile`): the
WHERE tree is lowered to one generated filter function, compiled once
per statement *shape* and handed each statement's literals.  A consumer
that reads every candidate anyway takes them as one batch — the heap
snapshot, or one bulk :meth:`Table.get_many` of the index's row ids; a
LIMIT without ORDER BY pulls batches of
:data:`~repro.rdb.compile.DEFAULT_BATCH` and stops early.  Observability
tallies per batch, not per row.  There is no second executor: the naive
``Expr.eval`` scan and the reference hash join the batched pipeline is
judged against live in ``tests/rdb/``, not here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.obs.instrument import OBS
from repro.rdb.compile import DEFAULT_BATCH, batch_filter
from repro.rdb.errors import UnknownColumnError
from repro.rdb.predicate import Expr, conjunct_bindings
from repro.rdb.stats import TableStatistics
from repro.rdb.table import Table

__all__ = [
    "SelectPlan",
    "check_limit_offset",
    "execute_select",
    "join_rows",
    "aggregate",
    "aggregate_table",
    "matching_view",
]


@dataclass(frozen=True, slots=True)
class SelectPlan:
    """How a select will run — exposed for tests and EXPLAIN-style output.

    ``access_path`` is ``"index:<name>"`` (hash probe, IN-list probe or
    sorted-range pushdown) or ``"scan"``.  ``estimated_cost`` is the
    planner's row estimate for the chosen path in heap-scan rows (an
    index candidate weighs ``_INDEX_ROW_COST`` of them);
    ``chosen_conjuncts`` are the WHERE conjuncts the path consumed;
    ``pushdown`` describes a range pushed into a sorted index (``None``
    otherwise).
    """

    table: str
    access_path: str
    estimated_candidates: int
    estimated_cost: float = 0.0
    chosen_conjuncts: tuple[str, ...] = ()
    pushdown: str | None = None

    def describe(self) -> str:
        """One-line EXPLAIN rendering."""
        parts = [
            f"{self.table}: {self.access_path} "
            f"(~{self.estimated_candidates} rows, cost {self.estimated_cost:g})"
        ]
        if self.chosen_conjuncts:
            parts.append("using " + " AND ".join(self.chosen_conjuncts))
        if self.pushdown:
            parts.append(f"pushdown {self.pushdown}")
        return " ".join(parts)


#: What one candidate row reached through an index costs, in heap-scan
#: rows: the scan filters one sequential snapshot, an index path pays a
#: row-id hop per candidate and hands the filter rows scattered across
#: the heap.  Measured on the E22 corpus (bulk fetch + fused filter per
#: candidate vs fused filter per heap row; DESIGN §6) for ranges of a
#: quarter to half of the table, where the choice is close: 112-145 vs
#: 37-52 ns at 1,000 rows, 114-166 vs 41 at 10,000, 182-218 vs 42-46 at
#: 40,000 (2.3-4.7x); 2.0-3.7x for 5 % ranges and IN-list probes.
_INDEX_ROW_COST = 4.0


@dataclass(slots=True)
class _Candidate:
    """One costed access path under consideration."""

    cost: float
    access_path: str
    rowids: Callable[[], Iterable[int]]
    estimated: int
    conjuncts: tuple[str, ...] = ()
    pushdown: str | None = None


def plan_select(
    table: Table, where: Expr | None
) -> tuple[SelectPlan, Iterable[int]]:
    """Choose the cheapest access path; returns (plan, candidate rowids).

    Candidate row ids are produced lazily (index probes return their
    snapshot, scans yield from the heap), so callers that stop early —
    LIMIT without ORDER BY — never touch the rest of the table.
    """
    stats = table.statistics()
    row_count = stats.row_count
    best = _Candidate(
        cost=float(row_count),
        access_path="scan",
        rowids=lambda: (rowid for rowid, _ in table.items()),
        estimated=row_count,
    )
    if where is not None:
        for candidate in _index_candidates(table, where, stats):
            # Strictly cheaper wins; on a tie an index path beats the
            # scan (it can't be worse, and EXPLAIN output stays stable
            # for tiny tables).
            if candidate.cost < best.cost or (
                candidate.cost == best.cost and best.access_path == "scan"
            ):
                best = candidate
    plan = SelectPlan(
        table=table.schema.name,
        access_path=best.access_path,
        estimated_candidates=best.estimated,
        estimated_cost=best.cost,
        chosen_conjuncts=best.conjuncts,
        pushdown=best.pushdown,
    )
    return plan, best.rowids()


def _index_candidates(
    table: Table, where: Expr, stats: "TableStatistics"
) -> Iterator[_Candidate]:
    """Cost every index-backed access path the WHERE clause enables."""
    row_count = stats.row_count
    bindings, memberships, bounds = conjunct_bindings(where)
    if bindings:
        bound = frozenset(bindings)
        for index in table.indexes.candidate_hash_indexes(bound):
            key = tuple(bindings[c] for c in index.columns)
            index_stats = stats.index(index.name)
            expected = index_stats.rows_per_key if index_stats else row_count
            # Exact probe counts are O(1), so sharpen the estimate; the
            # selectivity figure still breaks ties among candidates that
            # happen to probe equally (and is what EXPLAIN reports when
            # the probe is empty).
            try:
                exact = index.count(key)
            except TypeError:
                continue  # unhashable literal: no row can equal it here
            yield _Candidate(
                cost=(
                    min(expected, row_count) * _INDEX_ROW_COST if exact else 0.0
                ),
                access_path=f"index:{index.name}",
                rowids=lambda index=index, key=key: index.lookup(key),
                estimated=exact,
                conjuncts=tuple(
                    f"{c} == {bindings[c]!r}" for c in index.columns
                ),
            )
    for column, values in memberships:
        index = table.indexes.hash_index_on((column,))
        if index is None:
            continue
        try:
            members = sorted(values)  # one candidate order on every run
        except TypeError:
            continue  # mixed-type members: leave it to another path
        # A row holds one value per column, so the probes are disjoint.
        estimated = sum(index.count((member,)) for member in members)
        yield _Candidate(
            cost=estimated * _INDEX_ROW_COST,
            access_path=f"index:{index.name}",
            rowids=lambda index=index, members=members: chain.from_iterable(
                index.lookup((member,)) for member in members
            ),
            estimated=estimated,
            conjuncts=(f"{column} in {members!r}",),
        )
    for column, bound_spec in bounds.items():
        index = table.indexes.sorted_index_on(column)
        if index is None:
            continue
        estimated = index.estimate_range(
            bound_spec.low,
            bound_spec.high,
            include_low=bound_spec.include_low,
            include_high=bound_spec.include_high,
        )
        low_bracket = "[" if bound_spec.include_low else "("
        high_bracket = "]" if bound_spec.include_high else ")"
        yield _Candidate(
            cost=estimated * _INDEX_ROW_COST,
            access_path=f"index:{index.name}",
            rowids=lambda index=index, b=bound_spec: index.range(
                b.low, b.high,
                include_low=b.include_low, include_high=b.include_high,
            ),
            estimated=estimated,
            conjuncts=tuple(bound_spec.conjuncts),
            pushdown=(
                f"{column} in {low_bracket}{bound_spec.low!r}, "
                f"{bound_spec.high!r}{high_bracket}"
            ),
        )


def check_limit_offset(limit: int | None, offset: int) -> None:
    """``limit`` is None or a non-negative int, ``offset`` a non-negative
    int (bools rejected) — anything else is a ``ValueError``, before a
    negative bound can turn into a from-the-end slice."""
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError(
            f"limit must be None or a non-negative int, got {limit!r}"
        )
    if type(offset) is not int or offset < 0:
        raise ValueError(f"offset must be a non-negative int, got {offset!r}")


def execute_select(
    table: Table,
    where: Expr | None = None,
    order_by: str | Sequence[str] | None = None,
    descending: bool = False,
    limit: int | None = None,
    offset: int = 0,
    columns: Sequence[str] | None = None,
    distinct: bool = False,
) -> list[dict[str, Any]]:
    """Run a select and return copied row dicts (projected if requested).

    ``distinct`` removes duplicate result rows after projection (first
    occurrence wins, before LIMIT/OFFSET are applied), matching SQL's
    SELECT DISTINCT over the projected columns.
    """
    check_limit_offset(limit, offset)
    if columns is not None:
        for name in columns:
            if not table.schema.has_column(name):
                raise UnknownColumnError(table.schema.name, name)
    plan, rowids = plan_select(table, where)
    handles: tuple | None = None
    counts = [0, 0]  # rows examined, batches pulled
    if OBS.enabled:
        handles = _obs_handles(table.schema.name, plan.access_path)
        handles[0].inc()
    if order_by is None and not descending and not distinct:
        # Hot path (no reorder, no dedup): batches extend the result
        # list directly and projection is one comprehension — no
        # per-row generator resumption between filter and output.
        needed = None if limit is None else limit + offset
        matched = _collect_matching(table, plan, rowids, where, counts, needed)
        if needed is not None:
            matched = matched[:needed]
        if columns is None:
            out = [dict(row) for row in matched]
        else:
            out = [{name: row[name] for name in columns} for row in matched]
        if offset:
            out = out[offset:]
        if limit is not None:
            out = out[:limit]
        if handles is not None and OBS.enabled:
            handles[1].inc(counts[0])
            handles[2].inc(len(out))
            handles[3].inc(counts[1])
        return out
    rows: Iterable[dict[str, Any]]
    if order_by is not None:
        keys = (order_by,) if isinstance(order_by, str) else tuple(order_by)
        for name in keys:
            if not table.schema.has_column(name):
                raise UnknownColumnError(table.schema.name, name)
        # A sort (or top-k) reads every matching row: one batch.
        matching = _collect_matching(table, plan, rowids, where, counts, None)

        # None sorts first (ascending) via the (is-not-none, value) trick.
        def sort_key(r: dict[str, Any]) -> tuple:
            return tuple((r[k] is not None, r[k]) for k in keys)

        if limit is not None and not distinct:
            # Streaming top-k: nsmallest/nlargest are documented as
            # sorted(...)[:k] (stable on ties), so results match a full
            # sort exactly while holding only limit+offset rows.
            top = limit + offset
            if descending:
                rows = heapq.nlargest(top, matching, key=sort_key)
            else:
                rows = heapq.nsmallest(top, matching, key=sort_key)
        else:
            rows = sorted(matching, key=sort_key, reverse=descending)
    elif descending:
        rows = _collect_matching(table, plan, rowids, where, counts, None)[::-1]
    else:
        # DISTINCT only: lazy, LIMIT stops the batch pulls
        rows = _matching_rows(table, plan, rowids, where, counts)
    out: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    needed = None if limit is None else limit + offset
    for row in rows:
        projected = (
            dict(row) if columns is None
            else {name: row[name] for name in columns}
        )
        if distinct:
            key = tuple(_hashable(projected[name]) for name in sorted(projected))
            if key in seen:
                continue
            seen.add(key)
        out.append(projected)
        if needed is not None and len(out) >= needed:
            break
    if offset:
        out = out[offset:]
    if limit is not None:
        out = out[:limit]
    if handles is not None and OBS.enabled:
        handles[1].inc(counts[0])
        handles[2].inc(len(out))
        handles[3].inc(counts[1])
    return out


#: (registry, {(table, path): (plan, rows_scanned, rows_returned,
#: batches)}) — handles re-resolved whenever the active registry object
#: changes, so the steady-state enabled cost per select is four dict hits.
_OBS_HANDLES: list = [None, {}]


def _obs_handles(table_name: str, access_path: str) -> tuple:
    registry = OBS.registry
    if _OBS_HANDLES[0] is not registry:
        _OBS_HANDLES[0] = registry
        _OBS_HANDLES[1] = {}
    cache = _OBS_HANDLES[1]
    key = (table_name, access_path)
    handles = cache.get(key)
    if handles is None:
        assert registry is not None
        handles = cache[key] = (
            registry.counter("rdb.plan", table=table_name, path=access_path),
            registry.counter("rdb.rows_scanned", table=table_name),
            registry.counter("rdb.rows_returned", table=table_name),
            registry.counter("rdb.batches", table=table_name),
        )
    return handles


def _candidate_batches(
    table: Table, plan: SelectPlan, rowids: Iterable[int]
) -> Iterator[list[dict[str, Any]]]:
    """Candidate rows for a planned access path, as row-list batches."""
    if plan.access_path == "scan":
        # Straight off the heap snapshot: no per-row rowid hop.
        yield from table.rows_batches(DEFAULT_BATCH)
        return
    it = iter(rowids)
    while chunk := list(islice(it, DEFAULT_BATCH)):
        yield table.get_many(chunk)


def _collect_matching(
    table: Table,
    plan: SelectPlan,
    rowids: Iterable[int],
    where: Expr | None,
    counts: list[int],
    needed: int | None,
) -> list[dict[str, Any]]:
    """Matching rows as one list: filtered batches extend it in place.

    The list-wise twin of :func:`_matching_rows` for selects that
    consume every matching row in heap order — no generator frame is
    resumed per row.  Stops pulling batches once ``needed`` rows have
    matched (LIMIT+OFFSET bound; ``None`` collects everything).

    An unbounded consumer reads every candidate regardless, so it takes
    the heap snapshot, or one bulk fetch of the index's row ids, as a
    single batch: one fused filter call, no slicing.
    """
    if needed is None:
        rows = (
            table.rows_list() if plan.access_path == "scan"
            else table.get_many(rowids)
        )
        counts[0] += len(rows)
        counts[1] += 1
        return rows if where is None else batch_filter(where)(rows)
    out: list[dict[str, Any]] = []
    extend = out.extend
    matching = None if where is None else batch_filter(where)
    for batch in _candidate_batches(table, plan, rowids):
        counts[0] += len(batch)
        counts[1] += 1
        extend(batch if matching is None else matching(batch))
        if needed is not None and len(out) >= needed:
            break
    return out


def _matching_rows(
    table: Table,
    plan: SelectPlan,
    rowids: Iterable[int],
    where: Expr | None,
    counts: list[int],
) -> Iterator[dict[str, Any]]:
    """Yield candidate rows that pass the WHERE filter, batch by batch.

    ``counts`` is a two-slot tally ([rows examined, batches pulled]) the
    caller flushes to observability after consumption — two integer adds
    per *batch*, not a counting iterator per row, which is what keeps
    enabled-obs scan overhead under 1%.  Stays lazy across batches, so
    DISTINCT + LIMIT without ORDER BY stops pulling once it has enough
    rows.
    """
    matching = None if where is None else batch_filter(where)
    for batch in _candidate_batches(table, plan, rowids):
        counts[0] += len(batch)
        counts[1] += 1
        yield from (batch if matching is None else matching(batch))


def _hashable(value: Any) -> Any:
    """Stable hashable form of a stored value (JSON columns hold lists
    and dicts, which must participate in DISTINCT)."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


def _join_key_fns(
    on: Sequence[tuple[str, str]],
) -> tuple[Callable, Callable, Callable[[Any], bool]]:
    """(left key, right key, key-has-null) extractors for a join spec."""
    if not on:
        return (lambda row: ()), (lambda row: ()), (lambda key: False)
    if len(on) == 1:
        lc, rc = on[0]
        return itemgetter(lc), itemgetter(rc), (lambda key: key is None)
    left = itemgetter(*[lc for lc, _rc in on])
    right = itemgetter(*[rc for _lc, rc in on])
    return left, right, (lambda key: None in key)


def _prefixed_names(
    prefix: str, cache: dict[tuple, tuple[str, ...]], keys: tuple[str, ...]
) -> tuple[str, ...]:
    """``("<prefix>.<col>", ...)`` for a row's key shape, cached.

    Rows from one table all share a key shape, so the f-string
    formatting runs once per shape; every merged output row is then one
    C-speed ``dict(zip(names, values))``.
    """
    names = cache.get(keys)
    if names is None:
        names = cache[keys] = tuple(f"{prefix}.{k}" for k in keys)
    return names


def join_rows(
    left_rows: Iterable[dict[str, Any]],
    right_rows: Iterable[dict[str, Any]],
    on: Sequence[tuple[str, str]],
    *,
    left_prefix: str = "l",
    right_prefix: str = "r",
    kind: str = "inner",
) -> list[dict[str, Any]]:
    """Hash join of two row iterables on (left_col, right_col) pairs.

    Output rows carry prefixed keys (``"<prefix>.<column>"``) so name
    collisions between the inputs are harmless.  ``kind`` is ``"inner"``
    or ``"left"`` (left-outer: unmatched left rows appear with ``None``
    right columns).

    The vectorized form decomposes every row into (key shape, value
    tuple) so a merged output row is a single C-level ``dict(zip(...))``
    over cached prefixed-name tuples — no per-column formatting, no
    intermediate dicts.
    """
    if kind not in ("inner", "left"):
        raise ValueError(f"join kind must be 'inner' or 'left', got {kind!r}")
    left_key, right_key, key_has_null = _join_key_fns(on)
    right_cache: dict[tuple, tuple[str, ...]] = {}
    buckets: dict[Any, list[tuple[tuple[str, ...], tuple]]] = {}
    bucket_for = buckets.setdefault
    right_columns: set[str] = set()
    for row in right_rows:
        right_columns.update(row)
        names = _prefixed_names(right_prefix, right_cache, tuple(row))
        bucket_for(right_key(row), []).append((names, tuple(row.values())))
    null_names = tuple(f"{right_prefix}.{k}" for k in right_columns)
    null_values = (None,) * len(null_names)
    left_cache: dict[tuple, tuple[str, ...]] = {}
    combined: dict[tuple, tuple[str, ...]] = {}
    get_bucket = buckets.get
    no_matches: list[tuple[tuple[str, ...], tuple]] = []
    out: list[dict[str, Any]] = []
    append = out.append
    for left in left_rows:
        key = left_key(left)
        matches = no_matches if key_has_null(key) else get_bucket(key, no_matches)
        if not matches:
            if kind != "left":
                continue
            matches = ((null_names, null_values),)
        left_keys = tuple(left)
        left_values = tuple(left.values())
        for right_names, right_values in matches:
            shape = combined.get(left_keys)
            if shape is None or shape[0] is not right_names:
                # Combined-name tuples cached per (left shape, right
                # shape); one right shape per left shape is the common
                # case, so the hot probe is a single dict hit.
                left_names = _prefixed_names(left_prefix, left_cache, left_keys)
                shape = combined[left_keys] = (
                    right_names, left_names + right_names
                )
            append(dict(zip(shape[1], left_values + right_values)))
    return out


_AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": lambda values: sum(values) if values else 0,
    "avg": lambda values: (sum(values) / len(values)) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


def aggregate(
    rows: Iterable[dict[str, Any]],
    spec: dict[str, tuple[str, str | None]],
    group_by: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    """Grouped aggregation.

    ``spec`` maps output names to ``(function, column)`` where function is
    one of count/sum/avg/min/max and column is ``None`` for ``count(*)``.
    Null column values are excluded from every aggregate except
    ``count(*)``, matching SQL.

    >>> aggregate([{"a": 1}, {"a": 3}], {"n": ("count", None), "m": ("max", "a")})
    [{'n': 2, 'm': 3}]
    """
    for out_name, (fn_name, _column) in spec.items():
        if fn_name not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {fn_name!r} for {out_name!r}")
    groups: dict[tuple, list[dict[str, Any]]] = {}
    group_cols = tuple(group_by) if group_by else ()
    if not group_cols:
        groups[()] = list(rows)
    elif len(group_cols) == 1:
        # The common report: bucket on the bare value and wrap it in
        # its 1-tuple once per group — no generator frame per row.
        column = group_cols[0]
        by_value: dict[Any, list[dict[str, Any]]] = {}
        for row in rows:
            by_value.setdefault(row[column], []).append(row)
        groups = {(value,): bucket for value, bucket in by_value.items()}
    else:
        for row in rows:
            key = tuple(row[c] for c in group_cols)
            groups.setdefault(key, []).append(row)
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


def matching_view(
    table: Table, where: Expr | None = None
) -> list[dict[str, Any]]:
    """Matching rows as live references — the executor feed for
    read-only consumers (joins, aggregates) that build fresh output
    dicts anyway, so the per-row defensive copy a select makes would be
    pure waste.  Callers must not mutate the returned rows.

    Runs the same planned, batched, observed pipeline as
    :func:`execute_select`.
    """
    plan, rowids = plan_select(table, where)
    handles: tuple | None = None
    counts = [0, 0]
    if OBS.enabled:
        handles = _obs_handles(table.schema.name, plan.access_path)
        handles[0].inc()
    rows = _collect_matching(table, plan, rowids, where, counts, None)
    if handles is not None and OBS.enabled:
        handles[1].inc(counts[0])
        handles[2].inc(len(rows))
        handles[3].inc(counts[1])
    return rows


def aggregate_table(
    table: Table,
    spec: dict[str, tuple[str, str | None]],
    where: Expr | None = None,
    group_by: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    """Aggregate straight off a table through the batched executor.

    Equivalent to ``aggregate(execute_select(table, where), spec,
    group_by)`` but grouped over the no-copy :func:`matching_view` —
    aggregation only reads column values, so live rows are safe.
    """
    return aggregate(matching_view(table, where), spec, group_by=group_by)
