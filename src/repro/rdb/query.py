"""Query execution: cost-based access-path selection, joins, aggregates.

The planner is cost-based over the counters every index maintains on
mutation, read where a candidate is costed.  For a WHERE clause it
costs every access path whose preconditions hold, in heap-scan rows,
and picks the cheapest:

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
(:func:`heapq.nsmallest`/``nlargest``) instead of a full sort; when the
chosen path is the range pushed down on the *leading* ORDER BY column
the heap is fed by an **ordered walk** — a few whole keys at a time in
index order, stopping at the key boundary once LIMIT+OFFSET rows have
matched — which hands it a prefix of the same list (DESIGN §6).  Sort
keys are one C-level ``itemgetter`` whenever no matching row holds
``None`` in an ORDER BY column.

Execution is **compiled and batched** (:mod:`repro.rdb.compile`): the
WHERE tree is lowered to one generated filter function, compiled once
per statement *shape* and handed each statement's literals.  A consumer
that reads every candidate anyway takes them as one batch — the heap
snapshot, or one bulk :meth:`Table.get_many` of the index's row ids; a
LIMIT without ORDER BY pulls batches of
:data:`~repro.rdb.compile.DEFAULT_BATCH` and stops early.  A grouped
aggregate filters, groups and folds its candidates in one generated pass
(:func:`~repro.rdb.compile.grouped_form`).  Observability tallies per
batch, not per row.  There is no second executor: the naive
``Expr.eval`` scan and the reference hash join the batched pipeline is
judged against live in ``tests/rdb/``, not here.

A read of the rows under one key of a hash index (:func:`key_rows`) is
not a query: it probes that index and copies the rows (or reads one
column off them), with none of the planning, filtering or sorting above.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.obs.instrument import OBS, Instrument
from repro.rdb.compile import DEFAULT_BATCH, batch_filter, grouped_form
from repro.rdb.errors import UnknownColumnError
from repro.rdb.index import HashIndex, SortedIndex
from repro.rdb.predicate import Expr, RangeBound, conjunct_bindings
from repro.rdb.table import Table

__all__ = [
    "SelectPlan",
    "check_limit_offset",
    "execute_select",
    "join_rows",
    "key_rows",
    "aggregate",
    "aggregate_table",
    "matching_view",
    "target_rowids",
]

PLANS = Instrument("counter", "rdb.plan", "table", "path")
ROWS_SCANNED = Instrument("counter", "rdb.rows_scanned", "table")
ROWS_RETURNED = Instrument("counter", "rdb.rows_returned", "table")
BATCHES = Instrument("counter", "rdb.batches", "table")


@dataclass(frozen=True, slots=True)
class SelectPlan:
    """How a select will run — exposed for tests and EXPLAIN-style output.

    ``access_path`` is ``"index:<name>"`` (hash probe, IN-list probe or
    sorted-range pushdown) or ``"scan"``.  ``estimated_cost`` is the
    planner's row estimate for the chosen path in heap-scan rows (an
    index candidate weighs ``_INDEX_ROW_COST`` of them);
    ``chosen_conjuncts`` are the WHERE conjuncts the path consumed;
    ``pushdown`` describes a range pushed into a sorted index (``None``
    otherwise).  ``order_by``/``top`` are an ordered statement's columns
    and LIMIT+OFFSET; ``walk`` is ``"ascending"``/``"descending"`` when
    the pushed-down range is read in key order up to the key boundary
    past ``top`` (``None``: every matching row meets the bounded heap).
    """

    table: str
    access_path: str
    estimated_candidates: int
    estimated_cost: float = 0.0
    chosen_conjuncts: tuple[str, ...] = ()
    pushdown: str | None = None
    order_by: tuple[str, ...] = ()
    top: int | None = None
    walk: str | None = None

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
        if self.walk:
            parts.append(f"order {self.order_by[0]} via index, stops after {self.top}")
        elif self.top is not None:
            parts.append(f"top-{self.top} of ~{self.estimated_candidates} by heap")
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
class _Path:
    """The chosen access path: its EXPLAIN text and where its row ids
    come from.  Only the winner is described; a rejected index costs the
    planner its arithmetic and nothing else."""

    access_path: str
    rowids: Callable[[], Iterable[int]]
    conjuncts: tuple[str, ...] = ()
    pushdown: str | None = None
    #: A sorted range's (column, ``SortedIndex.range_steps`` over its bounds).
    ordered: tuple[str, Callable[..., Iterable[Iterable[int]]]] | None = None


#: Keys in the ordered walk's first run; each later run doubles.  Per
#: ``range`` statement of the seeded E22 stream (top-10 of a ~136-row
#: band, ~2.7 rows a key; parent 250-270 us), first runs of 2 / 4 / 6 /
#: 8 / 16 / 32 keys read 91-94 / 85-96 / 91-95 / 103-105 / 122-130 /
#: 150-160 us.  A top-10 over unique keys examines 4 + 8 = 12 rows.
_WALK_KEYS = 4


def plan_select(
    table: Table, where: Expr | None = None,
    order_by: str | Sequence[str] | None = None, descending: bool = False,
    top: int | None = None,
) -> tuple[SelectPlan, Iterable[Any]]:
    """Choose the cheapest access path; returns (plan, candidate rowids).

    Candidate row ids are produced lazily (index probes return their
    snapshot, scans yield from the heap), so callers that stop early —
    LIMIT without ORDER BY — never touch the rest of the table.

    ``top`` is the LIMIT+OFFSET of an ORDER BY statement.  When the
    chosen path is the range pushed down on the leading ``order_by``
    column the plan is an ordered walk: the candidates come as
    :meth:`SortedIndex.range_steps` runs of row ids instead (the index
    holds no NULL, but NULL fails the range conjunct anyway).

    A column the table does not hold, named in ``where`` or
    ``order_by``, is refused with :class:`UnknownColumnError` before any
    path is costed — whichever path would have been chosen.
    """
    keys: tuple[str, ...] = ()
    if order_by is not None:
        keys = (order_by,) if isinstance(order_by, str) else tuple(order_by)
        _check_columns(table, keys)
    row_count = len(table)
    cost, estimated, chosen = float(row_count), row_count, None
    if where is not None:
        _check_columns(table, where.columns())
        candidates = _index_candidates(table, where, row_count)
        for option_cost, option_rows, describe, args in candidates:
            # Strictly cheaper wins; on a tie an index path beats the
            # scan (it can't be worse, and EXPLAIN output stays stable
            # for tiny tables).
            if option_cost < cost or (option_cost == cost and chosen is None):
                cost, estimated, chosen = option_cost, option_rows, (describe, args)
    if chosen is None:
        best = _Path("scan", lambda: (rowid for rowid, _ in table.items()))
    else:
        best = chosen[0](*chosen[1])
    walk = None
    if keys and top is not None and best.ordered and best.ordered[0] == keys[0]:
        walk = "descending" if descending else "ascending"
    plan = SelectPlan(
        table=table.schema.name,
        access_path=best.access_path,
        estimated_candidates=estimated,
        estimated_cost=cost,
        chosen_conjuncts=best.conjuncts,
        pushdown=best.pushdown,
        order_by=keys,
        top=top if keys else None,
        walk=walk,
    )
    if walk:
        return plan, best.ordered[1](step=_WALK_KEYS, reverse=descending)
    return plan, best.rowids()


def _index_candidates(
    table: Table, where: Expr, row_count: int
) -> Iterator[tuple[float, int, Callable[..., _Path], tuple]]:
    """Cost every index-backed access path the WHERE clause enables:
    ``(cost, estimated rows, describe, args)``, where ``describe(*args)``
    is the :class:`_Path` — called for the winner alone."""
    bindings, memberships, bounds = conjunct_bindings(where)
    if bindings:
        for index in table.indexes.candidate_hash_indexes(frozenset(bindings)):
            key = index.key_of(bindings)
            # Exact probe counts are O(1), so sharpen the estimate; the
            # selectivity figure (the index's own entries / distinct
            # keys) still breaks ties among equal probes.
            try:
                exact = index.count(key)
            except TypeError:
                continue  # unhashable literal: no row can equal it here
            cost = (
                min(len(index) / index.distinct_keys(), row_count)
                * _INDEX_ROW_COST if exact else 0.0
            )
            yield cost, exact, _probe_path, (index, key, bindings)
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
        yield (
            estimated * _INDEX_ROW_COST, estimated,
            _in_list_path, (index, column, members),
        )
    for column, bound_spec in bounds.items():
        index = table.indexes.sorted_index_on(column)
        if index is None:
            continue
        span = dict(
            low=bound_spec.low, high=bound_spec.high,
            include_low=bound_spec.include_low, include_high=bound_spec.include_high,
        )
        estimated = index.estimate_range(**span)
        yield (
            estimated * _INDEX_ROW_COST, estimated,
            _range_path, (index, bound_spec, span),
        )


def _probe_path(index: HashIndex, key: tuple, bindings: dict[str, Any]) -> _Path:
    return _Path(
        f"index:{index.name}", partial(index.lookup, key),
        tuple(f"{c} == {bindings[c]!r}" for c in index.columns),
    )


def _in_list_path(index: HashIndex, column: str, members: list[Any]) -> _Path:
    return _Path(
        f"index:{index.name}",
        lambda: chain.from_iterable(index.lookup((m,)) for m in members),
        (f"{column} in {members!r}",),
    )


def _range_path(
    index: SortedIndex, bound_spec: RangeBound, span: dict[str, Any]
) -> _Path:
    low_bracket = "[" if bound_spec.include_low else "("
    high_bracket = "]" if bound_spec.include_high else ")"
    return _Path(
        f"index:{index.name}", partial(index.range, **span),
        tuple(bound_spec.conjuncts),
        f"{index.column} in {low_bracket}{bound_spec.low!r}, "
        f"{bound_spec.high!r}{high_bracket}",
        (index.column, partial(index.range_steps, **span)),
    )


def _check_columns(table: Table, names: Iterable[str]) -> None:
    """Every name is a column of ``table``, or :class:`UnknownColumnError`."""
    for name in names:
        if not table.schema.has_column(name):
            raise UnknownColumnError(table.schema.name, name)


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
        _check_columns(table, columns)
    # DISTINCT dedups before slicing, so it must see every row.
    top = limit + offset if limit is not None and not distinct else None
    plan, rowids = plan_select(table, where, order_by, descending, top)
    counts = [0, 0]  # rows examined, batches pulled
    if OBS.enabled:
        PLANS[table.schema.name, plan.access_path].inc()
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
        if OBS.enabled:
            _count_rows(table, counts, len(out))
        return out
    rows: Iterable[dict[str, Any]]
    if order_by is not None:
        # A sort (or top-k) reads every matching row as one batch — on
        # an ordered walk, up to the key boundary past ``plan.top``: a
        # prefix (suffix) of the same list, every row left out strictly
        # later in the leading key, so the stable selection cannot differ.
        matching = _collect_matching(
            table, plan, rowids, where, counts, plan.top if plan.walk else None
        )
        sort_key = _sort_key(plan.order_by, matching)
        if plan.top is not None:
            # Streaming top-k: nsmallest/nlargest are documented as
            # sorted(...)[:k] (stable on ties), so results match a full
            # sort exactly while holding only limit+offset rows.
            if descending:
                rows = heapq.nlargest(plan.top, matching, key=sort_key)
            else:
                rows = heapq.nsmallest(plan.top, matching, key=sort_key)
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
    if OBS.enabled:
        _count_rows(table, counts, len(out))
    return out


def _sort_key(keys: tuple[str, ...], rows: list[dict[str, Any]]) -> Callable:
    """ORDER BY key: None sorts first (ascending) via the ``(is-not-None,
    value)`` trick.  When no row holds None in a key column every pair
    is ``(True, v)`` and orders as the bare ``v``: one ``itemgetter``."""
    if keys and not any(None in map(itemgetter(k), rows) for k in keys):
        return itemgetter(*keys)
    return lambda row: tuple((row[k] is not None, row[k]) for k in keys)


def _count_rows(table: Table, counts: list[int], returned: int) -> None:
    """Emit what one statement examined (``counts``) and handed back."""
    name = table.schema.name
    ROWS_SCANNED[name].inc(counts[0])
    ROWS_RETURNED[name].inc(returned)
    BATCHES[name].inc(counts[1])


def _candidate_batches(
    table: Table, plan: SelectPlan, rowids: Iterable[int]
) -> Iterator[list[dict[str, Any]]]:
    """Candidate rows for a planned access path, as row-list batches."""
    if plan.walk:  # candidates already come as runs of whole keys
        yield from map(table.get_many, rowids)
    elif plan.access_path == "scan":
        # Straight off the heap snapshot: no per-row rowid hop.
        yield from table.rows_batches(DEFAULT_BATCH)
    else:
        it = iter(rowids)
        while chunk := list(islice(it, DEFAULT_BATCH)):
            yield table.get_many(chunk)


def _candidates(
    table: Table, plan: SelectPlan, rowids: Iterable[int]
) -> list[dict[str, Any]]:
    """Every candidate row of a planned access path as one list: the
    heap snapshot, or one bulk fetch of the index's row ids."""
    if plan.access_path == "scan":
        return table.rows_list()
    return table.get_many(rowids)


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
    matched (LIMIT+OFFSET bound; ``None`` collects everything) — a key
    boundary on an ordered walk, whose rows come back in index order
    whichever end they were pulled from.

    An unbounded consumer reads every candidate regardless, so it takes
    the heap snapshot, or one bulk fetch of the index's row ids, as a
    single batch: one fused filter call, no slicing.
    """
    if needed is None:
        rows = _candidates(table, plan, rowids)
        counts[0] += len(rows)
        counts[1] += 1
        return rows if where is None else batch_filter(where)(rows)
    runs: list[list[dict[str, Any]]] = []
    matched = 0
    matching = None if where is None else batch_filter(where)
    for batch in _candidate_batches(table, plan, rowids):
        counts[0] += len(batch)
        counts[1] += 1
        run = batch if matching is None else matching(batch)
        runs.append(run)
        matched += len(run)
        if matched >= needed:
            break
    if plan.walk == "descending":
        runs.reverse()  # pulled from the high end: back into index order
    return list(chain.from_iterable(runs))


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


#: Each takes one group's non-null values as a list, in candidate order —
#: ``sum()`` over the list, never a running ``+=``, which interpreters
#: that compensate float summation (3.12+) do not answer bit for bit.
_AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "avg": lambda values: (sum(values) / len(values)) if values else None,
    "min": partial(min, default=None),
    "max": partial(max, default=None),
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
    group, fold = grouped_form(
        None, tuple(group_by) if group_by else (), _resolve_aggregates(spec)
    )
    return fold(group(rows))


def _resolve_aggregates(
    spec: dict[str, tuple[str, str | None]],
) -> list[tuple[str, Callable[[list[Any]], Any], str | None]]:
    """``spec`` as ``(output name, function, column)`` triples, or
    :class:`ValueError` for an unknown function."""
    resolved = []
    for out_name, (fn_name, column) in spec.items():
        if fn_name not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {fn_name!r} for {out_name!r}")
        resolved.append((out_name, _AGGREGATES[fn_name], column))
    return resolved


def matching_view(
    table: Table, where: Expr | None = None
) -> list[dict[str, Any]]:
    """Matching rows as live references — the executor feed for
    read-only consumers (joins, counts) that build fresh output or none,
    so the per-row defensive copy a select makes would be pure waste.
    Callers must not mutate the returned rows.

    Runs the same planned, batched, observed pipeline as
    :func:`execute_select`.
    """
    plan, rowids = plan_select(table, where)
    counts = [0, 0]
    if OBS.enabled:
        PLANS[table.schema.name, plan.access_path].inc()
    rows = _collect_matching(table, plan, rowids, where, counts, None)
    if OBS.enabled:
        _count_rows(table, counts, len(rows))
    return rows


def target_rowids(table: Table, where: Expr | None) -> list[int]:
    """The row ids an UPDATE or DELETE visits, snapshotted before it
    mutates anything: chosen by the planner and the fused filter like a
    select's rows, then put in ascending row-id order — the order the
    statement's ops reach the journal in, whichever path found them."""
    plan, rowids = plan_select(table, where)
    return table.rowids_of(
        _collect_matching(table, plan, rowids, where, [0, 0], None)
    )


def key_rows(
    table: Table, columns: tuple[str, ...], key: tuple,
    column: str | None = None,
) -> list[Any]:
    """Copies of the rows whose ``columns`` hold ``key``, in ascending
    row id: one probe of the hash index on exactly those columns (every
    primary key, unique set and foreign key's child columns has one) —
    no plan, no compiled filter, no sort.  Given ``column``, that
    column's values instead, read off the live rows: no copy at all.

    With no such index it raises :class:`LookupError`, so a keyed read
    never turns into a scan; a key of another arity is a
    :class:`ValueError`, and a ``column`` the table does not hold an
    :class:`UnknownColumnError`.  A key with a ``None`` component finds
    nothing, as ``col == None`` does, and so does an unhashable one.
    Observed as the probe it is: ``rdb.plan`` counts it under
    ``index:<name>``.
    """
    index = table.indexes.hash_index_on(columns)
    if index is None:
        raise LookupError(
            f"table {table.schema.name!r} has no hash index on {columns!r}"
        )
    if len(key) != len(columns):
        raise ValueError(f"key {key!r} does not fit columns {columns!r}")
    if column is not None:
        _check_columns(table, (column,))
    try:
        rowids = () if None in key else sorted(index.lookup(key))
    except TypeError:
        rowids = ()  # unhashable: no stored row can hold it
    rows = table.get_many(rowids)
    if column is None:
        out = [dict(row) for row in rows]
    else:
        out = list(map(itemgetter(column), rows))
    if OBS.enabled:
        name = table.schema.name
        PLANS[name, f"index:{index.name}"].inc()
        ROWS_SCANNED[name].inc(len(rows))
        ROWS_RETURNED[name].inc(len(rows))
    return out


def aggregate_table(
    table: Table,
    spec: dict[str, tuple[str, str | None]],
    where: Expr | None = None,
    group_by: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    """Aggregate straight off a table in one pass.

    Equivalent to ``aggregate(execute_select(table, where), spec,
    group_by)``: the candidates of the path :func:`plan_select` picks
    are filtered, grouped and gathered into per-column lists by one
    :func:`grouped_form` loop over live rows, then folded.  Refused
    before a row is read: a column the schema does not hold, named in
    ``spec`` or ``group_by`` and then in ``where``, then an unknown
    function.  Observed as the select it equals: the plan, the
    candidates examined, the rows that matched, one batch.
    """
    group_cols = tuple(group_by) if group_by else ()
    named = [column for _fn, column in spec.values() if column is not None]
    _check_columns(table, (*named, *group_cols))
    plan, rowids = plan_select(table, where)
    group, fold = grouped_form(
        where, group_cols, _resolve_aggregates(spec), table.schema.not_null
    )
    rows = _candidates(table, plan, rowids)
    groups = group(rows)
    if OBS.enabled:
        PLANS[table.schema.name, plan.access_path].inc()
        matched = sum(len(lists[0]) for lists in groups.values())
        _count_rows(table, [len(rows), 1], matched)
    return fold(groups)
