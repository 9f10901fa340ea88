"""The shard-aware middle-tier coordinator: routing + scatter-gather.

:class:`ShardedDatabase` fronts N shard handles (in-process
participants or :class:`~repro.sharding.cluster.ShardClient` proxies) with
the same DML/query surface as a single :class:`~repro.rdb.engine
.Database`, the paper's middle tier playing distributed query
processor:

* **writes** have one router, :meth:`ShardedDatabase.transact`:
  ``insert``, ``insert_many``, ``update`` and ``delete`` are each a
  one-statement transaction, and keyed writes are ``update_pk`` /
  ``delete_pk`` statements.  It routes every statement by row,
  predicate or primary key and refuses one that changes a shard-key
  column, whichever way it arrives; a transaction that pins one shard
  commits directly on it, anything spanning shards runs through
  :class:`~repro.sharding.coordinator.TwoPhaseCoordinator`;
* **reads** scatter to the pruned shard set with the predicate (and
  order/limit) pushed down, then gather: merge-sort for ordered
  queries, partial-aggregate recombination for aggregates (``avg``
  decomposes into per-shard ``sum``/``count``), per-shard pushdown for
  joins whose equi-join keys are co-located, central join otherwise;
* **EXPLAIN** surfaces the fan-out: the shard route line plus each
  shard's own :class:`~repro.rdb.query.SelectPlan` description.

Fragment-aware planning reuses the single-node machinery end to end:
every shard plans its fragment with the ordinary cost-based planner
and executes through the compiled batch pipeline.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.admission import check_deadline, current_deadline
from repro.obs.instrument import OBS, Instrument
from repro.rdb import Schema
from repro.rdb.predicate import Expr
from repro.rdb.query import _hashable, _sort_key, check_limit_offset, join_rows
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.sharding.shardmap import ShardMap

__all__ = ["ShardedDatabase"]

FANOUT = Instrument("histogram", "shard.fanout")
STATEMENTS = Instrument("counter", "shard.statements", "route")


class ShardedDatabase:
    """Route one statement stream across a shard map."""

    def __init__(
        self,
        shard_map: ShardMap,
        handles: Mapping[int, Any],
        coordinator: TwoPhaseCoordinator
        | Callable[[], TwoPhaseCoordinator],
        *,
        schemas: Sequence[Schema] = (),
        clock: Callable[[], float] | None = None,
    ) -> None:
        if set(handles) != set(range(shard_map.num_shards)):
            raise ValueError(
                "handles must cover exactly the shard map's shards"
            )
        self.shard_map = shard_map
        # Held by reference, not copied: a crash-restarted shard swaps
        # its entry in place and reads must follow the live node.
        self.handles = handles
        self._coordinator = coordinator
        #: Clock for ambient-deadline checks between scatter fragments.
        #: Must read the same timebase the caller's deadline was set on
        #: (``sim.now`` in simulations); None disables the checks.
        self.clock = clock
        self._pk: dict[str, tuple[str, ...]] = {
            s.name: tuple(s.primary_key) for s in schemas
        }
        self.direct_writes = 0
        self.twopc_writes = 0

    @property
    def coordinator(self) -> TwoPhaseCoordinator:
        """The live 2PC coordinator.  A callable provider lets a
        crash-restarted coordinator be picked up transparently."""
        c = self._coordinator
        return c() if callable(c) else c

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def _prune(self, table: str, where: Expr | None) -> tuple[int, ...]:
        shards = self.shard_map.shards_for_where(table, where)
        if OBS.enabled:
            FANOUT[()].observe(len(shards))
        return shards

    def _pk_shard(self, table: str, pk: Any) -> int | None:
        """The owning shard of primary key ``pk`` — resolvable only
        when the table is sharded *by* its primary key."""
        sharding = self.shard_map.sharding(table)
        if self._pk.get(table) != sharding.key:
            return None
        key = pk if isinstance(pk, tuple) else (pk,)
        if len(key) != len(sharding.key):
            return None
        return self.shard_map.shard_for_key(table, key)

    def _check_deadline(self, site: str) -> None:
        """Refuse the *next* scatter fragment once the ambient deadline
        passes — a half-gathered read nobody is waiting for stops
        burning the remaining shards."""
        if self.clock is not None and current_deadline() is not None:
            check_deadline(self.clock(), site=site)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, table: str, values: dict[str, Any]) -> tuple:
        (results,) = self.transact([["insert", table, values]]).values()
        return results[0]

    def insert_many(
        self, table: str, rows: Iterable[dict[str, Any]]
    ) -> list[tuple]:
        """Batched insert; returns PK tuples in input-row order (the
        single-node contract), stitched back from per-shard batches."""
        rows = list(rows)
        results = self.transact([["insert_many", table, rows]])
        pks = {shard: iter(result[0]) for shard, result in results.items()}
        return [
            next(pks[self.shard_map.shard_for_row(table, row)])
            for row in rows
        ]

    def update(
        self, table: str, changes: dict[str, Any], where: Expr | None
    ) -> int:
        results = self.transact([["update", table, changes, where]])
        return sum(r[0] for r in results.values())

    def delete(self, table: str, where: Expr | None) -> int:
        results = self.transact([["delete", table, where]])
        return sum(r[0] for r in results.values())

    def transact(
        self, statements: Sequence[Sequence[Any]]
    ) -> dict[int, list[Any]]:
        """Run statements as one transaction across shards — the one
        place a write statement is mapped to shards.

        Inserts, upserts and ``insert_many`` groups route by row;
        ``update`` and ``delete`` by predicate pruning; ``update_pk``
        and ``delete_pk`` by key when the table shards on its primary
        key, else to every shard.  A statement that changes a shard-key
        column is refused before any shard runs anything (the row would
        sit on a shard its key no longer routes to).  One routed shard
        commits directly, several run two-phase commit, none writes and
        counts nothing.
        """
        stmts_by_shard: dict[int, list[Any]] = {}

        def put(shard: int, stmt: Sequence[Any]) -> None:
            stmts_by_shard.setdefault(shard, []).append(list(stmt))

        for stmt in statements:
            op, table = stmt[0], stmt[1]
            if op == "update" or op == "update_pk":
                key = self.shard_map.sharding(table).key
                for column in stmt[2] if op == "update" else stmt[3]:
                    if column in key:
                        raise ValueError(
                            f"cannot update shard key column {column!r} "
                            f"of {table!r} (rows would migrate between "
                            f"shards)"
                        )
            if op == "insert" or op == "upsert":
                put(self.shard_map.shard_for_row(table, stmt[2]), stmt)
            elif op == "insert_many":
                for shard, group in \
                        self.shard_map.group_rows(table, stmt[2]).items():
                    put(shard, ["insert_many", table, group])
            elif op in ("update", "delete"):
                where = stmt[3] if op == "update" else stmt[2]
                for shard in self.shard_map.shards_for_where(table, where):
                    put(shard, stmt)
            elif op in ("update_pk", "delete_pk"):
                shard = self._pk_shard(table, stmt[2])
                targets = self.shard_map.all_shards() \
                    if shard is None else (shard,)
                for s in targets:
                    put(s, stmt)
            else:
                raise ValueError(f"unknown statement {op!r}")
        if not stmts_by_shard:
            return {}
        route = "direct" if len(stmts_by_shard) == 1 else "twopc"
        if route == "direct":
            self.direct_writes += 1
        else:
            self.twopc_writes += 1
        if OBS.enabled:
            STATEMENTS[route].inc()
        return self.coordinator.run(stmts_by_shard)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, table: str, pk: Any) -> dict[str, Any] | None:
        shard = self._pk_shard(table, pk)
        if shard is not None:
            return self.handles[shard].get(table, pk)
        for handle in self.handles.values():
            row = handle.get(table, pk)
            if row is not None:
                return row
        return None

    def exists(self, table: str, pk: Any) -> bool:
        return self.get(table, pk) is not None

    def count(self, table: str, where: Expr | None = None) -> int:
        total = 0
        for s in self._prune(table, where):
            self._check_deadline("shard-count")
            total += self.handles[s].count(table, where)
        return total

    def select(
        self,
        table: str,
        where: Expr | None = None,
        order_by: str | Sequence[str] | None = None,
        descending: bool = False,
        limit: int | None = None,
        offset: int = 0,
        columns: Sequence[str] | None = None,
        distinct: bool = False,
    ) -> list[dict[str, Any]]:
        """Scatter-gather select with per-shard pushdown.

        Predicates, projection and (for ordered queries) a
        ``limit+offset`` top-k bound are pushed to each shard; the
        gather re-sorts with the executor's own None-first key, so the
        merged order matches a single-node select.  DISTINCT dedups
        globally after a per-shard pre-dedup.
        """
        check_limit_offset(limit, offset)
        shards = self._prune(table, where)
        if len(shards) == 1:
            return self.handles[shards[0]].select(
                table, where=where, order_by=order_by,
                descending=descending, limit=limit, offset=offset,
                columns=columns, distinct=distinct,
            )
        need = None if limit is None else limit + offset
        gathered: list[dict[str, Any]] = []
        for shard in shards:
            self._check_deadline("shard-select")
            gathered.extend(self.handles[shard].select(
                table, where=where, order_by=order_by,
                descending=descending,
                limit=need, offset=0,
                columns=columns, distinct=distinct,
            ))
        if order_by is not None:
            keys = (order_by,) if isinstance(order_by, str) \
                else tuple(order_by)
            gathered.sort(key=_sort_key(keys, gathered), reverse=descending)
        if distinct:
            seen: set[tuple] = set()
            unique: list[dict[str, Any]] = []
            for row in gathered:
                key = tuple(_hashable(row[name]) for name in sorted(row))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            gathered = unique
        if offset:
            gathered = gathered[offset:]
        if need is not None:
            gathered = gathered[:limit]
        return gathered

    def aggregate(
        self,
        table: str,
        spec: dict[str, tuple[str, str | None]],
        where: Expr | None = None,
        group_by: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Distributed aggregation by partial-aggregate recombination.

        Each shard computes decomposable partials (``avg`` becomes
        ``sum`` + ``count``); the gather combines per group and sorts
        groups with the executor's key.  Exact for the integer-valued
        columns the differential suite pins; float ``sum``/``avg`` may
        differ from single-node by summation order, as in any
        distributed engine.
        """
        partial_spec: dict[str, tuple[str, str | None]] = {}
        for out, (fn, column) in spec.items():
            if fn == "avg":
                partial_spec[f"__s_{out}"] = ("sum", column)
                partial_spec[f"__n_{out}"] = ("count", column)
            else:
                partial_spec[out] = (fn, column)
        group_cols = tuple(group_by) if group_by else ()
        shards = self._prune(table, where)
        partials: dict[tuple, list[dict[str, Any]]] = {}
        for shard in shards:
            self._check_deadline("shard-aggregate")
            for row in self.handles[shard].aggregate(
                table, partial_spec, where, group_cols or None
            ):
                key = tuple(row[c] for c in group_cols)
                partials.setdefault(key, []).append(row)
        out_rows: list[dict[str, Any]] = []
        ordered = sorted(
            partials,
            key=lambda k: tuple((v is not None, v) for v in k),
        )
        for key in ordered:
            bucket = partials[key]
            result: dict[str, Any] = dict(zip(group_cols, key))
            for out, (fn, _column) in spec.items():
                result[out] = self._combine(fn, out, bucket)
            out_rows.append(result)
        return out_rows

    @staticmethod
    def _combine(fn: str, out: str, bucket: list[dict[str, Any]]) -> Any:
        if fn == "count":
            return sum(row[out] for row in bucket)
        if fn == "sum":
            return sum(row[out] for row in bucket)
        if fn == "avg":
            total_n = sum(row[f"__n_{out}"] for row in bucket)
            if not total_n:
                return None
            return sum(row[f"__s_{out}"] for row in bucket) / total_n
        values = [row[out] for row in bucket if row[out] is not None]
        if not values:
            return None
        return min(values) if fn == "min" else max(values)

    def join(
        self,
        left_table: str,
        right_table: str,
        on: Sequence[tuple[str, str]],
        *,
        where_left: Expr | None = None,
        where_right: Expr | None = None,
        kind: str = "inner",
    ) -> list[dict[str, Any]]:
        """Equi-join: pushed to each shard when the join keys are
        co-located (equal keys provably share a shard), gathered and
        joined centrally otherwise."""
        if self._join_colocated(left_table, right_table, on):
            out: list[dict[str, Any]] = []
            for shard in self.shard_map.all_shards():
                self._check_deadline("shard-join")
                out.extend(self.handles[shard].join(
                    left_table, right_table, on,
                    where_left=where_left, where_right=where_right,
                    kind=kind,
                ))
            return out
        left_rows: list[dict[str, Any]] = []
        right_rows: list[dict[str, Any]] = []
        for shard in self._prune(left_table, where_left):
            self._check_deadline("shard-join")
            left_rows.extend(
                self.handles[shard].select(left_table, where=where_left)
            )
        for shard in self._prune(right_table, where_right):
            self._check_deadline("shard-join")
            right_rows.extend(
                self.handles[shard].select(right_table, where=where_right)
            )
        return join_rows(left_rows, right_rows, on, kind=kind)

    def _join_colocated(
        self, left: str, right: str, on: Sequence[tuple[str, str]]
    ) -> bool:
        """Equal join keys provably share a shard: both tables shard
        identically on the same columns, and the join equates every
        shard-key column with itself."""
        if not self.shard_map.colocated(left, right):
            return False
        pairs = {tuple(pair) for pair in on}
        key = self.shard_map.sharding(left).key
        return all((k, k) in pairs for k in key)

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------
    def explain(self, table: str, where: Expr | None = None) -> str:
        """The fan-out line plus each routed shard's local plan."""
        shards = self.shard_map.shards_for_where(table, where)
        total = self.shard_map.num_shards
        route = "single-shard" if len(shards) == 1 else "scatter-gather"
        lines = [
            f"{table}: fanout {len(shards)}/{total} shards "
            f"[{','.join(str(s) for s in shards)}] "
            f"via {self.shard_map.describe(table)} ({route})"
        ]
        for shard in shards:
            plan = self.handles[shard].explain_plan(table, where)
            lines.append(f"  shard {shard}: {plan.describe()}")
        return "\n".join(lines)

    def stats(self) -> dict[str, Any]:
        return {
            "shards": self.shard_map.num_shards,
            "direct_writes": self.direct_writes,
            "twopc_writes": self.twopc_writes,
            "twopc_commits": self.coordinator.commits,
            "twopc_aborts": self.coordinator.aborts,
        }
