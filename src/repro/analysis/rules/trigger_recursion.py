"""Rule: trigger-recursion.

AFTER triggers observe applied mutations; the integrity alert engine
hangs its alert callbacks on them.  An AFTER trigger whose callback
*mutates the table it watches* re-fires itself; a set of triggers whose
mutations form a cycle across tables re-fire each other.  Either way the
engine never terminates the statement.

Static approximation: for every ``register_trigger(name, table, event,
AFTER, fn)`` call with a *literal* table name, resolve ``fn`` to a
function/lambda in the same module and collect the literal table names
it passes to DML calls (``insert``/``update``/``update_pk``/``upsert``/
``delete``/``delete_pk``/``insert_many``).  Self-loops are reported at
the registration site; cross-trigger cycles are reported once per cycle
from ``finalize`` after all modules were scanned.  Dynamic table names
or unresolvable callbacks are skipped (no false positives), which is the
usual lint trade-off: the dynamic lock-order detector covers runtime.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, Rule
from repro.analysis.rules._ast_util import (
    attr_chain,
    call_attr,
    literal_str,
    walk_calls,
)

__all__ = ["TriggerRecursionRule"]

_DML = frozenset(
    {
        "insert",
        "insert_many",
        "update",
        "update_pk",
        "upsert",
        "delete",
        "delete_pk",
    }
)
_REGISTER_ARGS = ("name", "table", "event", "timing", "fn")


class TriggerRecursionRule(Rule):
    id = "trigger-recursion"
    summary = (
        "AFTER trigger whose callback can re-fire its own table "
        "(directly or via a trigger cycle)"
    )

    def __init__(self, config) -> None:
        super().__init__(config)
        # (src_table, dst_table, path, line) across all scanned modules.
        self._edges: list[tuple[str, str, str, int]] = []

    # ------------------------------------------------------------------
    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        functions = self._functions_by_name(ctx.tree)
        for call in walk_calls(ctx.tree):
            if call_attr(call) != "register_trigger":
                continue
            args = self._registration_args(call)
            if args is None:
                continue
            timing, table_node, fn_node = args
            if timing != "AFTER":
                continue
            table = literal_str(table_node)
            body = self._resolve_callback(fn_node, functions)
            if body is None:
                continue
            mutated = self._mutated_tables(body)
            if table is None:
                continue  # dynamic registration: runtime detector territory
            for dst in mutated:
                if dst == table:
                    yield ctx.finding(
                        self,
                        call,
                        f"AFTER trigger on {table!r} mutates {table!r}: the "
                        "trigger re-fires itself and the statement never "
                        "terminates",
                    )
                else:
                    self._edges.append((table, dst, ctx.path, call.lineno))

    def finalize(self) -> Iterable[Finding]:
        graph: dict[str, set[str]] = {}
        sites: dict[tuple[str, str], tuple[str, int]] = {}
        for src, dst, path, line in self._edges:
            graph.setdefault(src, set()).add(dst)
            sites.setdefault((src, dst), (path, line))
        reported: set[frozenset[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            path, line = sites[(cycle[0], cycle[1])]
            loop = " -> ".join([*cycle, cycle[0]])
            yield Finding(
                rule=self.id,
                message=(
                    f"AFTER-trigger cycle {loop}: these triggers re-fire "
                    "each other without terminating"
                ),
                path=path,
                line=line,
                col=1,
                severity=self.severity,
                detail={"cycle": list(cycle)},
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _functions_by_name(tree: ast.Module) -> dict[str, ast.AST]:
        functions: dict[str, ast.AST] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        return functions

    @staticmethod
    def _registration_args(
        call: ast.Call,
    ) -> tuple[str | None, ast.AST | None, ast.AST | None] | None:
        """(timing_name, table_node, fn_node) from a register_trigger call."""
        slots: dict[str, ast.AST] = {}
        for position, arg in enumerate(call.args):
            if position < len(_REGISTER_ARGS):
                slots[_REGISTER_ARGS[position]] = arg
        for keyword in call.keywords:
            if keyword.arg in _REGISTER_ARGS:
                slots[keyword.arg] = keyword.value
        timing_node = slots.get("timing")
        chain = attr_chain(timing_node) if timing_node is not None else None
        timing = chain[-1] if chain else None
        return timing, slots.get("table"), slots.get("fn")

    @staticmethod
    def _resolve_callback(
        fn_node: ast.AST | None, functions: dict[str, ast.AST]
    ) -> ast.AST | None:
        if fn_node is None:
            return None
        if isinstance(fn_node, ast.Lambda):
            return fn_node
        if isinstance(fn_node, ast.Name):
            return functions.get(fn_node.id)
        if isinstance(fn_node, ast.Attribute):  # self._on_update
            return functions.get(fn_node.attr)
        return None

    @staticmethod
    def _mutated_tables(body: ast.AST) -> set[str]:
        mutated: set[str] = set()
        for call in walk_calls(body):
            if call_attr(call) in _DML and call.args:
                table = literal_str(call.args[0])
                if table is not None:
                    mutated.add(table)
        return mutated

    @staticmethod
    def _find_cycle(
        graph: dict[str, set[str]], start: str
    ) -> list[str] | None:
        """A cycle reachable from ``start`` that passes through it."""
        stack = [(start, [start])]
        seen: set[str] = set()
        while stack:
            node, trail = stack.pop()
            for neighbour in sorted(graph.get(node, ())):
                if neighbour == start and len(trail) > 1:
                    return trail
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append((neighbour, trail + [neighbour]))
        return None
