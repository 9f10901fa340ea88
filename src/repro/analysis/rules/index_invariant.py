"""Rule: index-invariant.

Every index (and therefore every counter the planner reads) is
maintained incrementally by
``Table.apply_*`` / ``IndexSet.insert_row`` / ``remove_row``.  Code that
writes ``table._rows`` or ``table._next_rowid`` directly bypasses that
maintenance and silently corrupts both index lookups and the cost-based
planner's selectivity estimates — and skips the ``Table.version`` bump
the middle-tier caches invalidate on.  Only the table module itself may
touch those internals.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, Rule
from repro.analysis.rules._ast_util import call_attr

__all__ = ["IndexInvariantRule"]

_PROTECTED_ATTRS = frozenset({"_rows", "_next_rowid"})
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "__setitem__"}
)


def _protected_attr(node: ast.AST) -> str | None:
    """``<expr>._rows`` / ``<expr>._next_rowid`` → the attribute name."""
    if isinstance(node, ast.Attribute) and node.attr in _PROTECTED_ATTRS:
        return node.attr
    return None


class IndexInvariantRule(Rule):
    id = "index-invariant"
    summary = (
        "direct Table._rows/_next_rowid mutation bypasses index and "
        "statistics maintenance"
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.relpath in self.config.index_internal_modules:
            return
        for node in ast.walk(ctx.tree):
            attr = self._mutated_attr(node)
            if attr is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"direct mutation of Table.{attr} skips index/statistics "
                    "maintenance: use apply_insert/apply_update/apply_delete",
                )

    @staticmethod
    def _mutated_attr(node: ast.AST) -> str | None:
        # table._rows[k] = v   /   table._next_rowid = n
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = _protected_attr(target.value)
                    if attr:
                        return attr
                attr = _protected_attr(target)
                if attr:
                    return attr
        # del table._rows[k]
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _protected_attr(target.value)
                    if attr:
                        return attr
        # table._rows.pop(k) and friends
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if call_attr(node) in _MUTATING_METHODS:
                attr = _protected_attr(node.func.value)
                if attr:
                    return attr
        return None
