"""Rule: mutation-outside-transaction.

``Table.apply_insert`` / ``apply_update`` / ``apply_delete`` mutate heap
rows *without* constraint checks or undo logging — they are the raw
primitives the engine wraps.  Any call site outside the storage layer
must pair the mutation with an undo record (``txn.record(UndoRecord(...))``)
inside the same function, or it produces state that ``rollback`` cannot
revert.  Replay paths (snapshot load, journal replay) are legitimately
exempt and carry inline suppressions explaining why.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleContext, Rule
from repro.analysis.rules._ast_util import call_attr, enclosing_functions, walk_calls

__all__ = ["MutationOutsideTransactionRule"]

_RAW_MUTATORS = frozenset({
    "apply_insert", "apply_insert_many", "apply_update", "apply_delete",
    "apply_restore",
})
#: A ``<txn>.record(...)`` call or an ``UndoRecord(...)`` construction
#: inside the same function marks the mutation as transaction-
#: disciplined: an undo record is written for it.
_DISCIPLINE_CALL = "record"
_DISCIPLINE_TYPE = "UndoRecord"


class MutationOutsideTransactionRule(Rule):
    id = "mutation-outside-transaction"
    summary = (
        "raw Table.apply_* call with no undo record in the same function"
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.relpath in self.config.mutation_allowlist:
            return
        scopes = enclosing_functions(ctx.tree)
        disciplined_cache: dict[ast.AST | None, bool] = {}
        for call in walk_calls(ctx.tree):
            name = call_attr(call)
            if name not in _RAW_MUTATORS or not isinstance(
                call.func, ast.Attribute
            ):
                continue
            scope = scopes.get(call)
            if scope not in disciplined_cache:
                disciplined_cache[scope] = self._has_discipline(
                    scope if scope is not None else ctx.tree
                )
            if disciplined_cache[scope]:
                continue
            yield ctx.finding(
                self,
                call,
                f"{name}() reachable without an active transaction/undo-log "
                "scope: record an UndoRecord in this function or route the "
                "mutation through the Database DML API",
            )

    @staticmethod
    def _has_discipline(scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                name = call_attr(node)
                # Only *calls* count: a variable merely named "record"
                # is not an undo log.
                if name == _DISCIPLINE_CALL and isinstance(
                    node.func, ast.Attribute
                ):
                    return True
                if name == _DISCIPLINE_TYPE:
                    return True
        return False
