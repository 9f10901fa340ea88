"""Rule: retry-discipline.

A retry loop that neither honours a deadline nor backs off is a retry
storm waiting for a brown-out: it multiplies offered load exactly when
capacity is scarcest, and it keeps retrying work whose caller gave up
long ago.  Both disciplines exist in one place — :class:`~repro.fault
.policy.RetryPolicy` is the backoff schedule and its bound
(``timeout_for`` paces, ``allows(now=, deadline=)`` bounds) — so inside
the configured ``retry_paths`` this rule flags loops that retry bare.

Heuristic: a ``while``/``for`` loop is a *retry loop* when its body
contains a ``try`` whose exception handler ``continue``s (swallow the
failure, go around again).  Such a loop must show evidence of **either**
discipline:

* a deadline/budget bound — an identifier mentioning ``deadline``,
  ``timeout``, ``budget`` or ``attempts_left``, or a call to
  ``allows``/``check_deadline``/``expired``/``remaining`` anywhere
  in the loop (condition included);
* backoff pacing — a call to ``sleep``/``schedule``/``timeout_for``/
  ``backoff``/``wait`` in the loop body.

A loop showing neither is flagged.  False positives suppress with
``# repro-analysis: ignore[retry-discipline]`` on the loop line.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ModuleContext, Rule
from repro.analysis.rules._ast_util import attr_chain, walk_calls

__all__ = ["RetryDisciplineRule"]

_BOUND_NAME_HINTS = ("deadline", "timeout", "budget", "attempts_left")
_BOUND_CALLS = frozenset({"allows", "check_deadline", "expired", "remaining"})
_BACKOFF_CALLS = frozenset({
    "sleep", "schedule", "schedule_at", "timeout_for", "backoff",
    "wait", "wait_time",
})


def _is_retry_loop(loop: ast.While | ast.For) -> ast.Try | None:
    """The loop's retry ``try`` (an except handler that continues), or
    None when the loop doesn't match the retry shape."""
    for node in ast.walk(loop):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            for stmt in ast.walk(handler):
                if isinstance(stmt, ast.Continue):
                    return node
    return None


def _names_in(node: ast.AST) -> Iterable[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _has_bound(loop: ast.AST) -> bool:
    lowered = (name.lower() for name in _names_in(loop))
    if any(
        hint in name for name in lowered for hint in _BOUND_NAME_HINTS
    ):
        return True
    for call in walk_calls(loop):
        chain = attr_chain(call.func)
        if chain and chain[-1] in _BOUND_CALLS:
            return True
    return False


def _has_backoff(loop: ast.AST) -> bool:
    for call in walk_calls(loop):
        chain = attr_chain(call.func)
        if chain and chain[-1] in _BACKOFF_CALLS:
            return True
    return False


class RetryDisciplineRule(Rule):
    id = "retry-discipline"
    summary = (
        "retry loop with neither a deadline/budget bound nor backoff "
        "pacing; use RetryPolicy.allows and RetryPolicy.timeout_for"
    )
    severity = Severity.ERROR

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.config.in_retry_path(ctx.relpath):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            if _is_retry_loop(node) is None:
                continue
            if _has_bound(node) or _has_backoff(node):
                continue
            yield ctx.finding(
                self,
                node,
                "retry loop is unbounded and unpaced: no deadline/"
                "budget check and no backoff wait — a brown-out turns "
                "this into a retry storm; bound it with "
                "RetryPolicy.allows (now/deadline) and pace it with "
                "the policy's timeout_for",
            )
