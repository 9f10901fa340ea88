"""The standard WDDB rule set.

Each module holds one rule family; :func:`standard_rules` is the one
list the linter and the ``rules`` command read.
"""

from __future__ import annotations

from repro.analysis.registry import Rule
from repro.analysis.rules.codegen import CodegenNamespaceRule
from repro.analysis.rules.determinism import NondeterminismGuardRule
from repro.analysis.rules.exceptions import BareExceptRule, SwallowedLockConflictRule
from repro.analysis.rules.index_invariant import IndexInvariantRule
from repro.analysis.rules.retry import RetryDisciplineRule
from repro.analysis.rules.transactions import MutationOutsideTransactionRule
from repro.analysis.rules.trigger_recursion import TriggerRecursionRule

__all__ = ["standard_rules"]


def standard_rules() -> list[type[Rule]]:
    return [
        MutationOutsideTransactionRule,
        TriggerRecursionRule,
        CodegenNamespaceRule,
        NondeterminismGuardRule,
        IndexInvariantRule,
        BareExceptRule,
        SwallowedLockConflictRule,
        RetryDisciplineRule,
    ]
