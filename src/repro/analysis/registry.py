"""The lint-rule base class and what a rule sees of one module.

A rule is a class with a stable ``id``, a one-line ``summary`` and a
``check_module`` method; rules that need whole-program state (e.g. the
trigger graph, which spans modules) accumulate it across calls and emit
the cross-module findings from ``finalize``.  The rule set is
:func:`repro.analysis.rules.standard_rules`; the linter instantiates it
afresh per run, so rule state never leaks between runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.config import AnalysisConfig

__all__ = ["ModuleContext", "Rule"]


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule sees about one module under analysis."""

    path: str  # path as given to the linter (for reporting)
    relpath: str  # module-relative path, e.g. "repro/rdb/table.py"
    source: str
    tree: ast.Module
    config: "AnalysisConfig"

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        *,
        severity: Severity | None = None,
        detail: dict | None = None,
    ) -> Finding:
        """Build a finding attributed to ``node`` in this module."""
        return Finding(
            rule=rule.id,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            severity=severity if severity is not None else rule.severity,
            source="lint",
            detail=detail,
        )


class Rule:
    """Base class for lint rules (subclass and override ``check_module``)."""

    id: str = "abstract"
    summary: str = ""
    severity: Severity = Severity.ERROR

    def __init__(self, config: "AnalysisConfig") -> None:
        self.config = config

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finalize(self) -> Iterable[Finding]:
        """Cross-module findings, emitted after every module was checked."""
        return ()
