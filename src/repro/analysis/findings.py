"""The findings model shared by the linter and the lock-order detector.

A :class:`Finding` is one verified-or-suspected defect: which rule
produced it, where it is (file/line for lint findings, a logical
location such as ``"<lock-order>"`` for runtime findings), how severe,
and an optional structured ``detail`` payload (e.g. the cycle a deadlock
report refers to).  Findings are value objects — reporters and tests
all consume the same type regardless of which half of the subsystem
produced it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Severity", "Finding", "RUNTIME_PATH", "sort_findings"]

#: Pseudo-path used by runtime (detector) findings, which have no file.
RUNTIME_PATH = "<runtime>"


class Severity(enum.Enum):
    """How seriously a finding should gate CI."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]


@dataclass(frozen=True, slots=True)
class Finding:
    """One defect located by a rule or the lock-order detector."""

    rule: str
    message: str
    path: str = RUNTIME_PATH
    line: int = 0
    col: int = 0
    severity: Severity = Severity.ERROR
    source: str = "lint"  # "lint" | "detector"
    detail: dict[str, Any] | None = field(default=None, hash=False)

    def location(self) -> str:
        """``path:line:col`` for lint findings, ``path`` for runtime ones."""
        if self.source == "lint":
            return f"{self.path}:{self.line}:{self.col}"
        return self.path

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "source": self.source,
        }
        if self.detail is not None:
            payload["detail"] = self.detail
        return payload


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable display order: by path, line, column, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
