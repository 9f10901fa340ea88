"""Text and JSON renderings of findings (lint and detector alike)."""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.findings import Finding, sort_findings

__all__ = ["render_text", "render_json"]


def render_text(
    findings: list[Finding],
    *,
    files_checked: int | None = None,
    suppressed: int = 0,
) -> str:
    """One ``location: severity: rule: message`` line per finding."""
    lines = []
    for finding in sort_findings(findings):
        lines.append(
            f"{finding.location()}: {finding.severity.value}: "
            f"{finding.rule}: {finding.message}"
        )
        if finding.detail:
            for key, value in sorted(finding.detail.items()):
                lines.append(f"    {key}: {value}")
    tail = f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
    extras = []
    if files_checked is not None:
        extras.append(f"{files_checked} files checked")
    if suppressed:
        extras.append(f"{suppressed} suppressed")
    if extras:
        tail += f" ({', '.join(extras)})"
    lines.append(tail)
    return "\n".join(lines)


def render_json(
    findings: list[Finding],
    *,
    files_checked: int | None = None,
    suppressed: int = 0,
) -> str:
    """Machine-readable report (stable ordering, versioned envelope)."""
    payload: dict[str, Any] = {
        "version": 2,
        "findings": [f.to_dict() for f in sort_findings(findings)],
        "summary": {"total": len(findings), "suppressed": suppressed},
    }
    if files_checked is not None:
        payload["summary"]["files_checked"] = files_checked
    return json.dumps(payload, indent=2, sort_keys=True)
