"""The lint driver: file discovery, AST parsing, rules, suppressions.

Suppression syntax (inline, always rule-scoped)::

    table._rows[rowid] = row  # repro-analysis: ignore[index-invariant] -- why

A suppression comment covers findings on its own line and on the line
directly below it (comment-above style).  When the comment sits on a
``def`` line, on its first decorator, or on the line directly above the
function, it covers the whole function, which keeps replay-style
functions from needing one comment per statement.  Unused suppressions
are themselves reported in strict mode (rule id ``unused-suppression``),
so stale escapes cannot accumulate.  This is the one way to accept a
finding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.config import AnalysisConfig, module_relpath
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import ModuleContext, Rule
from repro.analysis.rules import standard_rules

__all__ = ["LintResult", "lint_paths", "lint_source"]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-analysis:\s*ignore\[([A-Za-z0-9_,\- ]+)\]"
)


@dataclass
class _Suppression:
    line: int
    rules: frozenset[str]
    used: bool = False

    def matches(self, rule_id: str) -> bool:
        return rule_id in self.rules


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    unused_suppressions: list[Finding] = field(default_factory=list)


def _parse_suppressions(source: str) -> list[_Suppression]:
    """Collect suppression comments via tokenize.

    Tokenizing (rather than regex over raw lines) means the syntax is
    only honoured in *actual comments* — a docstring that merely shows
    the syntax is not a suppression.
    """
    suppressions = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match:
                rules = frozenset(
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                suppressions.append(_Suppression(token.start[0], rules))
    except tokenize.TokenError:  # unterminated constructs: ast.parse
        pass  # already reported the syntax error as a finding
    return suppressions


def _function_spans(tree: ast.Module) -> list[tuple[int, int, int]]:
    """(first_line, def_line, end_line) for every function.

    A decorated function starts at its first decorator, as
    ``co_firstlineno`` does, so a comment above the decorators scopes
    the whole function.
    """
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min(n.lineno for n in [node, *node.decorator_list])
            spans.append((first, node.lineno, node.end_lineno or node.lineno))
    return spans


def _is_suppressed(
    finding: Finding,
    suppressions: list[_Suppression],
    spans: list[tuple[int, int, int]],
) -> bool:
    for suppression in suppressions:
        if not suppression.matches(finding.rule):
            continue
        # Same line, or comment-above.
        if finding.line in (suppression.line, suppression.line + 1):
            suppression.used = True
            return True
        # Function-scope: a comment on the def line, on the function's
        # first line or directly above it covers the whole function.
        for first_line, def_line, end_line in spans:
            if suppression.line in (first_line - 1, first_line, def_line) and (
                first_line <= finding.line <= end_line
            ):
                suppression.used = True
                return True
    return False


def lint_source(
    source: str,
    relpath: str,
    *,
    config: AnalysisConfig | None = None,
    rules: Sequence[Rule] | None = None,
    path: str | None = None,
) -> list[Finding]:
    """Lint one module given as text (the unit tests' entry point).

    ``rules`` may carry accumulated cross-module state; when omitted, a
    fresh default rule set is created and finalized immediately, so the
    result includes whole-program findings for this single module.
    """
    config = config or AnalysisConfig()
    own_rules = rules is None
    if rules is None:
        rules = _create_rules(config)
    findings, _suppressed, _unused = _lint_one(
        source, path or relpath, relpath, config, rules
    )
    if own_rules:
        for rule in rules:
            findings.extend(rule.finalize())
    return sort_findings(findings)


def _lint_one(
    source: str,
    path: str,
    relpath: str,
    config: AnalysisConfig,
    rules: Sequence[Rule],
) -> tuple[list[Finding], int, list[Finding]]:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            rule="parse-error",
            message=f"could not parse: {exc.msg}",
            path=path,
            line=exc.lineno or 0,
            col=(exc.offset or 0),
        )
        return [finding], 0, []
    ctx = ModuleContext(
        path=path, relpath=relpath, source=source, tree=tree, config=config
    )
    suppressions = _parse_suppressions(source)
    spans = _function_spans(tree)
    kept: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check_module(ctx):
            if _is_suppressed(finding, suppressions, spans):
                suppressed += 1
            else:
                kept.append(finding)
    unused = [
        Finding(
            rule="unused-suppression",
            message=(
                "suppression never matched a finding: "
                f"ignore[{', '.join(sorted(s.rules))}]"
            ),
            path=path,
            line=s.line,
            col=1,
            severity=Severity.WARNING,
        )
        for s in suppressions
        if not s.used
    ]
    return kept, suppressed, unused


def _discover(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` once, in first-seen order.

    A file named twice, or reached through overlapping roots, is keyed
    by its resolved path, so neither the counts nor the cross-module
    rules see it twice.
    """
    files: dict[Path, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("*.py"))
        elif path.is_file():
            found = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for file_path in found:
            files.setdefault(file_path.resolve(), file_path)
    return list(files.values())


def _create_rules(
    config: AnalysisConfig, only: Iterable[str] | None = None
) -> list[Rule]:
    """Fresh instances of :func:`standard_rules` (or its ``only`` subset)."""
    classes = standard_rules()
    if only is not None:
        wanted = set(only)
        unknown = wanted - {cls.id for cls in classes}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)!r}")
        classes = [cls for cls in classes if cls.id in wanted]
    return [cls(config) for cls in classes]


def lint_paths(
    paths: Sequence[str | Path],
    *,
    config: AnalysisConfig | None = None,
    only: Sequence[str] | None = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` with one shared rule set.

    Rules see all modules before ``finalize`` runs, so cross-module
    checks (the trigger graph) span the whole scan.
    """
    config = config or AnalysisConfig()
    rules = _create_rules(config, only)
    result = LintResult()
    for file_path in _discover(paths):
        source = file_path.read_text(encoding="utf-8")
        findings, suppressed, unused = _lint_one(
            source,
            str(file_path),
            module_relpath(file_path),
            config,
            rules,
        )
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.unused_suppressions.extend(unused)
        result.files_checked += 1
    for rule in rules:
        result.findings.extend(rule.finalize())
    result.findings = sort_findings(result.findings)
    result.unused_suppressions = sort_findings(result.unused_suppressions)
    return result
