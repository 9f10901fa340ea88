"""``python -m repro.analysis`` — the lint CLI.

Commands::

    python -m repro.analysis lint [paths...] [--strict] [--format json]
                                  [--rule ID ...]
    python -m repro.analysis rules

With no paths, ``lint`` scans ``src/repro`` under the current
directory.  Exit codes: 0 clean, 1 findings (in strict mode also
warnings and unused suppressions), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Severity
from repro.analysis.linter import lint_paths
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import standard_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for the WDDB core.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser("lint", help="run the AST lint rules")
    lint.add_argument("paths", nargs="*", help="files/directories to scan")
    lint.add_argument(
        "--strict",
        action="store_true",
        help="gate on warnings and unused suppressions as well as errors",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule (repeatable)",
    )

    commands.add_parser("rules", help="list the rule catalogue")
    return parser


def _cmd_rules() -> int:
    for rule in sorted(standard_rules(), key=lambda rule: rule.id):
        print(f"{rule.id:32} {rule.severity.value:8} {rule.summary}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    paths = args.paths or list(AnalysisConfig().paths)
    result = lint_paths(paths, only=args.rules)
    display = list(result.findings)
    if args.strict:
        display.extend(result.unused_suppressions)

    render = render_json if args.fmt == "json" else render_text
    print(
        render(
            display,
            files_checked=result.files_checked,
            suppressed=result.suppressed,
        )
    )
    if args.strict:
        return 1 if display else 0
    errors = [f for f in result.findings if f.severity is Severity.ERROR]
    return 1 if errors else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "rules":
        return _cmd_rules()
    try:
        return _cmd_lint(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
