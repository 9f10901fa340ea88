#!/usr/bin/env python3
"""Which functions in ``src/repro`` does no front door execute?

Runs every front door the repo has — the three ``python -m`` CLIs, the
six examples, E1–E21 (``--smoke`` where a script has one) and the four
E22 workloads at both trace levels — in this one process under a
function-granularity ``sys.settrace``, and prints per package the
function-body lines (``def`` to last line) none of them entered, then
the functions behind each number, largest first.  E22 runs one workload
per call, never ``--smoke``: that form forks children no tracer follows.

A report for the code diet (ROADMAP), not a gate: most of what it lists
is paper surface, safety code, oracles and ``stats()`` that stay by
rule.  The exit status is non-zero only if a front door's own is.

Usage:  python benchmarks/reach.py        (about five minutes)
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import threading
import traceback
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

FRONT_DOORS: list[list[str]] = [
    ["-m", "repro"],
    ["-m", "repro.obs", "demo"],
    ["-m", "repro.analysis", "lint", "--strict"],
    *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
    *([str(path), *(["--smoke"] if "--smoke" in path.read_text() else [])]
      for path in sorted((ROOT / "benchmarks").glob("bench_e*.py"))),
    *([str(ROOT / "benchmarks/e22/run.py"), "--workload", workload,
       "--seed", "7", "--seconds", "2", "--trace", trace]
      for workload in ("registration_rush", "library_browse",
                       "catalog_reports", "semester_mix")
      for trace in "01"),
]


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` of every function
    and method in ``src/repro``; a nested ``def`` counts with its parent.
    The first line is the first decorator's, as ``co_firstlineno`` is."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        stack = [("", ast.parse(path.read_text(encoding="utf-8")))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(d.lineno for d in
                                [child, *child.decorator_list])
                    found[str(path), first] = (
                        prefix + child.name,
                        child.end_lineno - child.lineno + 1)
                elif isinstance(child, ast.ClassDef):
                    stack.append((f"{prefix}{child.name}.", child))
                elif isinstance(child, ast.stmt):  # if/try/with bodies
                    stack.append((prefix, child))
    return found


def run(argv: list[str], entered: set[types.CodeType]) -> int:
    """One front door as ``__main__``, the code object of every function
    it enters added to ``entered``; returns its exit status."""
    def tracer(frame, event, arg):  # None back: no per-line tracing
        entered.add(frame.f_code)

    module = argv[0] == "-m"
    saved, sys.argv = sys.argv, argv[1:] if module else argv
    output = io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(output):
            if module:
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(argv[0], run_name="__main__")
        status = 0
    except SystemExit as exit_:
        status = (exit_.code if isinstance(exit_.code, int)
                  else int(exit_.code is not None))
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.argv = saved
    if status:
        sys.stderr.write(output.getvalue())
    print(f"exit {status}  {' '.join(argv)}", file=sys.stderr)
    return status


def main() -> int:
    codes: set[types.CodeType] = set()
    failed = sum(run(argv, codes) != 0 for argv in FRONT_DOORS)
    entered = {(code.co_filename, code.co_firstlineno) for code in codes}
    packages = defaultdict(lambda: [0, 0, []])  # unreached, total, functions
    for (path, first), (name, lines) in functions().items():
        where = Path(path).relative_to(SRC)
        row = packages[where.parts[0] if len(where.parts) > 1 else "(top)"]
        row[1] += lines
        if (path, first) not in entered:
            row[0] += lines
            row[2].append((-lines, f"{where}:{first} {name}"))
    print(f"function-body lines no front door executes / total "
          f"({len(FRONT_DOORS)} front doors, {failed} failed)")
    for package, (unreached, total, _) in sorted(packages.items()):
        print(f"{package:14s} {unreached:6d} / {total:6d}")
    print(f"{'src/repro':14s} {sum(r[0] for r in packages.values()):6d} / "
          f"{sum(r[1] for r in packages.values()):6d}\n")
    for package, (_, _, unreached) in sorted(packages.items()):
        for lines, where in sorted(unreached):
            print(f"{package:14s} {-lines:6d}  {where}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
