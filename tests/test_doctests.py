"""Run the doctests embedded in module docstrings, and the README's code.

Examples in docstrings and in the README are part of the documentation
contract; this harness keeps them honest.
"""

import doctest
import re
from pathlib import Path

import pytest

import repro.annotations.model
import repro.distribution.adaptive
import repro.distribution.mtree
import repro.library.search
import repro.net.sim
import repro.rdb.query
import repro.util.rng
import repro.util.units
import repro.workloads.traces
from repro.rdb import Column, ColumnType, Database, Schema

MODULES = [
    repro.annotations.model,
    repro.distribution.adaptive,
    repro.distribution.mtree,
    repro.library.search,
    repro.net.sim,
    repro.rdb.query,
    repro.util.rng,
    repro.util.units,
    repro.workloads.traces,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda module: module.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module.__name__}"
    )


def test_doctests_exist_somewhere():
    """Guard against the suite silently testing nothing."""
    total = sum(
        doctest.testmod(module, verbose=False).attempted
        for module in MODULES
    )
    assert total >= 10


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(first_line: str) -> str:
    """The README's one fenced python block opening with ``first_line``."""
    blocks = re.findall(
        r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S
    )
    (block,) = [b for b in blocks if b.startswith(first_line)]
    return block


def _course_catalog(rows: int = 2000) -> Database:
    """The catalog the README's EXPLAIN examples read: ``rows`` courses,
    a hash index on ``instructor``, a sorted one on ``enrolled``."""
    T = ColumnType
    db = Database("catalog")
    db.create_table(Schema(
        name="courses",
        columns=(
            Column("course_number", T.TEXT, nullable=False),
            Column("title", T.TEXT, nullable=False),
            Column("dept", T.TEXT, nullable=False),
            Column("instructor", T.TEXT, nullable=False),
            Column("enrolled", T.INT, nullable=False),
        ),
        primary_key=("course_number",),
    ))
    db.create_hash_index("courses", "by_instructor", ["instructor"])
    db.create_sorted_index("courses", "by_enrolled", "enrolled")
    depts = ("cs", "ee", "me", "ed", "mm")
    for i in range(rows):
        db.insert("courses", {
            "course_number": f"c{i:06d}",
            "title": f"course {i:06d}",
            "dept": depts[i % len(depts)],
            "instructor": f"prof{i % (rows // 10):04d}",
            "enrolled": (i * 37) % 500,
        })
    return db


def test_readme_quickstart_runs():
    code = _readme_block("from repro.core import WebDocumentDatabase")
    exec(compile(code, f"{README}:Quickstart", "exec"), {})


def test_readme_replication_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = _readme_block("from repro.distribution import MAryTree")
    exec(compile(code, f"{README}:Replication", "exec"), {})


def test_readme_explain_examples():
    test = doctest.DocTestParser().get_doctest(
        _readme_block(">>> from repro.rdb import col"),
        {"db": _course_catalog()}, "README.md EXPLAIN", str(README), 0,
    )
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    report: list[str] = []
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
    assert runner.tries >= 9
