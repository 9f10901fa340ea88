"""The merged tree must lint clean — the same gate CI applies.

Keeping this as a test (not only a CI job) means a plain
``python -m pytest`` run catches a rule regression or a new violation
without needing the workflow.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean_with_repo_config():
    # The repo's configuration is AnalysisConfig's defaults.
    result = lint_paths([REPO_ROOT / "src" / "repro"])
    assert result.findings == [], "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in result.findings
    )
    # Strict gate: every inline suppression must still be load-bearing.
    assert result.unused_suppressions == []
    assert result.files_checked >= 100


def test_known_suppressions_are_counted():
    # The deliberate replay escapes stay visible as a count, so a silent
    # drift in suppression handling shows up here: the engine's
    # snapshot load (1, shared by recover and WebDocumentDatabase.load)
    # and the three raw mutators of _replay_op.
    result = lint_paths([REPO_ROOT / "src" / "repro"])
    assert result.suppressed == 4
