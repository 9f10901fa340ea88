"""Correctness tooling for the WDDB core: lint + race detection.

The paper's collaborative-authoring story rests on hierarchical locking
and referential-integrity triggers being correct *under concurrency*.
This package verifies those invariants mechanically, in two halves that
share one findings model (:mod:`repro.analysis.findings`) and the same
text/JSON reporters:

* a **static AST lint** (:mod:`repro.analysis.linter`) running the
  domain rules of :func:`repro.analysis.rules.standard_rules` —
  transaction discipline, trigger-recursion, nondeterminism, index
  invariants and exception hygiene — as ``python -m repro.analysis
  lint``.  Its settings are the defaults of
  :class:`~repro.analysis.config.AnalysisConfig`, and the one way to
  accept a finding is an inline, rule-scoped
  ``# repro-analysis: ignore[rule] -- why`` comment, which strict mode
  reports once it stops matching;

* a **dynamic lock-order race detector**
  (:mod:`repro.analysis.lockorder`) that observes
  :class:`repro.core.locking.LockManager` acquisitions, maintains a
  global lock-order graph and reports potential deadlocks (cycles) and
  lock-hierarchy violations at acquire time.  Opt in per manager with
  :func:`attach_detector`, or process-wide with the
  ``REPRO_LOCK_DETECTOR`` environment variable.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.linter import LintResult, lint_paths, lint_source
from repro.analysis.lockorder import (
    LockOrderDetector,
    attach_detector,
    detach_detector,
    detector_for,
)
from repro.analysis.registry import Rule
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "AnalysisConfig",
    "Finding",
    "LintResult",
    "LockOrderDetector",
    "Rule",
    "Severity",
    "attach_detector",
    "detach_detector",
    "detector_for",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
]
