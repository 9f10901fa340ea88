"""Configuration for the analysis subsystem.

The defaults below are the configuration: nothing is read from disk, so
a lint of explicit paths gives the same verdict from any directory.
Tests that need another scope construct ``AnalysisConfig(...)``.  All
path-shaped options are matched against a file's *module-relative*
path — the path from the ``repro`` package root down, e.g.
``repro/rdb/table.py`` — so the configuration is independent of where
the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

__all__ = ["AnalysisConfig", "module_relpath"]


@dataclass(frozen=True)
class AnalysisConfig:
    """Path scopes for the lint rules and the CLI's default scan root."""

    #: Default scan roots when the CLI gets no path arguments.
    paths: tuple[str, ...] = ("src/repro",)

    #: Module-relative prefixes that count as simulation/experiment code
    #: for the nondeterminism guard.
    simulation_paths: tuple[str, ...] = (
        "repro/net/",
        "repro/workloads/",
        "repro/distribution/",
        "repro/fault/",
    )

    #: Modules allowed to call ``Table.apply_*`` without an undo record:
    #: the table itself and the undo log that replays inverses.
    mutation_allowlist: tuple[str, ...] = (
        "repro/rdb/table.py",
        "repro/rdb/transaction.py",
    )

    #: Modules that legitimately touch ``Table._rows`` / ``_next_rowid``
    #: internals (the rest must go through the index-maintaining API).
    index_internal_modules: tuple[str, ...] = ("repro/rdb/table.py",)

    #: Modules allowed to build code at runtime (``exec``/``eval``).
    #: Inside them the codegen-namespace rule audits that generated code
    #: runs under an explicit namespace with a pinned builtins whitelist
    #: free of I/O/import/entropy names; everywhere else any
    #: ``exec``/``eval`` call is flagged outright.
    codegen_modules: tuple[str, ...] = ("repro/rdb/compile.py",)

    #: Module-relative prefixes where a silently-swallowed
    #: ``LockConflictError`` is treated as a defect.
    lock_sensitive_paths: tuple[str, ...] = (
        "repro/core/",
        "repro/fault/",
        "repro/distribution/",
        "repro/tiers/",
    )

    #: Module-relative prefixes audited by the retry-discipline rule:
    #: retry loops here must be bounded by a deadline/budget AND pace
    #: themselves with backoff (see rules/retry.py).
    retry_paths: tuple[str, ...] = (
        "repro/net/",
        "repro/fault/",
        "repro/replication/",
        "repro/tiers/",
        "repro/distribution/",
    )

    def in_simulation_path(self, relpath: str) -> bool:
        return relpath.startswith(tuple(self.simulation_paths))

    def in_lock_sensitive_path(self, relpath: str) -> bool:
        return relpath.startswith(tuple(self.lock_sensitive_paths))

    def in_retry_path(self, relpath: str) -> bool:
        return relpath.startswith(tuple(self.retry_paths))


def module_relpath(path: str | Path) -> str:
    """A file's path from the ``repro`` package root down.

    Files outside any ``repro`` package (e.g. test fixtures in a temp
    directory) fall back to their plain file name, so path-scoped rules
    simply do not apply to them unless the fixture builds a
    ``repro/...`` directory shape.
    """
    parts = Path(path).as_posix().split("/")
    for position in range(len(parts) - 1, -1, -1):
        if parts[position] == "repro":
            return "/".join(parts[position:])
    return parts[-1]
