"""One shard of a sharded database: local execution plus 2PC voting.

A :class:`ShardParticipant` wraps one :class:`~repro.rdb.engine
.Database` and its framed WAL.  It serves two write paths:

* **direct** — single-shard statements execute as ordinary local
  transactions (:meth:`ShardParticipant.execute`); durability is the
  engine's usual commit-time journal append;
* **two-phase** — for a cross-shard transaction the coordinator first
  calls :meth:`prepare`, which runs the statements inside an engine
  transaction (constraints checked, triggers fired), captures the
  transaction's replay ops and rolls it back, then journals a
  ``PREPARE`` record carrying those ops (forced to disk — the yes vote
  is a promise).  :meth:`commit` or :meth:`abort` journals the outcome.

Every protocol record moves the shard's state one way: it is journaled,
then applied through :meth:`~repro.rdb.engine.Database.apply_2pc` — the
step recovery's :meth:`~repro.rdb.engine.Database.apply_frame` takes
for the same record.  A ``PREPARE`` only holds its ops
(:attr:`ShardParticipant.in_doubt`), the matching ``COMMIT`` applies
them at its own position, an ``ABORT`` drops them.  The live shard is
therefore always the replay of its own journal, and until its outcome
applies a prepared transaction's rows are visible to no reader.

While a transaction is prepared the participant **blocks**: every
other write is refused until the outcome arrives.  That is the
textbook cost of 2PC — a prepared participant holds its locks — and
here it is also a correctness lever: prepare/outcome record pairs are
never interleaved with other writes on the same shard, and at most one
transaction can be in doubt per shard after a crash.

Recovery (:func:`recover_participant`) is the engine's own
:meth:`~repro.rdb.engine.Database.open`, which replays the journal
**in LSN order**.  A prepare with no outcome on disk stays **in
doubt**: the participant refuses writes until :meth:`resolve_in_doubt`
asks the coordinator — presumed abort: no journaled decision means
abort.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from repro.obs.instrument import OBS, Instrument
from repro.rdb import Database, Schema
from repro.rdb.errors import RdbError
from repro.rdb.wal import Journal

__all__ = ["TwoPhaseError", "ShardParticipant", "recover_participant"]

IN_DOUBT = Instrument("gauge", "shard.in_doubt", "shard")

#: What a routed statement of the wrong shape raises (a wrong-typed
#: value, ``None`` for a row, a non-``Expr`` where): input from outside
#: the shard, answered with a no vote like any constraint violation.
_BAD_STATEMENT = (RdbError, TypeError, AttributeError, ValueError, LookupError)


#: each outcome record's past tense, for the error a contrary one raises
_SETTLED = {"commit": "committed", "abort": "aborted"}


class TwoPhaseError(RdbError):
    """A 2PC protocol violation or a write refused by a blocked shard."""


def apply_statement(db: Database, stmt: Sequence[Any]) -> Any:
    """Execute one routed statement against a shard's database.

    Statements are small op-shaped sequences — ``["insert", table,
    values]``, ``["insert_many", table, rows]``, ``["upsert", table,
    values]``, ``["update", table, changes, where]``, ``["update_pk",
    table, pk, changes]``, ``["delete", table, where]``, ``["delete_pk",
    table, pk]`` — with WHERE as a live :class:`~repro.rdb.predicate
    .Expr` (the simulated network passes objects through).
    """
    op, table = stmt[0], stmt[1]
    if op == "insert":
        return db.insert(table, stmt[2])
    if op == "insert_many":
        return db.insert_many(table, stmt[2])
    if op == "upsert":
        return db.upsert(table, stmt[2])
    if op == "update":
        return db.update(table, stmt[2], stmt[3])
    if op == "update_pk":
        return db.update_pk(table, stmt[2], stmt[3])
    if op == "delete":
        return db.delete(table, stmt[2])
    if op == "delete_pk":
        return db.delete_pk(table, stmt[2])
    raise TwoPhaseError(f"unknown routed statement {op!r}")


class ShardParticipant:
    """One shard's engine, journal and 2PC state machine."""

    def __init__(self, shard_id: int, db: Database) -> None:
        if db.journal is None:
            raise ValueError("a shard's database must be journaling")
        self.shard_id = shard_id
        self.db = db
        self.journal: Journal = db.journal
        #: every prepare still awaiting its outcome, live or found by
        #: recovery: the ops ``db`` holds, so settling one releases it
        self.in_doubt: dict[str, list[Any]] = db.prepared_ops
        self.recovery_stats = db.recovery_stats
        self._observe_in_doubt()

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if self.in_doubt:
            raise TwoPhaseError(
                f"shard {self.shard_id} is blocked by in-doubt "
                f"transaction(s) {sorted(self.in_doubt)}; resolve "
                "before writing"
            )

    def _log(self, record: dict[str, Any]) -> None:
        """Journal one protocol record (forced), then apply that same
        record the way recovery replays it."""
        self.journal.append_2pc(record)
        self.db.apply_2pc(record)
        self._observe_in_doubt()

    def execute(self, stmts: Sequence[Sequence[Any]]) -> list[Any]:
        """Run statements as one ordinary local transaction (the
        single-shard fast path; no 2PC records)."""
        self._require_writable()
        with self.db.transaction():
            return [apply_statement(self.db, s) for s in stmts]

    def prepare(self, gtxn: str, stmts: Sequence[Sequence[Any]]) -> dict:
        """Phase one: execute, journal PREPARE, vote.

        Returns ``{"vote": True, "results": [...]}`` with the ops held
        for the outcome, or ``{"vote": False, "error": ...}``.  Either
        way the engine transaction is rolled back before anything is
        journaled, so the shard serves its committed state until an
        outcome record applies.  A participant that is blocked (already
        prepared, or in doubt) votes no rather than waiting — the
        single-transaction engine cannot queue behind the lock.
        """
        if self.in_doubt or self.db.in_transaction:
            return {
                "vote": False,
                "error": f"shard {self.shard_id} is blocked",
            }
        self.db.begin()
        try:
            results = [apply_statement(self.db, s) for s in stmts]
            ops = self.db.pending_wal_ops()
        except _BAD_STATEMENT as exc:
            return {"vote": False, "error": str(exc)}
        finally:
            # Yes or no, the shard keeps its committed state: a crash in
            # the append below leaves nothing half applied.
            self.db.rollback()
        # The vote is a promise: the PREPARE record (ops included) is
        # forced to disk before "yes" leaves this shard.
        self._log({"2pc": "prepare", "gtxn": gtxn, "ops": ops})
        return {"vote": True, "results": results}

    def commit(self, gtxn: str) -> bool:
        """Phase two, commit outcome.  Idempotent: redelivery after the
        outcome was journaled (or after a checkpoint dropped the whole
        exchange) acknowledges without re-applying."""
        return self._settle(gtxn, "commit")

    def abort(self, gtxn: str) -> bool:
        """Phase two, abort outcome (also the vote-no cleanup path)."""
        return self._settle(gtxn, "abort")

    def _settle(self, gtxn: str, outcome: str) -> bool:
        if gtxn in self.in_doubt:
            self._log({"2pc": outcome, "gtxn": gtxn})
            return True
        # Settled already (a redelivery), or forgotten after a
        # checkpoint: acknowledge — unless the journal says otherwise.
        settled = self.db.outcomes.get(gtxn, outcome)
        if settled != outcome:
            raise TwoPhaseError(
                f"{outcome} for {gtxn} after it was {_SETTLED[settled]} "
                f"on shard {self.shard_id}"
            )
        return True

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def resolve_in_doubt(
        self, resolver: Callable[[str], str]
    ) -> dict[str, str]:
        """Settle every in-doubt transaction against the coordinator.

        ``resolver(gtxn)`` must return ``"commit"`` or ``"abort"`` —
        :meth:`~repro.sharding.coordinator.TwoPhaseCoordinator.resolve`
        implements presumed abort (commit iff a decision was journaled).
        Each outcome is journaled here before it is applied, so a crash
        mid-resolution just re-enters recovery with fewer doubts.
        """
        resolved: dict[str, str] = {}
        for gtxn in list(self.in_doubt):
            outcome = resolver(gtxn)
            if outcome not in _SETTLED:
                raise TwoPhaseError(
                    f"resolver returned {outcome!r} for {gtxn}"
                )
            self._log({"2pc": outcome, "gtxn": gtxn})
            resolved[gtxn] = outcome
        return resolved

    def checkpoint(self, snapshot_path: str | os.PathLike[str]) -> None:
        """Snapshot + journal truncation, refused while any transaction
        is prepared or in doubt — a checkpoint must never separate a
        PREPARE record from its outcome."""
        if self.in_doubt:
            raise TwoPhaseError(
                "cannot checkpoint with prepared transactions outstanding"
            )
        self.db.snapshot(str(snapshot_path))

    # ------------------------------------------------------------------
    # Reads (delegations so the RPC layer has one call surface)
    # ------------------------------------------------------------------
    def select(self, table: str, **kwargs: Any) -> list[dict[str, Any]]:
        return self.db.select(table, **kwargs)

    def count(self, table: str, where: Any = None) -> int:
        return self.db.count(table, where)

    def get(self, table: str, pk: Any) -> dict[str, Any] | None:
        return self.db.get(table, pk)

    def exists(self, table: str, pk: Any) -> bool:
        return self.db.exists(table, pk)

    def aggregate(self, table: str, spec: dict, where: Any = None,
                  group_by: Sequence[str] | None = None) -> list[dict]:
        return self.db.aggregate(table, spec, where, group_by)

    def join(self, left: str, right: str, on: Sequence[tuple[str, str]],
             **kwargs: Any) -> list[dict[str, Any]]:
        return self.db.join(left, right, on, **kwargs)

    def explain_plan(self, table: str, where: Any = None) -> Any:
        return self.db.explain_plan(table, where)

    def last_lsn(self) -> int:
        return self.journal.last_lsn

    def status(self) -> dict[str, Any]:
        """Protocol-visible state (fixtures and tests poke at this)."""
        return {
            "shard": self.shard_id,
            "in_doubt": sorted(self.in_doubt),
            "last_lsn": self.journal.last_lsn,
        }

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    def _observe_in_doubt(self) -> None:
        if OBS.enabled:
            IN_DOUBT[str(self.shard_id)].set(len(self.in_doubt))


def recover_participant(
    shard_id: int,
    schemas: Sequence[Schema],
    journal_path: str | os.PathLike[str],
    *,
    snapshot_path: str | os.PathLike[str] | None = None,
    ddl_fn: Callable[[Database], None] | None = None,
    sync: str = "commit",
    file_wrapper: Callable[[Any], Any] | None = None,
) -> ShardParticipant:
    """Cold-start one shard from its snapshot + journal.

    The integrated replay described in the module docstring: records
    stream in LSN order, prepared ops apply only at their journaled
    outcome, and unresolved prepares surface as ``in_doubt`` on the
    returned participant (which then refuses writes until
    :meth:`ShardParticipant.resolve_in_doubt` runs).  Strict only: a
    damaged vote cannot be skipped without breaking atomicity.
    """
    db = Database.open(
        f"shard-{shard_id}", schemas,
        snapshot_path=snapshot_path, journal_path=journal_path,
        sync=sync, file_wrapper=file_wrapper,
    )
    if ddl_fn is not None:
        ddl_fn(db)
    return ShardParticipant(shard_id, db)
