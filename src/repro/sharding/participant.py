"""One shard of a sharded database: local execution plus 2PC voting.

A :class:`ShardParticipant` wraps one :class:`~repro.rdb.engine
.Database` and its framed WAL.  It serves two write paths:

* **direct** — single-shard statements execute as ordinary local
  transactions (:meth:`ShardParticipant.execute`); durability is the
  engine's usual commit-time journal append;
* **two-phase** — for a cross-shard transaction the coordinator first
  calls :meth:`prepare`, which runs the statements inside an open
  engine transaction (constraints checked, triggers fired), journals a
  ``PREPARE`` record carrying the transaction's replay ops (forced to
  disk — the yes vote is a promise), and holds the engine transaction
  open until :meth:`commit` or :meth:`abort` journals the outcome.

While a transaction is prepared the participant **blocks**: every
other write is refused until the outcome arrives.  That is the
textbook cost of 2PC — a prepared participant holds its locks — and
here it is also a correctness lever: prepare/outcome record pairs are
never interleaved with other writes on the same shard, and at most one
transaction can be in doubt per shard after a crash.

Recovery (:func:`recover_participant`) is the engine's own
:meth:`~repro.rdb.engine.Database.open`, which replays the journal
**in LSN order** through :meth:`~repro.rdb.engine.Database.apply_frame`:
committed transactions apply as usual, a ``PREPARE`` is held, and its
ops are applied only when the matching ``COMMIT`` record is reached (an
``ABORT`` drops them).  A prepare with no outcome on disk is
**in doubt**: the participant refuses writes until
:meth:`resolve_in_doubt` asks the coordinator — presumed abort: no
journaled decision means abort.
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
        #: gtxn currently prepared and awaiting its outcome (live)
        self._live_gtxn: str | None = None
        #: prepared-but-unresolved transactions found by recovery: the
        #: prepares ``db`` still holds, so settling one releases it there
        self.in_doubt: dict[str, list[Any]] = db.prepared_ops
        outcomes = db.outcomes.items()
        self.committed = {g for g, how in outcomes if how == "commit"}
        self.aborted = {g for g, how in outcomes if how == "abort"}
        self.recovery_stats = db.recovery_stats
        self._observe_in_doubt()

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _require_writable(self) -> None:
        if self.in_doubt:
            raise TwoPhaseError(
                f"shard {self.shard_id} has {len(self.in_doubt)} "
                "in-doubt transaction(s); resolve before writing"
            )
        if self._live_gtxn is not None:
            raise TwoPhaseError(
                f"shard {self.shard_id} is blocked by prepared "
                f"transaction {self._live_gtxn}"
            )

    def execute(self, stmts: Sequence[Sequence[Any]]) -> list[Any]:
        """Run statements as one ordinary local transaction (the
        single-shard fast path; no 2PC records)."""
        self._require_writable()
        with self.db.transaction():
            return [apply_statement(self.db, s) for s in stmts]

    def prepare(self, gtxn: str, stmts: Sequence[Sequence[Any]]) -> dict:
        """Phase one: execute, journal PREPARE, vote.

        Returns ``{"vote": True, "results": [...]}`` with the engine
        transaction left open, or ``{"vote": False, "error": ...}``
        with every effect rolled back.  A participant that is blocked
        (already prepared, or in doubt) votes no rather than waiting —
        the single-transaction engine cannot queue behind the lock.
        """
        if self.in_doubt or self._live_gtxn is not None \
                or self.db.in_transaction:
            return {
                "vote": False,
                "error": f"shard {self.shard_id} is blocked",
            }
        self.db.begin()
        try:
            results = [apply_statement(self.db, s) for s in stmts]
            ops = self.db.pending_wal_ops()
        except BaseException as exc:
            self.db.rollback()  # whatever it was, the shard is not left blocked
            if not isinstance(exc, _BAD_STATEMENT):
                raise
            return {"vote": False, "error": str(exc)}
        # The vote is a promise: the PREPARE record (ops included) is
        # forced to disk before "yes" leaves this shard.
        self.journal.append_2pc(
            {"2pc": "prepare", "gtxn": gtxn, "ops": ops}
        )
        self._live_gtxn = gtxn
        return {"vote": True, "results": results}

    def commit(self, gtxn: str) -> bool:
        """Phase two, commit outcome.  Idempotent: redelivery after the
        outcome was journaled (or after a checkpoint dropped the whole
        exchange) acknowledges without re-applying."""
        if self._live_gtxn == gtxn:
            # Outcome record first: if we die right after this append,
            # recovery replays the prepared ops at this exact position.
            self.journal.append_2pc({"2pc": "commit", "gtxn": gtxn})
            self._live_gtxn = None
            self.db.commit_prepared()
            self.committed.add(gtxn)
            return True
        if gtxn in self.in_doubt:
            # Redelivered outcome beat resolve_in_doubt to a recovered
            # prepare: settle it now, exactly as resolution would.
            self.journal.append_2pc({"2pc": "commit", "gtxn": gtxn})
            ops = self.in_doubt.pop(gtxn)
            self.db.apply_replicated({"txn": None, "ops": ops})
            self.committed.add(gtxn)
            self._observe_in_doubt()
            return True
        if gtxn in self.aborted:
            raise TwoPhaseError(
                f"commit for {gtxn} after it was aborted on shard "
                f"{self.shard_id}"
            )
        # Already committed, or forgotten after a checkpoint: ack.
        return True

    def abort(self, gtxn: str) -> bool:
        """Phase two, abort outcome (also the vote-no cleanup path)."""
        if self._live_gtxn == gtxn:
            self.journal.append_2pc({"2pc": "abort", "gtxn": gtxn})
            self._live_gtxn = None
            self.db.rollback()
            self.aborted.add(gtxn)
        elif gtxn in self.in_doubt:
            self.journal.append_2pc({"2pc": "abort", "gtxn": gtxn})
            self.in_doubt.pop(gtxn)
            self.aborted.add(gtxn)
            self._observe_in_doubt()
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
        outcomes: dict[str, str] = {}
        for gtxn in list(self.in_doubt):
            outcome = resolver(gtxn)
            if outcome not in ("commit", "abort"):
                raise TwoPhaseError(
                    f"resolver returned {outcome!r} for {gtxn}"
                )
            self.journal.append_2pc({"2pc": outcome, "gtxn": gtxn})
            ops = self.in_doubt.pop(gtxn)
            if outcome == "commit":
                self.db.apply_replicated({"txn": None, "ops": ops})
                self.committed.add(gtxn)
            else:
                self.aborted.add(gtxn)
            outcomes[gtxn] = outcome
        self._observe_in_doubt()
        return outcomes

    def checkpoint(self, snapshot_path: str | os.PathLike[str]) -> None:
        """Snapshot + journal truncation, refused while any transaction
        is prepared or in doubt — a checkpoint must never separate a
        PREPARE record from its outcome."""
        if self._live_gtxn is not None or self.in_doubt:
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
            "prepared": self._live_gtxn,
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
