"""The presumed-abort two-phase-commit coordinator.

Protocol (the classic presumed-abort variant, R* style):

1. **Prepare** — the coordinator sends each involved shard its slice
   of the transaction.  Every participant that votes yes has already
   forced a ``PREPARE`` record (with the replay ops) to its own WAL.
2. **Decide** — on unanimous yes the coordinator forces a ``DECISION``
   record (outcome commit, participant list) to *its* WAL.  This
   append is the commit point: the caller is acked as soon as it
   returns.  On any no-vote, refusal or participant crash the
   coordinator sends ``abort`` to the yes-voters and journals nothing —
   *presumed abort*: no decision on disk **means** abort.
3. **Commit** — the decision fans out to the participants.  When every
   one has acknowledged, a lazy ``END`` record lets the coordinator
   forget the transaction; until then it is *outstanding* and will be
   redelivered after a coordinator restart.

Crash analysis, byte by byte:

* participant dies during its ``PREPARE`` append → the record is torn
  off its tail on recovery; it never voted, the coordinator aborts the
  others, nothing was acked — atomic (all-abort);
* participant dies after voting yes → its recovery finds a ``PREPARE``
  with no outcome (*in doubt*) and asks :meth:`TwoPhaseCoordinator
  .resolve`: commit iff the decision record exists — atomic either way;
* coordinator dies during the ``DECISION`` append → if the record
  survived, recovery redelivers commits (participants are idempotent);
  if it tore, every prepared participant resolves to abort.  The ack
  strictly follows the forced append, so no acked transaction can land
  in the torn case — "no lost acked write".
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Mapping

from repro.obs.instrument import OBS, Instrument
from repro.rdb.wal import Journal, WalFrame
from repro.sharding.participant import TwoPhaseError

__all__ = ["TwoPhaseAborted", "TwoPhaseCoordinator"]

TWO_PC = Instrument("counter", "shard.2pc", "outcome")
TWO_PC_SECONDS = Instrument("histogram", "shard.2pc_seconds", "outcome")


class TwoPhaseAborted(TwoPhaseError):
    """A cross-shard transaction was aborted (vote-no or unreachable
    participant); every shard's effects were rolled back."""

    def __init__(self, gtxn: str, reasons: dict[int, str]) -> None:
        detail = "; ".join(
            f"shard {sid}: {why}" for sid, why in sorted(reasons.items())
        ) or "aborted"
        super().__init__(f"transaction {gtxn} aborted ({detail})")
        self.gtxn = gtxn
        self.reasons = reasons


class TwoPhaseCoordinator:
    """Drives cross-shard transactions over duck-typed participants.

    ``participants`` maps shard id to anything with ``prepare(gtxn,
    stmts)``, ``commit(gtxn)`` and ``abort(gtxn)`` — an in-process
    :class:`~repro.sharding.participant.ShardParticipant` or an RPC
    proxy (:class:`~repro.sharding.cluster.ShardClient`).
    """

    def __init__(self, participants: Mapping[int, Any]) -> None:
        """The state before any journal record; :meth:`recover` builds
        a coordinator by replaying its journal into it."""
        self.participants = dict(participants)
        self.journal: Journal
        #: committed decisions not yet acked by every participant
        self.outstanding: dict[str, list[int]] = {}
        self._seq = 1
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    def next_gtxn(self) -> str:
        gtxn = f"g-{self._seq}"
        self._seq += 1
        return gtxn

    def run(
        self, stmts_by_shard: Mapping[int, list[Any]]
    ) -> dict[int, list[Any]]:
        """Run one cross-shard transaction; returns per-shard statement
        results on commit, raises :class:`TwoPhaseAborted` otherwise.

        Single-shard inputs short-circuit to a direct local transaction
        on that shard — no protocol records, same ack guarantee.
        """
        shards = sorted(stmts_by_shard)
        if not shards:
            return {}
        started = OBS.clock() if OBS.enabled else None
        if len(shards) == 1:
            # Not a 2PC at all: one shard, one ordinary local commit.
            sid = shards[0]
            results = self.participants[sid].execute(stmts_by_shard[sid])
            return {sid: results}

        gtxn = self.next_gtxn()
        results: dict[int, list[Any]] = {}
        reasons: dict[int, str] = {}
        prepared: list[int] = []
        for sid in shards:
            try:
                ballot = self.participants[sid].prepare(
                    gtxn, stmts_by_shard[sid]
                )
            except Exception as exc:
                # A participant that died mid-prepare never voted;
                # release the ones already prepared, then let the crash
                # surface (the caller sees no ack).
                self._abort_all(gtxn, prepared)
                self._count_outcome("abort")
                raise
            if not ballot.get("vote"):
                reasons[sid] = str(ballot.get("error", "voted no"))
                break
            prepared.append(sid)
            results[sid] = ballot.get("results", [])
        if len(prepared) < len(shards):
            self._abort_all(gtxn, prepared)
            self._observe("abort", started)
            raise TwoPhaseAborted(gtxn, reasons)

        # Unanimous yes: force the decision — THE commit point.  The
        # caller is acked once this append returns, before any
        # participant has seen the outcome.
        self._log({
            "2pc": "decision", "gtxn": gtxn,
            "outcome": "commit", "shards": shards,
        })
        self._deliver(gtxn)
        self._observe("commit", started)
        return results

    def _abort_all(self, gtxn: str, prepared: Iterable[int]) -> None:
        for sid in prepared:
            try:
                self.participants[sid].abort(gtxn)
            except Exception:
                # Presumed abort: an unreachable participant resolves
                # its own doubt to abort when it comes back.
                pass

    def _deliver(self, gtxn: str) -> None:
        """Fan the commit decision out; journal END once all acked.
        Until then every shard of the decision gets it again on
        redelivery — a commit is idempotent at the participant."""
        acked = True
        for sid in self.outstanding[gtxn]:
            try:
                self.participants[sid].commit(gtxn)
            except Exception:
                acked = False
        if acked:
            # Lazy: END is bookkeeping, not correctness — losing it
            # only costs a redundant (idempotent) redelivery.
            self._log({"2pc": "end", "gtxn": gtxn})

    def redeliver(self) -> list[str]:
        """Re-send the commit decision of every outstanding transaction
        (restart path / retry after a participant came back)."""
        done = []
        for gtxn in list(self.outstanding):
            self._deliver(gtxn)
            if gtxn not in self.outstanding:
                done.append(gtxn)
        return done

    # ------------------------------------------------------------------
    def resolve(self, gtxn: str) -> str:
        """Presumed abort: ``"commit"`` iff a decision was journaled.

        Outstanding decisions answer from memory; anything else —
        including transactions this coordinator has entirely forgotten
        (END written, journal checkpointed) — answers abort, which is
        sound because a participant only asks while *in doubt*, and a
        forgotten transaction was acked by every participant."""
        return "commit" if gtxn in self.outstanding else "abort"

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    def _count_outcome(self, outcome: str) -> None:
        if outcome == "commit":
            self.commits += 1
        else:
            self.aborts += 1
        if OBS.enabled:
            TWO_PC[outcome].inc()

    def _observe(self, outcome: str, started: float | None) -> None:
        self._count_outcome(outcome)
        if started is not None and OBS.enabled:
            TWO_PC_SECONDS[outcome].observe(OBS.clock() - started)

    # ------------------------------------------------------------------
    def _log(self, record: dict[str, Any]) -> None:
        """Journal one protocol record (forced), then apply that same
        record the way :meth:`recover` replays it."""
        self.journal.append_2pc(record)
        self._apply(record)

    def _apply(self, record: dict[str, Any]) -> None:
        """A commit decision is outstanding until its END; the gtxn
        sequence resumes past every id seen."""
        gtxn = record.get("gtxn", "")
        if gtxn.startswith("g-"):
            try:
                self._seq = max(self._seq, int(gtxn[2:]) + 1)
            except ValueError:
                pass
        if record.get("2pc") == "decision" and \
                record.get("outcome") == "commit":
            self.outstanding[gtxn] = [int(s) for s in record["shards"]]
        elif record.get("2pc") == "end":
            self.outstanding.pop(gtxn, None)

    @classmethod
    def recover(
        cls,
        journal_path: str | os.PathLike[str],
        participants: Mapping[int, Any],
        *,
        sync: str = "commit",
        file_wrapper: Callable[[Any], Any] | None = None,
    ) -> "TwoPhaseCoordinator":
        """Rebuild coordinator state from its journal, in the one scan
        that opens it (:meth:`~repro.rdb.wal.Journal.open`): every
        protocol record goes through :meth:`_apply`, as it did live.
        Decisions without an END come back outstanding (redeliver
        them)."""
        coordinator = cls(participants)

        def replay(frame: WalFrame) -> None:
            if frame.kind == "2pc":
                coordinator._apply(frame.payload or {})

        coordinator.journal = Journal.open(
            journal_path, replay, sync=sync, file_wrapper=file_wrapper
        )
        return coordinator
