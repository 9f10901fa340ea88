"""Follower-side staged recovery and live tailing.

A follower class administrator catches up in the staged sequence the
ZKAPAuthorizer backup/recovery design uses for its replicas (see
SNIPPETS.md): an explicit state machine whose stages are observable,
so operators — and the crash harness — can tell *where* in recovery a
follower is at any moment:

    INACTIVE → DOWNLOADING_SNAPSHOT → REPLAYING_JOURNAL → TAILING
                                                            ↓
                                                        CAUGHT_UP

Durability discipline: every shipped frame is appended **verbatim** to
the follower's own journal (:meth:`~repro.rdb.wal.Journal.append_raw`)
*before* it is applied to the in-memory database, and each received
batch is synced under the journal's policy — one fsync per batch — before
the follower acknowledges it.  The follower's disk
state is therefore always a byte-prefix of the primary's journal plus
a snapshot watermark — which means a follower killed at any byte
offset recovers through exactly the committed-prefix machinery E17
proves for the primary, then resumes the stream from its applied LSN.

Each subscription carries the follower's history digest at its applied
LSN (:mod:`repro.rdb.wal`) for the primary to check against its own; an
installed snapshot's header seeds the fresh journal's digest.

Both the journal file and the snapshot download can be wrapped with a
:class:`~repro.fault.crashsim.FailpointFile`-style wrapper, which is
how :mod:`repro.replication.chaos` kills followers mid-catch-up.
"""

from __future__ import annotations

import enum
import os
from pathlib import Path
from typing import Any, BinaryIO, Callable, Sequence

from repro.net.messages import (
    Message,
    REPL_FRAMES,
    REPL_SNAPSHOT_CHUNK,
    REPL_SNAPSHOT_META,
    REPL_STATUS,
    REPL_SUBSCRIBE,
    ReplFrameBatch,
    ReplSnapshotChunk,
    ReplSnapshotMeta,
    ReplStatus,
    ReplSubscribe,
)
from repro.net.station import Station
from repro.net.transport import Network
from repro.obs.instrument import OBS, Instrument
from repro.rdb import Database, Schema, SyncPolicy
from repro.rdb.errors import JournalCorruptError
from repro.rdb.wal import Journal, WalFrame, parse_frame

__all__ = ["RecoveryStage", "Recoverer"]

STAGE_TRANSITIONS = Instrument("counter", "replication.stage_transitions", "stage")


class RecoveryStage(enum.Enum):
    """Where a follower is in its catch-up state machine."""

    INACTIVE = "inactive"
    DOWNLOADING_SNAPSHOT = "downloading_snapshot"
    REPLAYING_JOURNAL = "replaying_journal"
    TAILING = "tailing"
    CAUGHT_UP = "caught_up"
    FAILED = "failed"


class Recoverer:
    """One follower: staged recovery, durable tailing, status reports.

    ``data_dir`` holds the follower's own snapshot + journal; restart
    the follower by constructing a fresh Recoverer over the same
    directory and calling :meth:`start` — local recovery replays what
    survived, then the subscription resumes the stream from there.

    ``ddl_fn`` re-issues secondary-index DDL after each database
    rebuild (same contract as the E17 harness).  ``on_apply`` fires
    after every applied frame — a relaying tree member pumps its
    children from it.
    """

    def __init__(
        self,
        network: Network,
        station_name: str,
        primary_name: str,
        schemas: Sequence[Schema],
        data_dir: str | os.PathLike[str],
        *,
        sync_policy: "SyncPolicy | str" = "commit",
        epoch: int = 1,
        file_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
        snapshot_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
        ddl_fn: Callable[[Database], None] | None = None,
        on_apply: Callable[[WalFrame], None] | None = None,
        on_rebuild: Callable[[Database], None] | None = None,
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.primary_name = primary_name
        self.schemas = list(schemas)
        self.data_dir = Path(data_dir)
        self.sync_policy = SyncPolicy.parse(sync_policy)
        self.epoch = epoch
        self.file_wrapper = file_wrapper
        self.snapshot_wrapper = snapshot_wrapper
        self.ddl_fn = ddl_fn
        self.on_apply = on_apply
        #: called with the new Database whenever local state is rebuilt
        #: (startup recovery and snapshot installs), once the engine
        #: *and* the journal behind it are live — a relaying member
        #: re-opens its shipper over the fresh journal here
        self.on_rebuild = on_rebuild
        self.db: Database | None = None
        self.journal: Journal | None = None
        self.applied_lsn = 0
        self.stage = RecoveryStage.INACTIVE
        self.stage_history: list[RecoveryStage] = [self.stage]
        self.frames_applied = 0
        self.resubscribes = 0
        # In-flight snapshot download state
        self._snap_meta: ReplSnapshotMeta | None = None
        self._snap_fh: Any = None
        self._snap_seq = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> Path:
        return self.data_dir / "replica.snapshot"

    @property
    def journal_path(self) -> Path:
        return self.data_dir / "replica.wal"

    @property
    def caught_up(self) -> bool:
        return self.stage is RecoveryStage.CAUGHT_UP

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover local state, register handlers, subscribe."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._enter(RecoveryStage.REPLAYING_JOURNAL)
        self._open_local()
        self.applied_lsn = max(self.journal.last_lsn, self.db.recovery_stats.watermark)
        if self.on_rebuild is not None:
            self.on_rebuild(self.db)
        self._detach()
        station = self.network.station(self.station_name)
        station.on(REPL_SNAPSHOT_META, self._on_snapshot_meta)
        station.on(REPL_SNAPSHOT_CHUNK, self._on_snapshot_chunk)
        station.on(REPL_FRAMES, self._on_frames)
        self._enter(RecoveryStage.TAILING)
        self._subscribe()

    def _open_local(self) -> None:
        """Open this follower's own snapshot + journal (committed-prefix
        recovery, torn tail trimmed).  The engine comes back journaling
        to that file, but a follower's rows change only through
        ``apply_frame``, which never re-journals: :meth:`_on_frames`
        appends each shipped frame itself, verbatim."""
        self.db = Database.open(
            self.station_name.replace("-", "_"), self.schemas,
            snapshot_path=str(self.snapshot_path),
            journal_path=str(self.journal_path),
            sync=self.sync_policy, file_wrapper=self.file_wrapper,
        )
        if self.ddl_fn is not None:
            self.ddl_fn(self.db)
        self.journal = self.db.journal

    def _detach(self) -> None:
        station = self.network.station(self.station_name)
        for kind in (REPL_SNAPSHOT_META, REPL_SNAPSHOT_CHUNK, REPL_FRAMES):
            station.off(kind)
        self._abort_download()

    def stop(self) -> None:
        """Detach from the stream (promotion, shutdown)."""
        self._detach()
        if self.journal is not None:
            self.journal.close()

    def promote(self) -> Database:
        """Detach from the stream and hand over the engine for primary
        duty.  Unlike :meth:`stop` its journal stays open, so the new
        primary's commits continue the same file: the caller snapshots
        to open the new WAL epoch and ships the engine with a fresh
        :class:`~repro.replication.shipper.WalShipper`."""
        assert self.db is not None and self.journal is not None
        self._detach()
        self._enter(RecoveryStage.CAUGHT_UP)
        return self.db

    def retarget(self, primary_name: str, *, epoch: int | None = None) -> None:
        """Follow a different primary (after a failover promotion)."""
        self.primary_name = primary_name
        if epoch is not None:
            self.epoch = max(self.epoch, epoch)
        self._enter(RecoveryStage.TAILING)
        self._subscribe()

    def _subscribe(self) -> None:
        self.resubscribes += 1
        self.network.send(
            self.station_name, self.primary_name, REPL_SUBSCRIBE,
            ReplSubscribe(
                follower=self.station_name, applied_lsn=self.applied_lsn,
                epoch=self.epoch, digest=self.journal.digest,
            ),
            64,
        )

    def _enter(self, stage: RecoveryStage) -> None:
        if stage is self.stage:
            return
        self.stage = stage
        self.stage_history.append(stage)
        if OBS.enabled:
            STAGE_TRANSITIONS[stage.value].inc()

    def _report_status(self) -> None:
        self.network.send(
            self.station_name, self.primary_name, REPL_STATUS,
            ReplStatus(
                follower=self.station_name, epoch=self.epoch,
                applied_lsn=self.applied_lsn, stage=self.stage.value,
            ),
            48,
        )

    # ------------------------------------------------------------------
    # Snapshot download
    # ------------------------------------------------------------------
    def _snapshot_tmp(self) -> Path:
        return self.data_dir / "replica.snapshot.download"

    def _abort_download(self) -> None:
        if self._snap_fh is not None:
            try:
                self._snap_fh.close()
            except Exception:
                pass
        self._snap_fh = None
        self._snap_meta = None
        self._snap_seq = 0
        if self._snapshot_tmp().exists():
            self._snapshot_tmp().unlink()

    def _on_snapshot_meta(self, _station: Station, message: Message) -> None:
        meta: ReplSnapshotMeta = message.payload
        if meta.epoch < self.epoch:
            return
        self.epoch = max(self.epoch, meta.epoch)
        self._abort_download()
        self._enter(RecoveryStage.DOWNLOADING_SNAPSHOT)
        fh: Any = self._snapshot_tmp().open("wb")
        if self.snapshot_wrapper is not None:
            fh = self.snapshot_wrapper(fh)
        self._snap_fh = fh
        self._snap_meta = meta
        self._snap_seq = 0

    def _on_snapshot_chunk(self, _station: Station, message: Message) -> None:
        chunk: ReplSnapshotChunk = message.payload
        if self._snap_meta is None or chunk.epoch < self.epoch:
            return
        if (chunk.seq != self._snap_seq
                or chunk.snapshot_lsn != self._snap_meta.snapshot_lsn):
            # A chunk went missing or interleaved transfers collided:
            # drop this download and ask again from our durable LSN.
            self._abort_download()
            self._enter(RecoveryStage.TAILING)
            self._subscribe()
            return
        self._snap_fh.write(chunk.data)
        self._snap_seq += 1
        if not chunk.last:
            return
        # Transfer complete: make it durable, then atomically install.
        self._snap_fh.flush()
        os.fsync(self._snap_fh.fileno())
        self._snap_fh.close()
        self._snap_fh = None
        meta = self._snap_meta
        self._snap_meta = None
        self._install_snapshot(meta.snapshot_lsn)

    def _install_snapshot(self, snapshot_lsn: int) -> None:
        """Swap in the downloaded snapshot and restart the journal epoch.

        Ordering is crash-safe: the stale journal is discarded *before*
        the snapshot is renamed into place, so a crash anywhere in the
        sequence leaves either (old snapshot, no journal) — which
        resubscribes and downloads again — or (new snapshot, fresh
        journal) — which resumes from the watermark.  It can never
        leave a stale journal to replay on top of the new snapshot.
        """
        assert self.journal is not None
        self._enter(RecoveryStage.REPLAYING_JOURNAL)
        self.journal.close()
        if self.journal_path.exists():
            self.journal_path.unlink()
        marker = self.journal_path.with_name(self.journal_path.name + ".ckpt")
        if marker.exists():
            marker.unlink()
        os.replace(self._snapshot_tmp(), self.snapshot_path)
        # The fresh journal starts on the snapshot's watermark, so the
        # open seeds it with the digest the snapshot's header recorded.
        with Journal(self.journal_path, file_wrapper=self.file_wrapper) as fresh:
            fresh.checkpoint(snapshot_lsn)
        self._open_local()
        self.applied_lsn = snapshot_lsn
        if self.on_rebuild is not None:
            self.on_rebuild(self.db)
        self._enter(RecoveryStage.TAILING)
        self._subscribe()

    # ------------------------------------------------------------------
    # Live frames
    # ------------------------------------------------------------------
    def _on_frames(self, _station: Station, message: Message) -> None:
        batch: ReplFrameBatch = message.payload
        if batch.epoch < self.epoch:
            return  # fenced: a deposed primary is still talking
        self.epoch = max(self.epoch, batch.epoch)
        if self.stage is RecoveryStage.DOWNLOADING_SNAPSHOT:
            return  # stream restarts cleanly after the download installs
        assert self.db is not None and self.journal is not None
        gap = False
        for lsn, data in batch.frames:
            if lsn <= self.applied_lsn:
                continue  # duplicate delivery
            if lsn != self.applied_lsn + 1:
                gap = True
                break
            frame = parse_frame(bytes(data))
            if frame.lsn != lsn:
                raise JournalCorruptError(
                    "<frame>", 0,
                    f"shipped as LSN {lsn} but its header says {frame.lsn}",
                )
            # WAL-first: the frame is in the local journal before its
            # effects are visible, the same invariant the primary keeps.
            self.journal.append_raw(frame)
            self.db.apply_frame(frame)
            self.applied_lsn = lsn
            self.frames_applied += 1
            if self.on_apply is not None:
                self.on_apply(frame)
        # One fsync per batch, before anything acknowledges it.
        self.journal.sync_due()
        if gap:
            # A batch was lost on the wire: resume from our durable
            # position rather than applying with a hole.
            self._enter(RecoveryStage.TAILING)
            self._subscribe()
            return
        if self.applied_lsn >= batch.primary_lsn:
            self._enter(RecoveryStage.CAUGHT_UP)
        else:
            self._enter(RecoveryStage.TAILING)
        self._report_status()
