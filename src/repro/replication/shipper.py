"""Primary-side WAL shipping.

The :class:`WalShipper` sits next to one engine and serves its journal
as the replication stream: followers subscribe with their applied LSN
and history digest (:mod:`repro.rdb.wal`), and the shipper answers
with a resumed frame stream, or with the engine's latest snapshot (the
one at its journal base; taken first if there is none) when the
follower's position has been checkpointed away or its history has
*diverged* — past the primary's end, or with another digest there: a
deposed primary rejoining with commits it never shipped.  Such a
follower is streamed no frame until its resync has been served.

Flow control is ack-driven: each :class:`~repro.net.messages.ReplStatus`
from a follower triggers the next frame batch, so a whole catch-up runs
inside one simulator drain with bounded in-flight data per follower.
New commits are pushed by calling :meth:`WalShipper.pump` after write
batches: a :class:`~repro.tiers.replicaset.ReplicaSet` pumps (through
``MetadataReplicator.flush``) after every write it acks; benchmarks
pump per round.

Replica-lag accounting happens here, on the primary, where both ends
of the lag are known: every status report updates the follower's
``replica.applied_lsn`` gauge and feeds the ``replica.lag_records``
histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
from repro.admission import CircuitBreaker
from repro.admission.breaker import REJECTED as BREAKER_REJECTED
from repro.net.station import Station
from repro.net.transport import Network
from repro.obs.instrument import OBS, Instrument
from repro.rdb import Database
from repro.rdb.wal import Journal, parse_snapshot, read_frames

__all__ = ["FollowerProgress", "WalShipper"]

FRAMES_SHIPPED = Instrument("counter", "replication.frames_shipped")
BYTES_SHIPPED = Instrument("counter", "replication.bytes_shipped")
SNAPSHOT_CHUNKS = Instrument("counter", "replication.snapshot_chunks")
RESYNCS = Instrument("counter", "replication.resyncs")
APPLIED_LSN = Instrument("gauge", "replica.applied_lsn", "follower")
LAG_RECORDS = Instrument("histogram", "replica.lag_records")


@dataclass
class FollowerProgress:
    """What the primary knows about one follower."""

    name: str
    #: highest LSN shipped to (not necessarily applied by) the follower
    shipped_lsn: int = 0
    #: journal byte offset just past that frame — ``read_frames``'
    #: resume hint, so the next batch does not re-read what was shipped
    shipped_end: int = 0
    #: highest LSN the follower reported durably applied
    applied_lsn: int = 0
    stage: str = "subscribed"
    #: None while frames stream; "due" when the follower needs a
    #: snapshot (diverged, or checkpointed away) not yet served, "sent"
    #: while one is in flight.  No frame is pushed unless it is None.
    resync: str | None = None
    status_reports: int = 0
    resyncs: int = 0
    #: last observed LSN lag (None before the first status)
    lag: int | None = None


class WalShipper:
    """Streams one engine (snapshot + live frames of its journal) to
    follower stations.  ``db`` must journal: ``db.journal`` is the
    stream, ``db.snapshot_path`` what a resync serves."""

    def __init__(
        self,
        network: Network,
        station_name: str,
        db: Database,
        *,
        epoch: int = 1,
        batch_frames: int = 64,
        chunk_bytes: int = 32 * 1024,
        resync_breaker: CircuitBreaker | None = None,
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.db = db
        self.epoch = epoch
        self.batch_frames = batch_frames
        self.chunk_bytes = chunk_bytes
        #: Optional rate guard on full-snapshot resyncs, the costliest
        #: thing a primary does for a follower: each served resync is a
        #: failure in the breaker's window, so a flapping follower stops
        #: monopolizing the primary until the cool-down probe admits one
        #: more.  None (default): unlimited.
        self.resync_breaker = resync_breaker
        self.resyncs_refused = 0
        self.followers: dict[str, FollowerProgress] = {}
        self.frames_shipped = 0
        self.snapshots_served = 0
        station = network.station(station_name)
        station.on(REPL_SUBSCRIBE, self._on_subscribe)
        station.on(REPL_STATUS, self._on_status)

    @property
    def journal(self) -> Journal:
        assert self.db.journal is not None
        return self.db.journal

    def close(self) -> None:
        """Detach the protocol handlers (used when a primary is deposed)."""
        station = self.network.station(self.station_name)
        station.off(REPL_SUBSCRIBE)
        station.off(REPL_STATUS)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Push pending frames to every subscribed follower.

        Returns the number of frames put on the wire.  Call after
        write batches; ack-driven pushes keep the stream flowing in
        between.
        """
        sent = 0
        for progress in self.followers.values():
            sent += self._push_frames(progress)
        return sent

    def _push_frames(self, progress: FollowerProgress) -> int:
        journal = self.journal
        start = max(progress.shipped_lsn, progress.applied_lsn)
        if (progress.resync is None and start < journal.last_lsn
                and progress.applied_lsn < journal.base_lsn):
            # The follower's position was checkpointed away *while it was
            # subscribed* (a checkpoint ran between its acks): the frames
            # it needs no longer exist, so switch it to a snapshot resync.
            progress.resync = "due"
        if progress.resync == "due":
            self._serve_snapshot(progress)
        if progress.resync is not None or start >= journal.last_lsn:
            return 0
        frames, end = [], 0
        for frame in read_frames(
            journal.path, from_lsn=start, resume_at=progress.shipped_end
        ):
            if frame.kind == "ckpt":
                # Epoch marker of *this* file; everything else ships — a
                # dropped 2PC frame is an LSN hole the follower can only
                # read as a lost batch.
                continue
            frames.append((frame.lsn, frame.data))
            end = frame.end
            if len(frames) >= self.batch_frames:
                break
        if not frames:
            return 0
        batch = ReplFrameBatch(self.epoch, frames, journal.last_lsn)
        size = sum(len(data) for _lsn, data in frames)
        self.network.send(
            self.station_name, progress.name, REPL_FRAMES, batch, size
        )
        progress.shipped_lsn = frames[-1][0]
        progress.shipped_end = end
        self.frames_shipped += len(frames)
        if OBS.enabled:
            FRAMES_SHIPPED[()].inc(len(frames))
            BYTES_SHIPPED[()].inc(size)
        return len(frames)

    # ------------------------------------------------------------------
    # Snapshot transfer
    # ------------------------------------------------------------------
    def _serve_snapshot(self, progress: FollowerProgress) -> None:
        """Start a chunked snapshot download to ``progress`` — unless
        the resync breaker is open: the follower then stays "due" and
        the next push retries."""
        if self.resync_breaker is not None and not self.resync_breaker.allow(
            self.network.sim.now
        ):
            self.resyncs_refused += 1
            if OBS.enabled:
                BREAKER_REJECTED[self.resync_breaker.name].inc()
            return
        if self.db.snapshot_path is None or self.journal.base_digest is None:
            # None yet, or one whose digest is unknown: a fresh snapshot
            # restarts the chain, or every subscriber resyncs forever.
            self.db.snapshot(str(self.journal.path.with_suffix(".snapshot")))
        path = Path(self.db.snapshot_path)
        data = path.read_bytes()
        snapshot_lsn = parse_snapshot(path)[1]  # no row decoded
        chunks = [
            data[i:i + self.chunk_bytes]
            for i in range(0, len(data), self.chunk_bytes)
        ] or [b""]
        self.network.send(
            self.station_name, progress.name, REPL_SNAPSHOT_META,
            ReplSnapshotMeta(
                epoch=self.epoch, snapshot_lsn=snapshot_lsn,
                size_bytes=len(data), chunks=len(chunks),
            ),
            64,
        )
        for seq, chunk in enumerate(chunks):
            self.network.send(
                self.station_name, progress.name, REPL_SNAPSHOT_CHUNK,
                ReplSnapshotChunk(
                    epoch=self.epoch, snapshot_lsn=snapshot_lsn,
                    seq=seq, data=chunk, last=seq == len(chunks) - 1,
                ),
                len(chunk),
            )
        progress.resync = "sent"
        progress.shipped_lsn = snapshot_lsn
        progress.resyncs += 1
        self.snapshots_served += 1
        if self.resync_breaker is not None:
            # Each served resync spends breaker budget (see __init__).
            self.resync_breaker.record_failure(self.network.sim.now)
        if OBS.enabled:
            SNAPSHOT_CHUNKS[()].inc(len(chunks))
            RESYNCS[()].inc()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_subscribe(self, _station: Station, message: Message) -> None:
        sub: ReplSubscribe = message.payload
        if sub.epoch > self.epoch:
            # A subscriber from a *later* epoch: this shipper has been
            # deposed and must not serve stale history.
            return
        progress = self.followers.setdefault(
            sub.follower, FollowerProgress(name=sub.follower)
        )
        journal = self.journal
        if (not journal.base_lsn <= sub.applied_lsn <= journal.last_lsn
                or self._history_differs(sub)):
            progress.resync = "due"  # checkpointed away, or diverged
            self._push_frames(progress)
            return
        # The subscriber's own durable position is authoritative, even
        # when it is *below* what it once acknowledged (it lost its disk,
        # or an unsynced tail): streaming from the old ack would ship a
        # gap it can only answer by resubscribing, forever.
        progress.resync = None
        progress.shipped_lsn = progress.applied_lsn = sub.applied_lsn
        if self._push_frames(progress) == 0:
            # Nothing to stream: answer with an empty batch anyway so the
            # subscriber learns the horizon and can report caught-up.
            empty = ReplFrameBatch(self.epoch, [], journal.last_lsn)
            self.network.send(
                self.station_name, progress.name, REPL_FRAMES, empty, 32
            )

    def _history_differs(self, sub: ReplSubscribe) -> bool:
        """True unless this journal's history digest at the subscriber's
        ``applied_lsn`` (between its base and its end) is the one the
        subscriber sent: the base digest folded through every frame up
        to that LSN.  An unknown base digest vouches for nothing."""
        journal = self.journal
        digest = journal.base_digest
        if digest is None:
            return True
        for frame in read_frames(journal.path, from_lsn=journal.base_lsn):
            if frame.lsn > sub.applied_lsn:
                break
            digest = frame.fold(digest)
        return digest != sub.digest

    def _on_status(self, _station: Station, message: Message) -> None:
        status: ReplStatus = message.payload
        if status.epoch > self.epoch:
            return
        progress = self.followers.setdefault(
            status.follower, FollowerProgress(name=status.follower)
        )
        progress.applied_lsn = max(progress.applied_lsn, status.applied_lsn)
        progress.stage = status.stage
        progress.status_reports += 1
        lag = max(0, self.journal.last_lsn - status.applied_lsn)
        progress.lag = lag
        if OBS.enabled:
            APPLIED_LSN[status.follower].set(status.applied_lsn)
            LAG_RECORDS[()].observe(lag)
        # Ack-driven flow: keep streaming while the follower is behind.
        self._push_frames(progress)
