"""Primary-side WAL shipping.

The :class:`WalShipper` sits next to the primary's journal and serves
the replication stream: followers subscribe with their applied LSN and
the shipper answers with either a resumed frame stream (the common
case) or a full snapshot download when the follower's position has
been checkpointed away — or when the follower has *diverged*, i.e. it
claims an LSN the primary never issued (the signature of a deposed
primary rejoining after failover).

Flow control is ack-driven: each :class:`~repro.net.messages.ReplStatus`
from a follower triggers the next frame batch, so a whole catch-up runs
inside one simulator drain with bounded in-flight data per follower.
New commits are pushed by calling :meth:`WalShipper.pump` after write
batches (the class-administrator deployments pump from their request
loop; benchmarks pump per round).

Replica-lag accounting happens here, on the primary, where both ends
of the lag are known: every status report updates the follower's
``replica.applied_lsn`` gauge and feeds the ``replica.lag_records``
histogram.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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
    #: snapshot transfer in flight (suppresses frame pushes)
    syncing: bool = False
    status_reports: int = 0
    resyncs: int = 0
    #: last observed LSN lag (None before the first status)
    lag: int | None = None


class WalShipper:
    """Streams a journal (snapshot + live frames) to follower stations.

    ``journal`` is the primary's live :class:`~repro.rdb.wal.Journal`
    (the one attached to its database); ``snapshot_path`` the snapshot
    the journal's checkpoints are staged against.  ``snapshot_fn``,
    when given, is invoked to produce a *fresh* snapshot before a full
    resync is served (typically ``admin.checkpoint`` or
    ``db.snapshot``); without it the shipper serves whatever snapshot
    file already exists.
    """

    def __init__(
        self,
        network: Network,
        station_name: str,
        journal: Journal,
        *,
        snapshot_path: str | os.PathLike[str] | None = None,
        snapshot_fn: Callable[[], None] | None = None,
        epoch: int = 1,
        batch_frames: int = 64,
        chunk_bytes: int = 32 * 1024,
        resync_breaker: CircuitBreaker | None = None,
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.journal = journal
        self.snapshot_path = (
            Path(snapshot_path) if snapshot_path is not None else None
        )
        self.snapshot_fn = snapshot_fn
        self.epoch = epoch
        self.batch_frames = batch_frames
        self.chunk_bytes = chunk_bytes
        #: Optional rate guard on full-snapshot resyncs — the most
        #: expensive thing a primary does for a follower.  Each served
        #: resync counts toward the breaker's failure window, so
        #: ``failure_threshold`` resyncs within ``window_s`` open it and
        #: a flapping follower stops monopolizing the primary until the
        #: cool-down probe admits one more.  None (default) = unlimited,
        #: the pre-existing behaviour.
        self.resync_breaker = resync_breaker
        self.resyncs_refused = 0
        self.followers: dict[str, FollowerProgress] = {}
        self.frames_shipped = 0
        self.bytes_shipped = 0
        self.snapshots_served = 0
        station = network.station(station_name)
        station.on(REPL_SUBSCRIBE, self._on_subscribe)
        station.on(REPL_STATUS, self._on_status)

    def close(self) -> None:
        """Detach the protocol handlers (used when a primary is deposed)."""
        station = self.network.station(self.station_name)
        station.off(REPL_SUBSCRIBE)
        station.off(REPL_STATUS)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def last_lsn(self) -> int:
        """The primary's current journal horizon."""
        return self.journal.last_lsn

    def commit_horizon(self) -> int:
        """Highest LSN applied by *every* follower (0 with none)."""
        if not self.followers:
            return 0
        return min(f.applied_lsn for f in self.followers.values())

    def caught_up(self, name: str) -> bool:
        """True when ``name`` has applied everything journaled so far."""
        progress = self.followers.get(name)
        return (progress is not None
                and progress.applied_lsn >= self.journal.last_lsn)

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
        if progress.syncing:
            return 0
        start = max(progress.shipped_lsn, progress.applied_lsn)
        if start >= self.journal.last_lsn:
            return 0
        if progress.applied_lsn < self.journal.base_lsn:
            # The follower's position was checkpointed away *while it was
            # subscribed* (a checkpoint ran between its acks): the frames
            # it needs no longer exist, so switch it to a snapshot resync.
            self._serve_snapshot(progress)
            return 0
        frames = []
        end = 0
        for frame in read_frames(
            self.journal.path, from_lsn=start, resume_at=progress.shipped_end
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
        batch = ReplFrameBatch(
            epoch=self.epoch, frames=frames,
            primary_lsn=self.journal.last_lsn,
        )
        size = sum(len(data) for _lsn, data in frames)
        self.network.send(
            self.station_name, progress.name, REPL_FRAMES, batch, size
        )
        progress.shipped_lsn = frames[-1][0]
        progress.shipped_end = end
        self.frames_shipped += len(frames)
        self.bytes_shipped += size
        if OBS.enabled:
            FRAMES_SHIPPED[()].inc(len(frames))
            BYTES_SHIPPED[()].inc(size)
        return len(frames)

    # ------------------------------------------------------------------
    # Snapshot transfer
    # ------------------------------------------------------------------
    def _serve_snapshot(self, progress: FollowerProgress) -> bool:
        """Start a chunked snapshot download to ``progress``; False when
        no snapshot can be produced (the follower stays subscribed and
        will be streamed from LSN 0 if the journal allows) or when the
        resync breaker is open (the follower retries after cool-down)."""
        if self.resync_breaker is not None and not self.resync_breaker.allow(
            self.network.sim.now
        ):
            self.resyncs_refused += 1
            if OBS.enabled:
                BREAKER_REJECTED[self.resync_breaker.name].inc()
            return False
        if self.snapshot_fn is not None:
            # Produce a fresh snapshot at the current horizon; this also
            # checkpoints the journal, so the follow-up stream starts
            # exactly at the snapshot watermark.
            self.snapshot_fn()
        if self.snapshot_path is None or not self.snapshot_path.exists():
            return False
        data = self.snapshot_path.read_bytes()
        snapshot_lsn = parse_snapshot(self.snapshot_path)[1]  # no row decoded
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
        progress.syncing = True
        progress.shipped_lsn = snapshot_lsn
        progress.resyncs += 1
        self.snapshots_served += 1
        if self.resync_breaker is not None:
            # Each served resync spends breaker budget (see __init__).
            self.resync_breaker.record_failure(self.network.sim.now)
        if OBS.enabled:
            SNAPSHOT_CHUNKS[()].inc(len(chunks))
            RESYNCS[()].inc()
        return True

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
        progress.syncing = False
        diverged = sub.applied_lsn > self.journal.last_lsn
        checkpointed_away = sub.applied_lsn < self.journal.base_lsn
        if diverged or checkpointed_away:
            if self._serve_snapshot(progress):
                return
            if diverged:
                # No snapshot machinery: a diverged follower cannot be
                # reconciled; leave it subscribed but quiescent.
                progress.stage = "diverged"
                return
        # The subscriber's own durable position is authoritative, even
        # when it is *below* what it once acknowledged (it lost its disk,
        # or an unsynced tail): streaming from the old ack would ship a
        # gap it can only answer by resubscribing, forever.
        progress.shipped_lsn = progress.applied_lsn = min(
            sub.applied_lsn, self.journal.last_lsn
        )
        if self._push_frames(progress) == 0:
            # Nothing to stream: answer with an empty batch anyway so the
            # subscriber learns the horizon and can report caught-up.
            self.network.send(
                self.station_name, progress.name, REPL_FRAMES,
                ReplFrameBatch(
                    epoch=self.epoch, frames=[],
                    primary_lsn=self.journal.last_lsn,
                ),
                32,
            )

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

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Shipping counters plus per-follower progress."""
        return {
            "epoch": self.epoch,
            "last_lsn": self.journal.last_lsn,
            "frames_shipped": self.frames_shipped,
            "bytes_shipped": self.bytes_shipped,
            "snapshots_served": self.snapshots_served,
            "followers": {
                name: {
                    "applied_lsn": p.applied_lsn,
                    "shipped_lsn": p.shipped_lsn,
                    "stage": p.stage,
                    "lag": p.lag,
                }
                for name, p in self.followers.items()
            },
        }
