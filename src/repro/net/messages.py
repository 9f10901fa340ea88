"""Typed message envelopes.

Everything that crosses the simulated network is a :class:`Message`:
a source, destination, kind tag (dispatch key), an arbitrary payload
object (never serialized — this is a simulation) and the byte size that
*would* cross the wire, which is what the link model charges for.

This module also defines the **replication stream** payloads — the
typed envelopes :mod:`repro.replication` exchanges between a primary's
:class:`~repro.replication.shipper.WalShipper` and a follower's
:class:`~repro.replication.recoverer.Recoverer`.  They live here, with
the message plumbing, because they are wire vocabulary rather than
replication logic: any station can relay or inspect them without
importing the replication subsystem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, NamedTuple

__all__ = [
    "Message",
    "next_msg_id",
    "payload_size",
    "REPL_SUBSCRIBE",
    "REPL_SNAPSHOT_META",
    "REPL_SNAPSHOT_CHUNK",
    "REPL_FRAMES",
    "REPL_STATUS",
    "ReplSubscribe",
    "ReplSnapshotMeta",
    "ReplSnapshotChunk",
    "ReplFrameBatch",
    "ReplStatus",
]

#: mints ``Message.msg_id``: one sequence for every message of a process
next_msg_id = itertools.count(1).__next__


class Message(NamedTuple):
    """One network message: an immutable tuple-backed record.

    ``size_bytes`` is the simulated wire size (payload is metadata, so a
    50 MB lecture transfer is a tiny Python object with
    ``size_bytes=50_000_000``).  :meth:`Network.send
    <repro.net.transport.Network.send>`, the one place messages are
    made, checks it, numbers the message from :func:`next_msg_id` and
    stamps ``sent_at``.
    """

    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int
    msg_id: int
    sent_at: float = 0.0
    #: absolute deadline (simulated seconds); the transport discards a
    #: message still in flight past its deadline instead of delivering
    #: work nobody awaits.  None = no deadline (v1 messages).
    deadline: float | None = None


def payload_size(data: Any) -> int:
    """Rough modeled byte count of a reply or RPC payload.

    ``None`` is free, lists, tuples and sets cost their members, a
    mapping costs ``len(str(key))`` plus its value per item, and every
    other leaf costs ``len(str(leaf))``.  One explicit-stack pass,
    dispatched on the exact type first (a ``str`` is its own ``str()``),
    with ``isinstance`` behind it for subclasses; the counts feed the
    link model, so they are part of the simulator's virtual time.  Sets
    are flattened rather than printed because the length of a printed
    set of strings follows the per-process hash order.  A tuple-backed
    record (:class:`Message`, a protocol reply) is a tuple here, sized
    member by member, so no reply's data carries one.
    """
    total = 0
    stack = [data]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        kind = type(item)
        if kind is str:
            total += len(item)
        elif kind is dict or isinstance(item, dict):
            for key, value in item.items():
                total += len(key) if type(key) is str else len(str(key))
                kind = type(value)
                if kind is str:
                    total += len(value)
                elif kind is float or kind is int:
                    total += len(str(value))
                elif value is not None:
                    push(value)
        elif kind is list or isinstance(item, (list, tuple, set)):
            for member in item:
                if type(member) is str:
                    total += len(member)
                else:
                    push(member)
        elif item is not None:
            total += len(str(item))
    return total


# ---------------------------------------------------------------------------
# Replication stream vocabulary (used by repro.replication)
# ---------------------------------------------------------------------------
#: follower -> primary: (re)subscribe to the WAL stream
REPL_SUBSCRIBE = "repl.subscribe"
#: primary -> follower: a snapshot transfer is starting
REPL_SNAPSHOT_META = "repl.snapshot.meta"
#: primary -> follower: one chunk of snapshot bytes
REPL_SNAPSHOT_CHUNK = "repl.snapshot.chunk"
#: primary -> follower: a batch of WAL frames
REPL_FRAMES = "repl.frames"
#: follower -> primary: applied-LSN progress report
REPL_STATUS = "repl.status"


@dataclass(frozen=True, slots=True)
class ReplSubscribe:
    """A follower announcing itself and where its history ends.

    ``applied_lsn`` is the last LSN durably applied locally and
    ``digest`` the history digest there (:mod:`repro.rdb.wal`).  The
    primary resumes the stream just above it, or resyncs the follower
    by snapshot when that LSN is below its base or past its end, or
    the digest there is not its own.
    """

    follower: str
    applied_lsn: int
    epoch: int = 0
    digest: int = 0


@dataclass(frozen=True, slots=True)
class ReplSnapshotMeta:
    """Header of a chunked snapshot transfer."""

    epoch: int
    snapshot_lsn: int
    size_bytes: int
    chunks: int


@dataclass(frozen=True, slots=True)
class ReplSnapshotChunk:
    """One run of snapshot bytes (``seq`` counts from 0)."""

    epoch: int
    snapshot_lsn: int
    seq: int
    data: bytes
    last: bool


@dataclass(frozen=True, slots=True)
class ReplFrameBatch:
    """A batch of WAL frames plus the primary's current horizon.

    ``frames`` is a list of ``(lsn, frame_bytes)`` pairs — the exact
    bytes the primary journaled, CRC and all.  ``primary_lsn`` lets the
    follower judge whether it has caught up; ``epoch`` fences batches
    from a deposed primary after a failover.
    """

    epoch: int
    frames: list[tuple[int, bytes]]
    primary_lsn: int


@dataclass(frozen=True, slots=True)
class ReplStatus:
    """Follower progress report (drives replica-lag accounting)."""

    follower: str
    epoch: int
    applied_lsn: int
    stage: str
