"""Crash-consistent write-ahead journal and snapshot recovery.

Durability model: the engine buffers the logical operations of the
active transaction and, at commit, appends them to the journal as one
*framed* record.  A crash loses at most the transactions that were not
yet forced to stable storage by the active :class:`SyncPolicy`.

Journal format v2 (framed)::

    MAGIC(4) | length u32 | lsn u64 | crc32 u32 | payload (UTF-8 JSON)

* ``length`` is the payload byte count, ``lsn`` a monotonically
  increasing log sequence number, and the CRC covers the length and LSN
  fields plus the payload, so a flipped bit anywhere in a frame is
  detected.
* The reader distinguishes a **torn tail** (damage in the final record:
  the expected signature of a crash mid-append — tolerated, counted)
  from **mid-file corruption** (damage with intact records after it:
  acknowledged history was altered — a strict
  :class:`~repro.rdb.errors.JournalCorruptError`, or scan-forward
  recovery in salvage mode).
* This is the only format.  A file that starts with ``{`` is a v1
  JSON-lines journal (retired in PR 13): it is refused with a
  :class:`~repro.rdb.errors.JournalCorruptError` naming the retired
  format and left untouched — never mistaken for a torn tail and
  trimmed to nothing.
* Besides committed-transaction and checkpoint payloads, a frame may
  carry a two-phase-commit protocol record (``{"2pc": ...}``) — the
  prepare/commit/abort votes of :mod:`repro.sharding`.  They share the
  LSN sequence and :func:`read_frames`, the one reader, yields every
  kind; :meth:`repro.rdb.engine.Database.apply_frame`, the one replay,
  holds a prepare's ops until its outcome frame.

Checkpointing: :func:`write_snapshot` records the journal's last
applied LSN as a watermark; recovery replays only records above it, so
a crash between snapshot and journal truncation can never double-apply
transactions.  The truncation itself is staged through an atomically
written ``.ckpt`` marker file that :class:`Journal` completes on the
next open, making snapshot→truncate idempotent across crashes.

History digest: ``digest_L = crc32(CRC bytes of frame L, digest_{L-1})``,
``digest_0 = 0``, names the whole history up to LSN L from bytes every
copy of the stream holds verbatim.  :class:`Journal` folds it as it
appends and opens; a snapshot records it beside its watermark, so the
digest at a checkpoint base survives the truncation and a reopen.

Values are encoded JSON-safe: ``datetime`` as ``{"$dt": iso}``,
``bytes`` as ``{"$b64": ...}``; a genuine user dict whose only key is
one of the markers is wrapped as ``{"$esc": {...}}`` so it round-trips
unchanged.
"""

from __future__ import annotations

import base64
import datetime as _dt
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping

from repro.obs.instrument import OBS, Instrument
from repro.rdb.errors import JournalCorruptError

__all__ = [
    "encode_value",
    "decode_value",
    "SyncPolicy",
    "RecoveryStats",
    "WalFrame",
    "read_frames",
    "parse_frame",
    "Journal",
    "write_snapshot",
    "parse_snapshot",
]

SYNC_BATCHES = Instrument("counter", "wal.sync_batches", "policy")

#: Frame magic for journal format v2.
MAGIC = b"WJ2\x00"
_HEADER = struct.Struct("<IQ")  # payload length, lsn
_CRC = struct.Struct("<I")
#: Offset of a frame's CRC: after its magic and header.
_CRC_AT = len(MAGIC) + _HEADER.size

#: Key marking a v2 snapshot payload ("$" can never start a table name).
_SNAPSHOT_KEY = "$snapshot"

#: Reserved single-key dict shapes the value codec must escape.
_MARKER_KEYS = ({"$dt"}, {"$b64"}, {"$esc"})

#: Classes whose instances are their own encoded (and decoded) form.
_PLAIN = frozenset({str, int, float, bool, type(None)})

#: ``json.dumps(obj, separators=(",", ":"))`` without a fresh encoder
#: object per call — the journal's and the snapshot's one JSON spelling.
_compact = json.JSONEncoder(separators=(",", ":")).encode


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Encode one stored value into a JSON-safe form."""
    if isinstance(value, _dt.datetime):
        return {"$dt": value.isoformat()}
    if isinstance(value, (bytes, bytearray)):
        return {"$b64": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if set(value) in _MARKER_KEYS:
            # A user dict that *looks like* a codec marker: wrap it so
            # decode does not mistake it for a datetime/bytes envelope.
            return {"$esc": {k: encode_value(v) for k, v in value.items()}}
        return {k: encode_value(v) for k, v in value.items()}
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        keys = set(value)
        if keys == {"$esc"} and isinstance(value["$esc"], dict):
            return {k: decode_value(v) for k, v in value["$esc"].items()}
        if keys == {"$dt"} and isinstance(value["$dt"], str):
            return _dt.datetime.fromisoformat(value["$dt"])
        if keys == {"$b64"} and isinstance(value["$b64"], str):
            return base64.b64decode(value["$b64"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_row(row: dict[str, Any]) -> dict[str, Any]:
    return {
        k: v if type(v) in _PLAIN else encode_value(v) for k, v in row.items()
    }


def decode_row(
    row: dict[str, Any], strings: dict[str, str] | None = None
) -> dict[str, Any]:
    """Inverse of :func:`encode_row`.  With ``strings`` (a memo kept for
    one snapshot load) each ``str`` value is the first equal one the
    memo saw: JSON decodes every occurrence to a new object."""
    if strings is None:
        return {
            k: v if type(v) in _PLAIN else decode_value(v)
            for k, v in row.items()
        }
    share = strings.setdefault
    return {
        k: share(v, v) if type(v) is str
        else v if type(v) in _PLAIN else decode_value(v)
        for k, v in row.items()
    }


def encode_key(key: tuple) -> list[Any]:
    """A primary-key tuple as a journal op carries it."""
    return [v if type(v) in _PLAIN else encode_value(v) for v in key]


def decode_key(key: list[Any]) -> tuple:
    return tuple(v if type(v) in _PLAIN else decode_value(v) for v in key)


# ---------------------------------------------------------------------------
# Sync policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SyncPolicy:
    """When the journal forces written records to stable storage.

    * ``none`` — flush to the OS only (the historical fsync-less mode;
      a machine crash may lose flushed-but-unsynced transactions);
    * ``commit`` — fsync after every committed transaction (the acked
      ⇒ durable guarantee the crash harness verifies);
    * ``interval-N`` — group commit: one fsync per N appended records,
      amortizing the sync cost across a batch.

    ``fsync`` is injectable so tests and the crash harness can count or
    intercept sync points deterministically.
    """

    mode: str
    interval: int = 0
    fsync: Callable[[int], None] = os.fsync

    def __post_init__(self) -> None:
        if self.mode not in ("none", "commit", "interval"):
            raise ValueError(f"unknown sync mode {self.mode!r}")
        if self.mode == "interval" and self.interval < 1:
            raise ValueError("interval sync needs interval >= 1")

    @classmethod
    def none(cls) -> "SyncPolicy":
        """Flush-only durability (no fsync)."""
        return cls("none")

    @classmethod
    def commit(cls) -> "SyncPolicy":
        """fsync every committed transaction."""
        return cls("commit")

    @classmethod
    def every(cls, n: int) -> "SyncPolicy":
        """Group commit: fsync once per ``n`` records."""
        return cls("interval", int(n))

    @classmethod
    def parse(cls, spec: "SyncPolicy | str") -> "SyncPolicy":
        """Accept a policy object, ``"none"``, ``"commit"`` or
        ``"interval-N"``."""
        if isinstance(spec, SyncPolicy):
            return spec
        text = str(spec).strip().lower()
        if text == "none":
            return cls.none()
        if text == "commit":
            return cls.commit()
        if text.startswith("interval-"):
            return cls.every(int(text[len("interval-"):]))
        raise ValueError(
            f"unknown sync policy {spec!r} "
            f"(expected 'none', 'commit' or 'interval-N')"
        )

    @property
    def name(self) -> str:
        """Canonical spelling (``none`` / ``commit`` / ``interval-N``)."""
        if self.mode == "interval":
            return f"interval-{self.interval}"
        return self.mode

    def due(self, pending: int) -> bool:
        """True when ``pending`` unsynced records require an fsync now."""
        if self.mode == "commit":
            return pending >= 1
        if self.mode == "interval":
            return pending >= self.interval
        return False


# ---------------------------------------------------------------------------
# Recovery statistics
# ---------------------------------------------------------------------------
@dataclass
class RecoveryStats:
    """What one journal read / recovery pass observed.

    Filled in by :func:`read_frames` and :meth:`Journal.open` (pass an
    instance via ``stats=``); a database's is ``db.recovery_stats``.
    """

    records_recovered: int = 0
    records_skipped_watermark: int = 0
    torn_tails: int = 0
    checksum_failures: int = 0
    bytes_skipped: int = 0
    last_lsn: int = 0
    watermark: int = 0
    salvaged: bool = False

    def as_dict(self) -> dict[str, int | bool]:
        """Plain-dict view for reports and protocol responses."""
        return asdict(self)


# ---------------------------------------------------------------------------
# Frame-level reader
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WalFrame:
    """One complete journal frame, parsed *and* in wire form.

    ``source[start:end]`` is the exact frame bytes (:attr:`data` slices
    them on demand, so scanning past a frame copies nothing); a frame
    can be shipped to a follower and appended to its local journal
    verbatim — the CRC travels with it end to end.
    """

    kind: str  # "txn" | "ckpt" | "2pc"
    lsn: int
    txn_id: int | None
    ops: list[Any] | None
    #: decoded 2PC protocol payload — prepare/commit/abort on a
    #: participant, decision/end on a coordinator (``kind == "2pc"`` only)
    payload: dict[str, Any] | None
    #: the scanned bytes this frame was parsed out of, and its extent
    source: bytes
    start: int
    end: int

    @property
    def data(self) -> bytes:
        """The frame's own bytes, header and CRC included."""
        return self.source[self.start:self.end]

    def fold(self, digest: int) -> int:
        """The history digest through this frame, ``digest`` being the
        one through the frame before it."""
        at = self.start + _CRC_AT
        return zlib.crc32(self.source[at:at + _CRC.size], digest)


def _frame(lsn: int, payload: bytes) -> bytes:
    """Build one v2 frame around ``payload``."""
    header = _HEADER.pack(len(payload), lsn)
    crc = zlib.crc32(payload, zlib.crc32(header))
    return MAGIC + header + _CRC.pack(crc) + payload


def _parse_frame(
    data: bytes, pos: int, last_lsn: int
) -> tuple[WalFrame | None, int, str | None]:
    """Parse a v2 frame at ``pos``; returns (frame, next_pos, problem)."""
    header_start = pos + len(MAGIC)
    crc_start = header_start + _HEADER.size
    payload_start = crc_start + _CRC.size
    if payload_start > len(data):
        return None, pos, "torn frame header"
    length, lsn = _HEADER.unpack_from(data, header_start)
    (crc,) = _CRC.unpack_from(data, crc_start)
    payload_end = payload_start + length
    if payload_end > len(data):
        return None, pos, "frame extends past end of file"
    payload = data[payload_start:payload_end]
    expected = zlib.crc32(payload, zlib.crc32(data[header_start:crc_start]))
    if crc != expected:
        return None, pos, "checksum mismatch"
    try:
        obj = json.loads(payload.decode("utf-8"))
    except ValueError:
        return None, pos, "checksummed payload is not valid JSON"
    if not isinstance(obj, dict):
        return None, pos, "payload is not a transaction record"
    if len(obj) == 1 and "ckpt" in obj:
        if lsn < last_lsn:
            return None, pos, f"checkpoint LSN went backwards ({lsn})"
        frame = WalFrame("ckpt", lsn, None, None, None, data, pos, payload_end)
        return frame, payload_end, None
    if "2pc" in obj:
        # Two-phase-commit protocol record (prepare/commit/abort on a
        # participant, decision/end on a coordinator).
        if lsn <= last_lsn:
            return None, pos, f"LSN went backwards ({lsn} after {last_lsn})"
        frame = WalFrame("2pc", lsn, None, None, obj, data, pos, payload_end)
        return frame, payload_end, None
    if not ("txn" in obj and "ops" in obj):
        return None, pos, "payload is not a transaction record"
    if lsn <= last_lsn:
        return None, pos, f"LSN went backwards ({lsn} after {last_lsn})"
    frame = WalFrame(
        "txn", lsn, obj["txn"], obj["ops"], None, data, pos, payload_end
    )
    return frame, payload_end, None


def _scan_entries(
    data: bytes,
    *,
    salvage: bool,
    stats: RecoveryStats,
    path: object = "<journal>",
    pos: int = 0,
    last_lsn: int = 0,
) -> Iterator[WalFrame]:
    """Yield every readable frame from ``pos`` on (``last_lsn`` being
    the LSN just before it), classifying damage on the way.

    Torn tail (damage with no frame magic after it): tolerated,
    counted, stop.  Mid-file corruption (a later frame exists):
    :class:`JournalCorruptError` in strict mode; in salvage mode the
    reader skips to that frame and keeps going.  A file that opens with
    ``{`` is a retired v1 journal and is refused in either mode.
    """
    if data.startswith(b"{"):
        raise JournalCorruptError(
            path, 0,
            "this is a v1 JSON-lines journal, a format retired in PR 13; "
            "refusing to read, trim or salvage it",
        )
    size = len(data)
    while pos < size:
        frame, problem = None, "missing frame magic"
        if data.startswith(MAGIC, pos):
            frame, pos, problem = _parse_frame(data, pos, last_lsn)
        if frame is not None:
            last_lsn = frame.lsn
            yield frame
            continue
        later = data.find(MAGIC, pos + 1)
        if later == -1:
            stats.torn_tails += 1
            stats.bytes_skipped += size - pos
            return
        if not salvage:
            raise JournalCorruptError(
                path, pos,
                f"{problem}; valid records follow the damage "
                f"(pass salvage=True to skip it)",
            )
        stats.checksum_failures += 1
        stats.bytes_skipped += later - pos
        pos = later


def _above(frame: WalFrame, from_lsn: int, stats: RecoveryStats) -> bool:
    """Tally one scanned frame; True when it lies above ``from_lsn`` —
    the watermark rule :func:`read_frames` and :meth:`Journal.open`
    share."""
    stats.last_lsn = frame.lsn
    wanted = frame.lsn > from_lsn
    if frame.kind != "ckpt":
        if wanted:
            stats.records_recovered += 1
        else:
            stats.records_skipped_watermark += 1
    return wanted


def read_frames(
    path: str | os.PathLike[str],
    *,
    from_lsn: int = 0,
    resume_at: int = 0,
    salvage: bool = False,
    stats: RecoveryStats | None = None,
) -> Iterator[WalFrame]:
    """Yield every complete frame with ``lsn > from_lsn``, in order.

    The one journal reader: recovery passes the snapshot watermark as
    ``from_lsn``, a shipper the last LSN it sent.  Every kind is
    yielded — a prepared transaction's ops must be applied at the
    position of its commit record, so consumers need the interleaving —
    checkpoint frames included (their LSN is the checkpoint watermark)
    so consumers can detect epoch boundaries.  A torn final frame
    (crash mid-append, or a read concurrent with one) is tolerated,
    counted and never yielded; corruption before the final frame raises
    :class:`~repro.rdb.errors.JournalCorruptError` unless ``salvage``
    is set, in which case damaged records are skipped and counted in
    ``stats``.

    ``resume_at`` is a start *hint*: the :attr:`WalFrame.end` of the
    frame with LSN ``from_lsn``, kept by a caller that read that far
    before.  It is verified, never trusted — the scan starts there only
    if the bytes at that offset are an intact frame carrying exactly LSN
    ``from_lsn + 1`` (LSNs only grow along the file, so nothing wanted
    lies before it).  Any other hint — stale after a checkpoint or a
    compaction, past the end of the file, inside a frame — is ignored
    and the scan starts at the top.  Damage is classified the same way
    for the bytes that are scanned; frames the hint skipped are not
    counted in ``stats.records_skipped_watermark``.
    """
    path = Path(path)
    if stats is None:
        stats = RecoveryStats()
    stats.watermark = max(stats.watermark, from_lsn)
    stats.salvaged = stats.salvaged or salvage
    if not path.exists():
        return
    data = path.read_bytes()
    pos = 0
    if resume_at and data.startswith(MAGIC, resume_at):
        first = _parse_frame(data, resume_at, from_lsn)[0]
        if first is not None and first.lsn == from_lsn + 1:
            pos = resume_at
    for frame in _scan_entries(
        data, salvage=salvage, stats=stats, path=path,
        pos=pos, last_lsn=from_lsn if pos else 0,
    ):
        if _above(frame, from_lsn, stats):
            yield frame


def parse_frame(data: bytes) -> WalFrame:
    """Parse one standalone v2 frame (e.g. shipped over the network).

    The CRC is verified, so a frame that survived the trip parses to
    exactly what the primary journaled; damage raises
    :class:`~repro.rdb.errors.JournalCorruptError`.
    """
    if not data.startswith(MAGIC):
        raise JournalCorruptError("<frame>", 0, "missing frame magic")
    frame, _end, problem = _parse_frame(data, 0, 0)
    if frame is None:
        raise JournalCorruptError("<frame>", 0, problem or "unparseable")
    return frame


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------
class Journal:
    """An append-only, checksummed file of committed transactions.

    Each committed transaction is one v2 frame whose JSON payload is
    ``{"txn": id, "ops": [op, ...]}`` where an op is
    ``["insert", table, row]``, ``["update", table, pk, changes]`` or
    ``["delete", table, pk]`` with pk as a list.  Opening an existing
    journal scans it once — resuming its LSN sequence and, through
    :meth:`open`, replaying it into a consumer — then completes any
    checkpoint that a crash interrupted (via the ``.ckpt`` marker file)
    and trims a torn tail, so later appends never bury valid frames
    behind garbage.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        sync: "SyncPolicy | str" = "none",
        salvage: bool = False,
        file_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> None:
        stats = RecoveryStats()
        self._start(path, sync, file_wrapper, salvage, None, 0, 0, stats)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike[str],
        apply: Callable[[WalFrame], None],
        *,
        from_lsn: int = 0,
        digest: int | None = 0,
        stats: RecoveryStats | None = None,
        sync: "SyncPolicy | str" = "none",
        salvage: bool = False,
        file_wrapper: Callable[[BinaryIO], BinaryIO] | None = None,
    ) -> "Journal":
        """``Journal(path, ...)``, calling ``apply`` with every frame
        above ``from_lsn`` as the open-time scan validates it: the one
        read and CRC + JSON pass that finds where the valid frames end
        is also the replay, tallied into ``stats`` as
        :func:`read_frames` tallies.  The file changes only after the
        scan, so a strict open that raises on mid-file corruption
        (``apply`` has by then seen the frames before the damage) leaves
        every byte in place for a ``salvage`` retry.

        ``digest`` is the one the snapshot at ``from_lsn`` recorded
        (None: none); it seeds :attr:`base_digest` at that base.
        """
        stats = stats or RecoveryStats()
        stats.watermark = max(stats.watermark, from_lsn)
        stats.salvaged = stats.salvaged or salvage
        journal = cls.__new__(cls)
        journal._start(
            path, sync, file_wrapper, salvage, apply, from_lsn, digest, stats
        )
        return journal

    def _start(
        self,
        path: str | os.PathLike[str],
        sync: "SyncPolicy | str",
        file_wrapper: Callable[[BinaryIO], BinaryIO] | None,
        salvage: bool,
        apply: Callable[[WalFrame], None] | None,
        from_lsn: int,
        digest: int | None,
        stats: RecoveryStats,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sync_policy = SyncPolicy.parse(sync)
        self._file_wrapper = file_wrapper
        self.records_written = 0
        self.last_lsn = 0
        #: Lowest LSN the file can be streamed *from* (exclusive): its
        #: checkpoint frame's watermark, else one below its first frame.
        self.base_lsn = 0
        #: History digest at ``base_lsn`` (None: unknown, a checkpoint
        #: its opener gave no digest for), and at ``last_lsn`` (folded
        #: on from ``base_digest``, or from 0 when that is unknown).
        self.base_digest: int | None = 0
        self.digest = digest or 0
        self._pending_sync = 0
        self._fh: BinaryIO | None = None

        marker = self._marker_path()
        watermark = None
        if marker.exists():
            watermark = int(
                json.loads(marker.read_text(encoding="utf-8"))["last_lsn"]
            )
        data = b""
        # An interrupted checkpoint's file holds nothing the journal
        # itself needs; it is read only for a consumer's sake.
        if (apply is not None or watermark is None) and self.path.exists():
            data = self.path.read_bytes()
        damage = stats.checksum_failures + stats.torn_tails
        valid_end = 0
        # Salvage only: the last checkpoint frame's LSN, and every
        # other surviving frame's own bytes.
        base, survivors = 0, []

        def rebase(lsn: int) -> None:
            # Only the opener's watermark and LSN 0 have a known digest.
            self.base_digest = digest if lsn == from_lsn else None if lsn else 0
            self.digest = self.base_digest or 0

        for frame in _scan_entries(
            data, salvage=salvage, stats=stats, path=self.path
        ):
            if not valid_end:
                self.base_lsn = (
                    frame.lsn if frame.kind == "ckpt" else frame.lsn - 1
                )
                rebase(self.base_lsn)
            self.last_lsn, valid_end = frame.lsn, frame.end
            if frame.kind != "ckpt":
                self.digest = frame.fold(self.digest)
            if salvage and frame.kind == "ckpt":
                base = frame.lsn
            elif salvage:
                survivors.append(frame.data)
            if _above(frame, from_lsn, stats) and apply is not None:
                apply(frame)
        if watermark is not None:
            # A crash interrupted snapshot→truncate after the marker was
            # durably written: every record at or below the marker LSN is
            # already in the snapshot, so finish the truncation now.
            self._rewrite(watermark, [])
            marker.unlink()
            self.last_lsn = watermark
            rebase(watermark)
        elif salvage and stats.checksum_failures + stats.torn_tails > damage:
            # Compact: rewrite only the surviving frames so the damage
            # cannot resurface on a later read.
            self._rewrite(base, survivors)
        elif valid_end < len(data):
            # Torn tail from a crash mid-append: trim it so the file
            # ends on a record boundary again.
            with self.path.open("r+b") as fh:
                fh.truncate(valid_end)
        self._fh = self._open("ab")

    # -- byte-level helpers --------------------------------------------------
    def _marker_path(self) -> Path:
        return self.path.with_name(self.path.name + ".ckpt")

    def _open(self, mode: str) -> BinaryIO:
        fh = self.path.open(mode)
        if self._file_wrapper is not None:
            fh = self._file_wrapper(fh)
        return fh

    def _rewrite(self, base_lsn: int, frames: list[bytes]) -> None:
        """Replace the file with a checkpoint frame plus ``frames``
        (whole frames' own bytes)."""
        fh = self._open("wb")
        try:
            payload = _compact({"ckpt": base_lsn}).encode("utf-8")
            fh.write(_frame(base_lsn, payload))
            for frame in frames:
                fh.write(frame)
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            fh.close()
        self.base_lsn = base_lsn

    def _write(self, lsn: int, data: bytes) -> int:
        """The one append tail: write the frame, flush it to the OS —
        the journal's one flush; :meth:`sync` only fsyncs — and adopt
        its LSN.  Each append then fsyncs as its record kind needs."""
        assert self._fh is not None
        self._fh.write(data)
        self._fh.flush()
        self.last_lsn = lsn
        self.digest = zlib.crc32(data[_CRC_AT:_CRC_AT + _CRC.size], self.digest)
        self.records_written += 1
        self._pending_sync += 1
        return lsn

    # -- public API ----------------------------------------------------------
    def append(self, txn_id: int, ops: list[list[Any]]) -> int:
        """Append one committed transaction's ops; returns its LSN."""
        lsn = self.last_lsn + 1
        payload = _compact({"txn": txn_id, "ops": ops}).encode("utf-8")
        self._write(lsn, _frame(lsn, payload))
        self.sync_due()
        return lsn

    def append_2pc(self, payload: dict[str, Any]) -> int:
        """Append one two-phase-commit protocol record; returns its LSN.

        ``payload`` must carry the ``"2pc"`` discriminator key (e.g.
        ``{"2pc": "prepare", "gtxn": ..., "ops": [...]}``).  The record
        is **always forced to stable storage** before this returns,
        whatever the journal's sync policy: a participant's vote and a
        coordinator's commit decision are only meaningful once durable,
        so 2PC records cannot ride a lazy group-commit window.
        """
        if "2pc" not in payload:
            raise ValueError("2pc record payload must carry the '2pc' key")
        lsn = self.last_lsn + 1
        body = _compact(payload).encode("utf-8")
        self._write(lsn, _frame(lsn, body))
        self.sync()
        return lsn

    def append_raw(self, frame: WalFrame) -> int:
        """Append one pre-built frame verbatim, adopting its LSN.

        The replication follower's append path: frames arrive from the
        primary already framed and checksummed (:attr:`WalFrame.data`)
        and are written byte-for-byte, so the follower's journal is a
        prefix-identical copy of the primary's and the same recovery
        machinery applies after a follower crash.  The LSN adopted is
        the one in the frame's own header, and it must advance the
        local sequence.  Appending does not fsync: the follower appends
        a whole shipped batch, then calls :meth:`sync_due` once, before
        it acknowledges the batch.
        """
        if frame.lsn <= self.last_lsn:
            raise ValueError(
                f"append_raw LSN {frame.lsn} does not advance past "
                f"{self.last_lsn}"
            )
        return self._write(frame.lsn, frame.data)

    def sync_due(self) -> None:
        """fsync if the sync policy says the records appended since the
        last fsync are due (``commit``: any; ``interval-N``: N)."""
        if self.sync_policy.due(self._pending_sync):
            self.sync()

    def sync(self) -> None:
        """Force appended records to stable storage (one fsync batch);
        :meth:`_write` flushed each of them as it was appended."""
        assert self._fh is not None
        if self._pending_sync == 0:
            return
        self.sync_policy.fsync(self._fh.fileno())
        self._pending_sync = 0
        if OBS.enabled:
            SYNC_BATCHES[self.sync_policy.name].inc()

    def tell(self) -> int:
        """Current end offset of the journal file in bytes."""
        assert self._fh is not None
        return self._fh.tell()

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            if self.sync_policy.mode != "none":
                self.sync()
            self._fh.close()

    def checkpoint(self, last_lsn: int | None = None) -> None:
        """Start a fresh journal epoch above ``last_lsn`` (default: the
        last appended LSN).

        The sequence is crash-safe: an atomically-replaced ``.ckpt``
        marker records the watermark *before* the file is truncated, and
        a half-done checkpoint is completed on the next open.  The new
        epoch begins with a checkpoint frame carrying the watermark so
        the LSN sequence stays monotonic across truncations.  The new
        :attr:`base_digest` is :attr:`digest` at the journal's own
        ``last_lsn`` (a chain from an unknown base restarts), else 0.
        """
        assert self._fh is not None
        if last_lsn is None:
            last_lsn = self.last_lsn
        known = last_lsn == self.last_lsn
        marker = self._marker_path()
        tmp = marker.with_name(marker.name + ".tmp")
        with tmp.open("wb") as fh:
            fh.write(json.dumps({"last_lsn": last_lsn}).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, marker)
        self._fh.close()
        self._rewrite(last_lsn, [])
        self._fh = self._open("ab")
        marker.unlink()
        self.records_written = 0
        self._pending_sync = 0
        self.last_lsn = max(self.last_lsn, last_lsn)
        self.base_digest = self.digest = self.digest if known else 0

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------
#: Rows encoded and written per piece of a streamed snapshot.
_SNAPSHOT_CHUNK_ROWS = 1024


def _snapshot_pieces(
    tables: Mapping[str, Iterable[dict[str, Any]]],
    last_lsn: int,
    digest: int | None,
) -> Iterator[str]:
    """``json.dumps({"$snapshot": 2, "last_lsn": n[, "digest": d],
    "tables": {name: [row, ...]}}, separators=(",", ":"))`` a bounded
    piece at a time."""
    known = "" if digest is None else f'"digest":{int(digest)},'
    yield f'{{"{_SNAPSHOT_KEY}":2,"last_lsn":{last_lsn},{known}"tables":{{'
    for position, (name, rows) in enumerate(tables.items()):
        yield f'{"," if position else ""}{json.dumps(name)}:['
        rows, separator = iter(rows), ""
        while chunk := [
            encode_row(row) for row in islice(rows, _SNAPSHOT_CHUNK_ROWS)
        ]:
            yield separator + _compact(chunk)[1:-1]
            separator = ","
        yield "]"
    yield "}}"


def write_snapshot(
    path: str | os.PathLike[str],
    tables: Mapping[str, Iterable[dict[str, Any]]],
    *,
    last_lsn: int = 0,
    digest: int | None = None,
) -> None:
    """Atomically dump ``{table: rows}`` plus the journal watermark to
    ``path``, a chunk of rows at a time (``rows`` may be live iterators).

    ``last_lsn`` records the last journal LSN whose effects the
    snapshot contains; recovery replays only records above it, which is
    what makes the snapshot→truncate sequence immune to double-apply;
    ``digest`` the history digest there (None: unknown, not recorded).
    The temporary file is fsynced before the atomic rename so a crash
    can never leave a half-written snapshot under the final name; a
    failure (unencodable value, disk error) removes the temporary file
    and re-raises, the previous snapshot still in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with tmp.open("wb") as fh:
            for piece in _snapshot_pieces(tables, int(last_lsn), digest):
                fh.write(piece.encode("ascii"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_snapshot(
    path: str | os.PathLike[str],
) -> tuple[dict[str, list[dict[str, Any]]], int, int | None]:
    """``(tables, last_applied_lsn, digest)`` as parsed: rows still
    encoded (:func:`decode_row` each), so the header alone costs no
    decoding.  ``digest`` is None when unrecorded above LSN 0.

    A pre-watermark snapshot (a bare ``{table: rows}`` mapping, retired
    in PR 13) is refused: loading it with watermark 0 would replay the
    whole journal on top of rows that may already contain it.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(payload, dict) and payload.get(_SNAPSHOT_KEY) == 2):
        raise ValueError(
            f"snapshot {str(path)!r} is not a v2 snapshot: the "
            f"pre-watermark bare-mapping format was retired in PR 13"
        )
    last_lsn = int(payload.get("last_lsn", 0))
    digest = payload.get("digest", None if last_lsn else 0)
    return payload["tables"], last_lsn, digest

