"""Pre-broadcast of lecture material down the m-ary tree.

The paper's "simple course distribution mechanism, which allows the
pre-broadcast of course materials": the instructor station is the tree
root; each station, on receiving the lecture, forwards it to its tree
children.  The implementation keeps the paper's "broadcast vector" — the
linear join-order sequence of station addresses — and derives the tree
from it with :class:`~repro.distribution.mtree.MAryTree`.

Two refinements are measured as ablations:

* ``chunk_size_bytes`` splits the lecture into chunks that are forwarded
  as they arrive (store-and-forward per chunk), pipelining the levels;
* the flat baseline (root unicasts to everyone) is the same broadcast
  over a tree with ``m >= N - 1``.

The send path is fire-and-forget.  Lost or crashed-away chunks are
healed from outside: :class:`repro.fault.recovery.RedeliveryService`
asks :meth:`PreBroadcaster.missing_chunks` who is incomplete and sends
exactly those chunks with :meth:`PreBroadcaster.resend_chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.distribution.mtree import MAryTree
from repro.distribution.replication import HoldingForm, ReplicaManager
from repro.obs.instrument import OBS, Instrument, family
from repro.net.messages import Message
from repro.net.station import Station
from repro.net.transport import Network
from repro.storage.blob import BlobKind
from repro.util.validation import check_positive

__all__ = ["LecturePayload", "BroadcastReport", "PreBroadcaster"]

PUSH_KIND = "lecture.push"
_STATE_KEY = "prebroadcast"

BYTES_SENT = Instrument("counter", "broadcast.bytes_sent")
CHUNKS_SENT = Instrument("counter", "broadcast.chunks_sent")
BYTES_REDELIVERED = Instrument("counter", "broadcast.bytes_redelivered")
STATIONS_COMPLETED = Instrument("counter", "broadcast.stations_completed")
family(BYTES_SENT, CHUNKS_SENT, BYTES_REDELIVERED, STATIONS_COMPLETED)


@dataclass(frozen=True, slots=True)
class LecturePayload:
    """What travels in a push message: lecture identity and one chunk."""

    lecture_id: str
    chunk_index: int
    n_chunks: int
    chunk_bytes: int
    total_bytes: int
    kind: BlobKind = BlobKind.VIDEO
    #: redelivered chunks are targeted repairs: they are not forwarded
    #: on, so healing traffic stays exactly the bytes the healer chose
    redelivery: bool = False


@dataclass
class BroadcastReport:
    """Outcome of one pre-broadcast run."""

    lecture_id: str
    m: int
    n_stations: int
    total_bytes: int
    n_chunks: int
    start_time: float
    #: size of every chunk but the last (which carries the remainder)
    chunk_size_bytes: int = 0
    #: station name -> virtual time its *last* chunk arrived
    arrival_times: dict[str, float] = field(default_factory=dict)
    #: stations whose disk was full: they received and forwarded but
    #: kept only a reference ("the station only keeps a document
    #: reference in this case")
    reference_only: set[str] = field(default_factory=set)

    @property
    def makespan(self) -> float:
        """Time from start until the last station holds the full lecture."""
        if not self.arrival_times:
            return 0.0
        return max(self.arrival_times.values()) - self.start_time

    @property
    def mean_arrival(self) -> float:
        if not self.arrival_times:
            return 0.0
        deltas = [t - self.start_time for t in self.arrival_times.values()]
        return sum(deltas) / len(deltas)

    def arrival_after(self, station: str) -> float:
        """Seconds after start until ``station`` held the lecture."""
        return self.arrival_times[station] - self.start_time

    def chunk_bytes_of(self, index: int) -> int:
        """Wire size of chunk ``index`` (the last chunk is smaller)."""
        if not 0 <= index < self.n_chunks:
            raise ValueError(
                f"chunk index must be in [0, {self.n_chunks}), got {index}"
            )
        if index < self.n_chunks - 1:
            return self.chunk_size_bytes
        return self.total_bytes - self.chunk_size_bytes * (self.n_chunks - 1)


class PreBroadcaster:
    """Runs tree pre-broadcasts over a network.

    One broadcaster serves many runs; each run installs per-station
    chunk receipts under ``station.state["prebroadcast"]`` and holds the
    received lecture as a buffered instance through the station's
    :class:`~repro.distribution.replication.ReplicaManager` (the paper:
    duplicates are buffer space, not persistent storage).
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._reports: dict[str, BroadcastReport] = {}
        self._trees: dict[str, MAryTree] = {}
        #: bytes re-sent beyond the first delivery attempt
        self.bytes_redelivered = 0
        #: lecture_id -> {"root": Span, "hops": {name: Span},
        #:                "first_at": {name: float}} while traced
        self._obs_trace: dict[str, dict[str, Any]] = {}
        for station in network.stations():
            self._install(station)

    def _install(self, station: Station) -> None:
        if not station.handles(PUSH_KIND):
            station.on(PUSH_KIND, self._on_push)

    # ------------------------------------------------------------------
    # Tree broadcast
    # ------------------------------------------------------------------
    def broadcast(
        self,
        lecture_id: str,
        size_bytes: int,
        tree: MAryTree,
        *,
        chunk_size_bytes: int | None = None,
        kind: BlobKind = BlobKind.VIDEO,
    ) -> BroadcastReport:
        """Push ``lecture_id`` from the tree root to every station.

        Returns the (live) report; run the simulator to completion
        (``network.quiesce()``) before reading arrival times.
        """
        check_positive(size_bytes, "size_bytes")
        if chunk_size_bytes is None:
            chunk_size_bytes = size_bytes
        check_positive(chunk_size_bytes, "chunk_size_bytes")
        n_chunks = -(-size_bytes // chunk_size_bytes)  # ceil division
        report = BroadcastReport(
            lecture_id=lecture_id,
            m=tree.m,
            n_stations=tree.n,
            total_bytes=size_bytes,
            n_chunks=n_chunks,
            start_time=self.network.sim.now,
            chunk_size_bytes=chunk_size_bytes,
        )
        self._reports[lecture_id] = report
        self._trees[lecture_id] = tree
        if OBS.enabled and OBS.tracer is not None:
            root_span = OBS.tracer.start_span(
                "broadcast",
                lecture=lecture_id, m=tree.m, n=tree.n,
                bytes=size_bytes, chunks=n_chunks,
            )
            self._obs_trace[lecture_id] = {
                "root": root_span, "hops": {}, "first_at": {},
            }

        root_name = tree.name_of(1)
        root = self.network.station(root_name)
        self._hold(root, report, kind)
        root_entry = self._station_state(root).setdefault(
            lecture_id, {"chunks": set()}
        )
        root_entry["chunks"].update(range(n_chunks))
        remaining = size_bytes
        for index in range(n_chunks):
            chunk = min(chunk_size_bytes, remaining)
            remaining -= chunk
            payload = LecturePayload(
                lecture_id=lecture_id,
                chunk_index=index,
                n_chunks=n_chunks,
                chunk_bytes=chunk,
                total_bytes=size_bytes,
                kind=kind,
            )
            for child in tree.children_names(root_name):
                self.network.send(root_name, child, PUSH_KIND, payload, chunk)
                if OBS.enabled:
                    BYTES_SENT[()].inc(chunk)
                    CHUNKS_SENT[()].inc()
        return report

    def _on_push(self, station: Station, message: Message) -> None:
        payload: LecturePayload = message.payload
        self.receive_chunk(
            station,
            payload.lecture_id,
            payload.chunk_index,
            kind=payload.kind,
        )
        if payload.redelivery:
            return  # targeted repair traffic; the healer decides fan-out
        # Forward this chunk to tree children (store-and-forward per chunk).
        tree = self._trees[payload.lecture_id]
        if station.name not in tree:
            return  # dropped from membership while the chunk was in flight
        for child in tree.children_names(station.name):
            self.network.send(
                station.name, child, PUSH_KIND, payload, payload.chunk_bytes
            )
            if OBS.enabled:
                BYTES_SENT[()].inc(payload.chunk_bytes)
                CHUNKS_SENT[()].inc()

    def receive_chunk(
        self,
        station: Station,
        lecture_id: str,
        chunk_index: int,
        *,
        kind: BlobKind = BlobKind.VIDEO,
    ) -> bool:
        """Record one chunk at ``station``; True when it just completed.

        Duplicate chunks are idempotent (receipts are a set of indices,
        not a counter), which is what makes redelivery after crashes or
        loss safe to over-send.
        """
        report = self._reports[lecture_id]
        state = self._station_state(station)
        entry = state.setdefault(lecture_id, {"chunks": set()})
        trace = self._obs_trace.get(lecture_id)
        if trace is not None and not entry["chunks"]:
            trace["first_at"].setdefault(station.name, self.network.sim.now)
        was_complete = len(entry["chunks"]) == report.n_chunks
        entry["chunks"].add(chunk_index)
        if was_complete or len(entry["chunks"]) < report.n_chunks:
            return False
        self._hold(station, report, kind)
        if OBS.enabled:
            STATIONS_COMPLETED[()].inc()
            self._trace_completion(lecture_id, station.name)
        return True

    def _trace_completion(self, lecture_id: str, station_name: str) -> None:
        """Record one finished tree hop as a span.

        The span's parent is the nearest *up-tree* ancestor's hop span
        (falling back to the broadcast root span), and every ancestor
        is stretched to cover this completion so the trace stays
        well-nested even though chunk pipelining means descendants
        finish after the instant their ancestor went complete.
        """
        trace = self._obs_trace.get(lecture_id)
        tracer = OBS.tracer
        if trace is None or tracer is None:
            return
        now = self.network.sim.now
        tree = self._trees[lecture_id]
        report = self._reports[lecture_id]
        parent_of = getattr(tree, "parent_name", None)
        chain: list[str] = []  # up-tree ancestors, nearest first
        if parent_of is not None and station_name in tree:
            name = parent_of(station_name)
            while name is not None:
                chain.append(name)
                name = parent_of(name)
        parent_span = trace["root"]
        for name in chain:
            hop = trace["hops"].get(name)
            if hop is not None:
                parent_span = hop
                break
        span = tracer.start_span(
            f"hop:{station_name}",
            parent=parent_span,
            start=trace["first_at"].get(station_name, now),
            station=station_name,
            depth=len(chain),
            bytes=report.total_bytes,
            completed=now,  # own completion; end stretches over descendants
        )
        tracer.end_span(span, end=now)
        trace["hops"][station_name] = span
        for name in chain:
            hop = trace["hops"].get(name)
            if hop is not None:
                tracer.extend(hop, now)
        tracer.extend(trace["root"], now)

    # ------------------------------------------------------------------
    # Completion tracking and targeted redelivery
    # ------------------------------------------------------------------
    def chunks_received(self, station_name: str, lecture_id: str) -> set[int]:
        """Chunk indices ``station_name`` holds for ``lecture_id``."""
        station = self.network.station(station_name)
        entry = self._station_state(station).get(lecture_id)
        return set() if entry is None else set(entry["chunks"])

    def missing_chunks(self, station_name: str, lecture_id: str) -> list[int]:
        """Chunk indices ``station_name`` still lacks, ascending."""
        report = self._reports[lecture_id]
        have = self.chunks_received(station_name, lecture_id)
        return [i for i in range(report.n_chunks) if i not in have]

    def is_complete(self, station_name: str, lecture_id: str) -> bool:
        """True once a station holds every chunk of the lecture."""
        return not self.missing_chunks(station_name, lecture_id)

    def resend_chunks(
        self,
        src: str,
        dst: str,
        lecture_id: str,
        chunk_indexes: list[int],
        *,
        kind: BlobKind = BlobKind.VIDEO,
    ) -> int:
        """Unicast specific chunks from ``src`` to ``dst``; returns bytes.

        The receiver stores them like first-delivery pushes but does not
        forward them on (``redelivery=True``): the healer enumerates the
        incomplete stations itself, so repair traffic is exactly the
        bytes it chose to send.
        """
        report = self._reports[lecture_id]
        sent = 0
        for index in chunk_indexes:
            chunk = report.chunk_bytes_of(index)
            payload = LecturePayload(
                lecture_id=lecture_id,
                chunk_index=index,
                n_chunks=report.n_chunks,
                chunk_bytes=chunk,
                total_bytes=report.total_bytes,
                kind=kind,
                redelivery=True,
            )
            self.network.send(src, dst, PUSH_KIND, payload, chunk)
            sent += chunk
        self.bytes_redelivered += sent
        if OBS.enabled:
            BYTES_REDELIVERED[()].inc(sent)
        return sent

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _station_state(station: Station) -> dict:
        return station.state.setdefault(_STATE_KEY, {})

    def _hold(
        self, station: Station, report: BroadcastReport, kind: BlobKind
    ) -> None:
        """Buffer the lecture ``station`` just completed.

        A full station degrades to the paper's reference behaviour: it
        keeps a pointer to the tree root's instance (and, in the tree,
        it has already forwarded the chunks downstream).
        """
        holding = ReplicaManager.of(station).hold_buffered(
            report.lecture_id,
            report.total_bytes,
            instance_station=self._trees[report.lecture_id].name_of(1),
            kind=kind,
        )
        report.arrival_times[station.name] = self.network.sim.now
        if holding.form is HoldingForm.REFERENCE:
            report.reference_only.add(station.name)

    def report(self, lecture_id: str) -> BroadcastReport:
        return self._reports[lecture_id]

    def tree(self, lecture_id: str) -> MAryTree:
        """The forwarding tree currently driving ``lecture_id``."""
        return self._trees[lecture_id]

    def retarget(self, lecture_id: str, tree: MAryTree) -> None:
        """Swap the forwarding tree for ``lecture_id``.

        Used by the fault-repair layer after crashed stations are
        removed from the membership: chunks still in flight (and any
        redelivered ones) forward along the repaired tree, not through
        the dead stations.
        """
        self._trees[lecture_id] = tree
