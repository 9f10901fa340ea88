"""Watermark-frequency duplication.

The paper: "When a document instance is retrieved from a remote station
more than a certain amount of iterations (or more than a watermark
frequency), physical multimedia data are copied to the remote station."

:class:`WatermarkPolicy` keeps the per-(station, document) retrieval
counters and answers "should this retrieval trigger duplication?".
Convention: with ``threshold = w``, the ``w``-th remote retrieval copies
the instance locally (so ``w = 1`` means copy on first touch and
``w = None`` means never copy — the two ablation endpoints of E5).

:class:`WatermarkSimulator` replays an access trace against the link
model: every remote retrieval (and the duplication itself) pays the
transfer cost from the owning station; local replays are free.  It
reports latency, bytes moved and disk consumed so the threshold sweep
exposes the policy's latency/space trade-off.  The owner holds its
documents persistently and a copy is a buffered instance, both through
each station's :class:`~repro.storage.holdings.ReplicaManager`;
a station whose disk is full keeps a reference instead, and the access
reports ``duplicated=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.holdings import ReplicaManager
from repro.net.link import schedule_transfer
from repro.net.transport import Network
from repro.util.validation import check_positive

__all__ = ["WatermarkPolicy", "AccessOutcome", "TraceResult", "WatermarkSimulator"]


class WatermarkPolicy:
    """Retrieval counters + the duplication decision."""

    def __init__(self, threshold: int | None) -> None:
        if threshold is not None:
            check_positive(threshold, "threshold")
        self.threshold = threshold
        self._counts: dict[tuple[str, str], int] = {}

    def record_remote(self, station: str, doc_id: str) -> bool:
        """Count one remote retrieval; True when it should trigger a copy."""
        key = (station, doc_id)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        return self.threshold is not None and count >= self.threshold

    def count(self, station: str, doc_id: str) -> int:
        return self._counts.get((station, doc_id), 0)

    def reset(self) -> None:
        self._counts.clear()


@dataclass(frozen=True, slots=True)
class AccessOutcome:
    """One access in a replayed trace."""

    time: float
    station: str
    doc_id: str
    served_locally: bool
    duplicated: bool
    latency: float
    bytes_moved: int


@dataclass
class TraceResult:
    """Aggregate outcome of one trace replay."""

    threshold: int | None
    outcomes: list[AccessOutcome] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return len(self.outcomes)

    @property
    def local_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.served_locally)

    @property
    def hit_rate(self) -> float:
        return self.local_hits / self.accesses if self.outcomes else 0.0

    @property
    def replicas_created(self) -> int:
        return sum(1 for o in self.outcomes if o.duplicated)

    @property
    def total_bytes(self) -> int:
        return sum(o.bytes_moved for o in self.outcomes)

    @property
    def mean_latency(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.latency for o in self.outcomes) / len(self.outcomes)

    @property
    def replica_bytes(self) -> int:
        """Disk consumed by duplicated instances."""
        return sum(o.bytes_moved for o in self.outcomes if o.duplicated)


class WatermarkSimulator:
    """Replays (station, doc) access traces under a watermark policy.

    Documents live on an owner station (the instructor workstation);
    ``doc_sizes`` maps document id -> instance size in bytes, and the
    owner holds each persistently, so its disk must have room for them
    all (else :class:`~repro.storage.accounting.DiskFullError`).  The
    simulator charges every remote byte to the link model, so a hot
    owner uplink queues — exactly why duplication pays off.
    """

    def __init__(
        self,
        network: Network,
        owner: str,
        doc_sizes: dict[str, int],
    ) -> None:
        self.network = network
        self.owner = owner
        self.doc_sizes = dict(doc_sizes)
        #: (manager, doc_id) of every copy a replay made, for :meth:`reset`
        self._copies: list[tuple[ReplicaManager, str]] = []
        owner_replicas = ReplicaManager.of(network.station(owner))
        for doc_id, size in self.doc_sizes.items():
            owner_replicas.hold_persistent(doc_id, size)

    def replay(
        self,
        trace: list[tuple[float, str, str]],
        threshold: int | None,
    ) -> TraceResult:
        """Replay ``[(time, station, doc_id), ...]`` under ``threshold``.

        The trace must be time-sorted.  Returns per-access outcomes.
        """
        policy = WatermarkPolicy(threshold)
        result = TraceResult(threshold=threshold)
        sim = self.network.sim
        last_time = sim.now
        for time, station_name, doc_id in trace:
            if time < last_time:
                raise ValueError("trace must be sorted by time")
            last_time = time
            if time > sim.now:
                sim.run(until=time)
            if doc_id not in self.doc_sizes:
                raise LookupError(f"unknown document {doc_id!r}")
            replicas = ReplicaManager.of(self.network.station(station_name))
            if replicas.holds(doc_id):
                result.outcomes.append(
                    AccessOutcome(
                        time=time,
                        station=station_name,
                        doc_id=doc_id,
                        served_locally=True,
                        duplicated=False,
                        latency=0.0,
                        bytes_moved=0,
                    )
                )
                continue
            duplicate = policy.record_remote(station_name, doc_id)
            size = self.doc_sizes[doc_id]
            timing = schedule_transfer(
                time,
                size,
                self.network.station(self.owner).link,
                self.network.station(station_name).link,
                self.network.latency(self.owner, station_name),
            )
            if duplicate:
                replicas.hold_buffered(doc_id, size, instance_station=self.owner)
                duplicate = replicas.holds(doc_id)  # not when the disk is full
                if duplicate:
                    self._copies.append((replicas, doc_id))
            result.outcomes.append(
                AccessOutcome(
                    time=time,
                    station=station_name,
                    doc_id=doc_id,
                    served_locally=False,
                    duplicated=duplicate,
                    latency=timing.arrival - time,
                    bytes_moved=size,
                )
            )
        return result

    def reset(self) -> None:
        """Migrate the copies replays made to references (the owner keeps
        its instances) and clear link horizons."""
        for replicas, doc_id in self._copies:
            if not replicas.holding(doc_id).persistent:
                replicas.migrate_to_reference(doc_id)
        self._copies.clear()
        for station in self.network.stations():
            station.link.reset()
