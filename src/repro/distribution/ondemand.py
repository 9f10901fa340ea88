"""On-demand retrieval along the inverse (parent) function.

For off-line lecture review the paper inverts the broadcast: "the
duplication of lecture presentations are upon demand.  A child node in
the m-ary tree copies information from its parent node", and a station
that never reviews a lecture "only keeps a document reference".

A station that misses locally asks its tree parent; the request climbs
toward the instructor root until it hits a station holding a physical
instance, then the data flows back down the same path.  Intermediate
stations may cache the instance on the way down (``cache_intermediate``)
— the paper's behaviour, since the child "copies information from its
parent" implies the parent materializes it first — or relay without
keeping a copy (ablation).  Every copy, seeded or cached, is held
through the station's :class:`~repro.distribution.replication.ReplicaManager`:
a station that already holds the document (say, by pre-broadcast) is a
local hit, and a full disk keeps only a reference.

Loss tolerance rides on the shared :class:`~repro.fault.policy.RetryPolicy`
passed as ``retry_policy`` (``RetryPolicy.fixed`` for a constant
interval, or any backoff schedule); without one a lost climb is never
re-issued.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distribution.mtree import MAryTree
from repro.distribution.replication import ReplicaManager
from repro.fault.policy import RetryPolicy
from repro.net.messages import Message
from repro.net.station import Station
from repro.net.transport import Network
from repro.storage.blob import BlobKind

__all__ = ["FetchReport", "OnDemandFetcher"]

REQUEST_KIND = "fetch.request"
DATA_KIND = "fetch.data"
REQUEST_BYTES = 512  # a small control message
_STATE_KEY = "ondemand"
_SELF = "__self__"


@dataclass(frozen=True, slots=True)
class FetchReport:
    """Outcome of one on-demand fetch."""

    doc_id: str
    station: str
    requested_at: float
    completed_at: float
    local_hit: bool
    hops_up: int  # how far the request climbed before hitting a holder

    @property
    def latency(self) -> float:
        return self.completed_at - self.requested_at


class OnDemandFetcher:
    """Serves lecture instances over the tree's parent chain."""

    def __init__(
        self,
        network: Network,
        tree: MAryTree,
        *,
        cache_intermediate: bool = True,
        kind: BlobKind = BlobKind.VIDEO,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.network = network
        self.tree = tree
        self.cache_intermediate = cache_intermediate
        self.kind = kind
        #: the retry schedule: a requester that has not received its
        #: document within the policy's timeout re-issues the climb
        #: (survives lost messages on the paper's lossy Internet).
        #: None disables retrying entirely.
        self.retry_policy = retry_policy
        self.retries = 0
        self.reports: list[FetchReport] = []
        self._doc_sizes: dict[str, int] = {}
        for name in tree.names:
            station = network.station(name)
            if not station.handles(REQUEST_KIND):
                station.on(REQUEST_KIND, self._on_request)
                station.on(DATA_KIND, self._on_data)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def seed_instance(self, station_name: str, doc_id: str, size_bytes: int) -> None:
        """Hold a persistent instance of ``doc_id`` at ``station_name``.

        Typically the root/instructor station ("the instructor
        workstation has document instances and classes as persistence
        objects").
        """
        ReplicaManager.of(self.network.station(station_name)).hold_persistent(
            doc_id, size_bytes, kind=self.kind
        )
        self._doc_sizes[doc_id] = size_bytes

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(self, station_name: str, doc_id: str) -> None:
        """A student at ``station_name`` asks to review ``doc_id``.

        The fetch completes asynchronously; run the network and read
        :attr:`reports`.
        """
        if doc_id not in self._doc_sizes:
            raise LookupError(f"unknown document {doc_id!r}; seed it first")
        station = self.network.station(station_name)
        state = self._state(station)
        now = self.network.sim.now
        if ReplicaManager.of(station).holds(doc_id):
            self.reports.append(
                FetchReport(
                    doc_id=doc_id,
                    station=station_name,
                    requested_at=now,
                    completed_at=now,
                    local_hit=True,
                    hops_up=0,
                )
            )
            return
        state["origin_times"][doc_id] = now
        self._climb(station, doc_id, waiter=_SELF, hops=0)
        if self.retry_policy is not None and self.retry_policy.allows(0):
            self.network.sim.schedule(
                self.retry_policy.timeout_for(0),
                self._check_retry, station, doc_id, 0,
            )

    def _check_retry(self, station: Station, doc_id: str, attempt: int) -> None:
        """Re-issue a climb whose request or data message was lost."""
        if doc_id not in self._state(station)["origin_times"]:
            return  # fetched (or never pending) — nothing to retry
        self.retries += 1
        self._climb(station, doc_id, waiter=_SELF, hops=0, force=True)
        if self.retry_policy.allows(attempt + 1):
            self.network.sim.schedule(
                self.retry_policy.timeout_for(attempt + 1),
                self._check_retry, station, doc_id, attempt + 1,
            )

    def _climb(
        self,
        station: Station,
        doc_id: str,
        waiter: str,
        hops: int,
        *,
        force: bool = False,
    ) -> None:
        state = self._state(station)
        waiters = state["waiters"].setdefault(doc_id, [])
        if waiter not in waiters:
            waiters.append(waiter)
        elif not force:
            return
        if len(waiters) > 1 and not force:
            return  # a request for this doc is already in flight upward
        parent = self.tree.parent_name(station.name)
        if parent is None:
            raise LookupError(
                f"document {doc_id!r} is nowhere on the path above "
                f"{station.name!r} (root does not hold it)"
            )
        self.network.send(
            station.name,
            parent,
            REQUEST_KIND,
            {"doc_id": doc_id, "hops": hops + 1},
            REQUEST_BYTES,
        )

    def _on_request(self, station: Station, message: Message) -> None:
        doc_id = message.payload["doc_id"]
        hops = message.payload["hops"]
        state = self._state(station)
        replicas = ReplicaManager.of(station)
        if replicas.holds(doc_id):
            # a copy points at the instance its data came from
            origin = replicas.holding(doc_id).instance_station or station.name
            self._send_data(station, message.src, doc_id, hops, origin)
        else:
            # A duplicate request from a child already waiting means its
            # retry timer fired — push the retry up the chain too.
            is_retry = message.src in state["waiters"].get(doc_id, [])
            self._climb(
                station, doc_id, waiter=message.src, hops=hops,
                force=is_retry,
            )

    def _send_data(
        self, station: Station, child: str, doc_id: str, hops: int, origin: str
    ) -> None:
        size = self._doc_sizes[doc_id]
        self.network.send(
            station.name,
            child,
            DATA_KIND,
            {"doc_id": doc_id, "hops": hops, "origin": origin},
            size,
        )

    def _on_data(self, station: Station, message: Message) -> None:
        doc_id = message.payload["doc_id"]
        hops = message.payload["hops"]
        origin = message.payload["origin"]
        state = self._state(station)
        waiters = state["waiters"].pop(doc_id, [])
        is_requester = _SELF in waiters
        child_waiters = [w for w in waiters if w != _SELF]
        if is_requester or (self.cache_intermediate and child_waiters):
            ReplicaManager.of(station).hold_buffered(
                doc_id,
                self._doc_sizes[doc_id],
                instance_station=origin,
                kind=self.kind,
            )
        if is_requester:
            self.reports.append(
                FetchReport(
                    doc_id=doc_id,
                    station=station.name,
                    requested_at=state["origin_times"].pop(doc_id),
                    completed_at=self.network.sim.now,
                    local_hit=False,
                    hops_up=hops,
                )
            )
        for child in child_waiters:
            self._send_data(station, child, doc_id, hops, origin)

    # ------------------------------------------------------------------
    @staticmethod
    def _state(station: Station) -> dict:
        return station.state.setdefault(
            _STATE_KEY,
            {"waiters": {}, "origin_times": {}},
        )
