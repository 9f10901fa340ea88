"""The broadcast vector: membership and reference announcements.

The paper (§4): "N networked stations join the database system in a
linear order ... The implementation of this multi-casting system has a
broadcast vector [that] contains a linear sequence of workstation IP
addresses", and "References to the instance are broadcasted and stored
in many remote stations."

:class:`BroadcastVector` maintains that membership sequence — stations
join at the tail (the paper's linear joining order) and may leave, in
which case the vector compacts and later stations shift forward (the
paper does not specify departure; compaction preserves the full-tree
property at the cost of re-deriving parents, which the closed-form
formulas make free).

:class:`ReferenceBroadcaster` pushes *document references* (small
control records, not BLOBs) down the current tree, so every member
learns where each instance physically lives — the mirror pointers each
station's :class:`~repro.distribution.replication.ReplicaManager`
records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distribution.mtree import MAryTree
from repro.distribution.replication import ReplicaManager
from repro.net.messages import Message
from repro.net.station import Station
from repro.net.transport import Network
from repro.util.validation import check_positive

__all__ = ["VectorEntry", "BroadcastVector", "ReferenceBroadcaster"]

REFERENCE_KIND = "reference.announce"
REFERENCE_BYTES = 256


@dataclass(frozen=True, slots=True)
class VectorEntry:
    """One member of the broadcast vector."""

    station: str
    address: str  # the paper's "workstation IP address"


class BroadcastVector:
    """The linear membership sequence of the distributed database."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._entries: list[VectorEntry] = []
        self._positions: dict[str, int] = {}  # station -> 1-based position
        self.joins = 0
        self.leaves = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, station: str, address: str | None = None) -> int:
        """Append a station (paper: stations join in linear order).

        Returns the assigned 1-based position.  The station must exist
        in the network.
        """
        self.network.station(station)  # raises on unknown
        if station in self._positions:
            raise ValueError(f"station {station!r} already joined")
        entry = VectorEntry(
            station=station,
            address=address if address is not None else f"10.0.0.{len(self._entries) + 1}",
        )
        self._entries.append(entry)
        self._positions[station] = len(self._entries)
        self.joins += 1
        return len(self._entries)

    def leave(self, station: str) -> None:
        """Remove a station; later members shift forward one position."""
        position = self._positions.pop(station, None)
        if position is None:
            raise LookupError(f"station {station!r} is not a member")
        del self._entries[position - 1]
        for index in range(position - 1, len(self._entries)):
            self._positions[self._entries[index].station] = index + 1
        self.leaves += 1

    def position_of(self, station: str) -> int:
        try:
            return self._positions[station]
        except KeyError:
            raise LookupError(f"station {station!r} is not a member") from None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, station: str) -> bool:
        return station in self._positions

    def members(self) -> list[str]:
        return [entry.station for entry in self._entries]

    def addresses(self) -> list[str]:
        """The paper's broadcast vector: the linear IP-address sequence."""
        return [entry.address for entry in self._entries]

    @property
    def root(self) -> str | None:
        return self._entries[0].station if self._entries else None

    # ------------------------------------------------------------------
    # Tree derivation
    # ------------------------------------------------------------------
    def tree(self, m: int) -> MAryTree:
        """The current full m-ary tree over the membership order."""
        check_positive(m, "m")
        if not self._entries:
            raise ValueError("vector is empty; no tree to derive")
        return MAryTree(len(self._entries), m, names=self.members())


class ReferenceBroadcaster:
    """Fans document references down the membership tree.

    Each member station records the references it hears with
    :meth:`~repro.distribution.replication.ReplicaManager.hold_reference`;
    a station that holds the instance keeps it.
    """

    def __init__(self, vector: BroadcastVector, m: int = 3) -> None:
        check_positive(m, "m")
        self.vector = vector
        self.network = vector.network
        self.m = m
        self.references_sent = 0
        for station in self.network.stations():
            if not station.handles(REFERENCE_KIND):
                station.on(REFERENCE_KIND, self._on_reference)

    def announce(self, doc_id: str, instance_station: str) -> MAryTree:
        """Broadcast "doc_id lives at instance_station" to all members.

        The announcement starts at the vector root and forwards down the
        current tree; returns that tree (tests inspect it).
        """
        tree = self.vector.tree(self.m)
        root = tree.name_of(1)
        payload = {
            "doc_id": doc_id,
            "instance_station": instance_station,
            "tree_names": tree.names,
            "m": self.m,
        }
        ReplicaManager.of(self.network.station(root)).hold_reference(
            doc_id, instance_station
        )
        for child in tree.children_names(root):
            self.network.send(
                root, child, REFERENCE_KIND, payload, REFERENCE_BYTES
            )
            self.references_sent += 1
        return tree

    def _on_reference(self, station: Station, message: Message) -> None:
        payload = message.payload
        ReplicaManager.of(station).hold_reference(
            payload["doc_id"], payload["instance_station"]
        )
        # Forward using the tree snapshot the announcement was built
        # with (membership may have changed since; the snapshot keeps
        # one announcement internally consistent).
        tree = MAryTree(
            len(payload["tree_names"]), payload["m"],
            names=payload["tree_names"],
        )
        if station.name not in payload["tree_names"]:
            return  # left the vector mid-flight; do not forward
        for child in tree.children_names(station.name):
            self.network.send(
                station.name, child, REFERENCE_KIND, payload, REFERENCE_BYTES
            )
            self.references_sent += 1
