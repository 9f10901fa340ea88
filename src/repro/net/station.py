"""Simulated workstations.

A :class:`Station` is a named network endpoint with a handler table
(dispatch by message kind), traffic counters and the workstation's one
BLOB store and disk accountant, which only its
:class:`~repro.storage.holdings.ReplicaManager` fills.  Higher layers
(the distribution managers, the three-tier server) register handlers
rather than subclassing, mirroring how the paper's "Java-based daemons"
attach to a workstation.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable

from repro.net.link import DuplexLink
from repro.net.messages import Message
from repro.storage.accounting import DiskAccountant
from repro.storage.blob import BlobStore
from repro.util.validation import check_identifier

if TYPE_CHECKING:
    from repro.net.transport import Network

__all__ = ["Station"]

Handler = Callable[["Station", Message], None]


class Station:
    """One workstation in the simulated network."""

    def __init__(
        self,
        name: str,
        link: DuplexLink | None = None,
        *,
        disk_capacity: int | None = None,
    ) -> None:
        check_identifier(name, "station name")
        self.name = name
        self.link = link if link is not None else DuplexLink.symmetric_mbps(10.0)
        self.blobs = BlobStore(station=name)
        self.disk = DiskAccountant(station=name, capacity=disk_capacity)
        self._handlers: dict[str, Handler] = {}
        self._default_handler: Handler | None = None
        self._network: "weakref.ref[Network] | None" = None
        self.messages_received = 0
        self.messages_sent = 0
        #: free-form per-daemon state, keyed by subsystem name
        self.state: dict[str, Any] = {}

    @property
    def network(self) -> "Network | None":
        """The network this station was added to, or None.  Held weakly:
        the network holds its stations, so a dropped network (and every
        server whose handlers its stations keep) is freed by reference
        counting."""
        return None if self._network is None else self._network()

    @network.setter
    def network(self, network: "Network") -> None:
        self._network = weakref.ref(network)

    # -- handler registration -----------------------------------------------
    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for message ``kind`` (one per kind)."""
        if kind in self._handlers:
            raise ValueError(
                f"station {self.name!r} already handles kind {kind!r}"
            )
        self._handlers[kind] = handler

    def off(self, kind: str) -> bool:
        """Remove the handler for ``kind``; False when none was bound.

        Lets a daemon that restarts on the same station (e.g. a
        replication follower re-entering catch-up after a crash)
        re-register its handler table without tripping the
        one-handler-per-kind rule.
        """
        return self._handlers.pop(kind, None) is not None

    def on_default(self, handler: Handler) -> None:
        """Handler for kinds with no specific registration."""
        self._default_handler = handler

    def handles(self, kind: str) -> bool:
        """True when a handler is registered for ``kind`` itself; the
        default handler is only the fallback of :meth:`deliver`."""
        return kind in self._handlers

    # -- delivery (called by the transport) --------------------------------
    def deliver(self, message: Message) -> None:
        self.messages_received += 1
        handler = self._handlers.get(message.kind, self._default_handler)
        if handler is None:
            raise LookupError(
                f"station {self.name!r} has no handler for message kind "
                f"{message.kind!r}"
            )
        handler(self, message)

    # -- convenience -----------------------------------------------------------
    def send(
        self, dst: str, kind: str, payload: Any = None, size_bytes: int = 0
    ) -> Message:
        """Send through the attached network (must be registered first)."""
        network = self.network
        if network is None:
            raise RuntimeError(
                f"station {self.name!r} is not attached to a network"
            )
        return network.send(self.name, dst, kind, payload, size_bytes)

    def __repr__(self) -> str:
        return f"Station({self.name!r})"
