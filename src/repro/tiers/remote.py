"""The three-tier protocol over the simulated network.

The in-process :class:`~repro.tiers.server.ClassAdministrator` models
the middle tier's logic; this module puts the tier boundary on the
wire, as the deployed system would: clients at student workstations send
:class:`~repro.tiers.protocol.Request` messages to the server station,
which dispatches to the class administrator and sends the
:class:`~repro.tiers.protocol.Response` back.  Request/response sizes
are charged to the link model, so tier traffic competes with lecture
distribution for bandwidth — the contention the paper's pre-broadcast
design is careful about.

The calls ride the network's one request/reply path
(:meth:`~repro.net.transport.Network.call`): any number of stubs may
share a workstation, a reply that never arrives is forgotten rather
than awaited for ever, and a request carries the earlier of its own
``deadline_s`` and the caller's ambient deadline.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.net.transport import CallKind, Network
from repro.tiers.protocol import Request, Response
from repro.tiers.server import ClassAdministrator

__all__ = ["RemoteTierServer", "RemoteTierClient"]

#: the tier protocol: a reply costs 512 bytes plus its data
TIER = CallKind("tier.request", "tier.response", 512, site="remote-tier")


class RemoteTierServer:
    """Hosts a class administrator behind a network station."""

    def __init__(
        self,
        network: Network,
        station_name: str,
        administrator: ClassAdministrator | None = None,
    ) -> None:
        self.administrator = (
            administrator if administrator is not None else ClassAdministrator()
        )
        self.requests_received = 0
        network.serve(station_name, TIER, self._answer, self._refuse)

    def _answer(self, request: Request) -> Response:
        self.requests_received += 1
        return self.administrator.handle(request)

    def _refuse(self, request: Request) -> Response:
        self.requests_received += 1
        return Response.overload(
            request, f"deadline passed before {request.op!r} was dispatched"
        )


class RemoteTierClient:
    """A client stub at one workstation.

    ``call`` is asynchronous: it sends the request and invokes the
    callback with the response when it arrives.  ``call_sync`` drives
    the simulator until the response lands — convenient in scripts where
    the client is the only actor.
    """

    def __init__(
        self, network: Network, station_name: str, server_station: str
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.server_station = server_station
        self.session_id: str | None = None
        self.responses_received = 0
        network.pending(station_name, TIER)  # the station's reply route

    def _received(
        self, on_response: Callable[[Response], None], response: Response
    ) -> None:
        self.responses_received += 1
        on_response(response)

    # ------------------------------------------------------------------
    def call(
        self,
        op: str,
        params: dict[str, Any] | None = None,
        on_response: Callable[[Response], None] | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        tenant: str | None = None,
    ) -> Request:
        """Send a request; ``on_response`` fires at arrival (without
        one the call is fire-and-forget and its reply is ignored).

        ``deadline_s`` is relative to the simulator clock now and
        travels as an absolute deadline: the server refuses the request
        at dispatch once it has passed, and the admission controller (if
        installed) budgets queueing against it.
        """
        request = Request(
            op=op, session_id=self.session_id, params=params or {},
            deadline=self.network.call_deadline(deadline_s),
            priority=priority, tenant=tenant,
        )
        self.network.call(
            self.station_name, self.server_station, TIER, request,
            request.wire_size,
            None if on_response is None
            else partial(self._received, on_response),
        )
        return request

    def call_sync(self, op: str, **params: Any) -> Response:
        """Send and run the simulator until the response arrives."""
        request = Request(
            op, self.session_id, params, deadline=self.network.call_deadline()
        )
        response = self.network.call_sync(
            self.station_name, self.server_station, TIER, request,
            request.wire_size, op,
        )
        self.responses_received += 1
        return response

    def login(self, user: str, role: str) -> str:
        response = self.call_sync("login", user=user, role=role)
        self.session_id = response.unwrap()["session_id"]
        return self.session_id
