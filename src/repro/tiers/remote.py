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

Any number of :class:`RemoteTierClient` stubs may share a workstation
(one per browser window, say): a reply is routed to whichever stub
still holds its ``request_id``.  A reply that never arrives — dropped,
server down, expired in flight — is forgotten, not awaited for ever:
``call_sync`` gives up with :class:`TimeoutError` and drops its entry,
and a reply to a request nobody remembers is ignored.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.messages import Message, payload_size
from repro.net.station import Station
from repro.net.transport import Network
from repro.obs.instrument import OBS
from repro.tiers.protocol import Request, Response
from repro.tiers.server import ClassAdministrator

__all__ = ["RemoteTierServer", "RemoteTierClient"]

REQUEST_KIND = "tier.request"
RESPONSE_KIND = "tier.response"
RESPONSE_BYTES = 512


class RemoteTierServer:
    """Hosts a class administrator behind a network station."""

    def __init__(
        self,
        network: Network,
        station_name: str,
        administrator: ClassAdministrator | None = None,
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.administrator = (
            administrator if administrator is not None else ClassAdministrator()
        )
        self.requests_received = 0
        network.station(station_name).on(REQUEST_KIND, self._on_request)

    def _on_request(self, _station: Station, message: Message) -> None:
        request: Request = message.payload
        self.requests_received += 1
        now = self.network.sim.now
        if request.deadline is not None and now >= request.deadline:
            # Expired in flight: refuse at dispatch, before the
            # administrator does any work for it.
            if OBS.enabled and OBS.registry is not None:
                OBS.registry.counter(
                    "admission.deadline_expired", site="remote-tier"
                ).inc()
            response = Response.overload(
                request,
                f"deadline passed before {request.op!r} was dispatched",
            )
        else:
            response = self.administrator.handle(request)
        self.network.send(
            self.station_name,
            message.src,
            RESPONSE_KIND,
            response,
            RESPONSE_BYTES + payload_size(response.data),
        )


class RemoteTierClient:
    """A client stub at one workstation.

    ``call`` is asynchronous: it sends the request and invokes the
    callback with the response when it arrives.  ``call_sync`` drives
    the simulator until the response lands — convenient in scripts where
    the client is the only actor.  Stubs on one station share its reply
    handler; each keeps its own ``request_id -> callback`` table.
    """

    def __init__(
        self, network: Network, station_name: str, server_station: str
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.server_station = server_station
        self.session_id: str | None = None
        self._pending: dict[int, Callable[[Response], None]] = {}
        self.responses_received = 0
        station = network.station(station_name)
        if not station.handles(RESPONSE_KIND):
            station.on(RESPONSE_KIND, self._on_response)
        #: every stub on this station; the one registered handler routes
        #: a reply to whichever of them holds its request id
        station.state.setdefault("tier_clients", []).append(self)

    def _on_response(self, station: Station, message: Message) -> None:
        response: Response = message.payload
        request_id = response.request_id
        client = self
        callback = self._pending.pop(request_id, None)
        if callback is None:
            for client in station.state["tier_clients"]:
                callback = client._pending.pop(request_id, None)
                if callback is not None:
                    break
            else:
                return  # late reply to a request its caller gave up on
        client.responses_received += 1
        callback(response)

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
        travels as an absolute deadline: the transport discards the
        request if it expires in flight, the server refuses it at
        dispatch, and the admission controller (if installed) budgets
        queueing against it.
        """
        deadline = (
            self.network.sim.now + deadline_s
            if deadline_s is not None else None
        )
        request = Request(
            op=op, session_id=self.session_id, params=params or {},
            deadline=deadline, priority=priority, tenant=tenant,
        )
        if on_response is not None:
            self._pending[request.request_id] = on_response
        self.network.send(
            self.station_name,
            self.server_station,
            REQUEST_KIND,
            request,
            request.wire_size,
        )
        return request

    def call_sync(self, op: str, **params: Any) -> Response:
        """Send and run the simulator until the response arrives."""
        box: list[Response] = []
        request = self.call(op, params, on_response=box.append)
        # Drive the clock forward until our response lands (bounded so a
        # lost response cannot hang the caller).
        sim = self.network.sim
        give_up_at = sim.now + 3600.0
        while not box and sim.now < give_up_at:
            if not sim.step():
                break
        if not box:
            self._pending.pop(request.request_id, None)
            raise TimeoutError(
                f"no response to {op!r} from {self.server_station!r}"
            )
        return box[0]

    def login(self, user: str, role: str) -> str:
        response = self.call_sync("login", user=user, role=role)
        self.session_id = response.unwrap()["session_id"]
        return self.session_id
