"""The one request/reply call path, over both protocols that ride it.

Client → tier (``tiers.remote``) and coordinator → shard
(``sharding.cluster``) calls share ``Network.call``/``call_sync``: a
call its caller stopped waiting for leaves nothing in the station's
pending table, and a reply arriving after that is dropped.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.admission import DeadlineExceededError, deadline_scope
from repro.net.transport import CallKind, Network
from repro.sharding.cluster import SHARD, ShardCall, ShardClient, ShardServer
from repro.tiers.remote import TIER, RemoteTierClient, RemoteTierServer

from tests.conftest import build_network


class Status:
    def status(self):
        return {"alive": True}


@dataclass
class Hop:
    """One protocol between caller ``s2`` and server ``s1``."""

    net: Network
    kind: CallKind
    call_sync: Callable[[], Any]
    #: sends one call without awaiting its reply
    fire_and_forget: Callable[[], None]
    #: calls the server has answered
    served: Callable[[], int]

    def pending(self) -> dict:
        return self.net.pending("s2", self.kind)


@pytest.fixture(params=["tier", "shard"])
def hop(request) -> Hop:
    net = build_network(2)
    if request.param == "tier":
        server = RemoteTierServer(net, "s1")
        client = RemoteTierClient(net, "s2", "s1")
        params = {"user": "x", "role": "administrator"}
        return Hop(
            net, TIER, lambda: client.call_sync("login", **params),
            lambda: client.call("login", params),
            lambda: server.administrator.requests_served,
        )
    server = ShardServer(net, "s1", Status())
    client = ShardClient(net, "s2", "s1")
    return Hop(
        net, SHARD, client.status,
        lambda: net.call("s2", "s1", SHARD, ShardCall(0, "status"), 96),
        lambda: server.calls_served,
    )


class TestLostReplies:
    def test_timeout_with_the_server_down_forgets_the_call(self, hop):
        hop.net.set_down("s1")
        for _ in range(3):
            with pytest.raises(TimeoutError, match="no reply to"):
                hop.call_sync()
        assert hop.pending() == {}
        hop.net.set_down("s1", False)
        hop.call_sync()  # the caller still works
        assert hop.pending() == {} and hop.served() == 1

    def test_late_reply_is_ignored(self, hop):
        # One way takes longer than call_sync is prepared to wait.
        hop.net.set_latency("s1", "s2", 4000.0)
        with pytest.raises(TimeoutError):
            hop.call_sync()
        assert hop.pending() == {} and hop.net.sim.pending == 1
        hop.net.quiesce()  # the reply lands at t=8000, long given up on
        assert hop.served() == 1 and hop.pending() == {}

    def test_fire_and_forget_registers_nothing(self, hop):
        hop.fire_and_forget()
        assert hop.pending() == {}
        hop.net.quiesce()  # the reply arrives and is dropped, not an error
        assert hop.served() == 1 and hop.pending() == {}

    def test_deadline_bounds_the_wait(self, hop):
        hop.net.set_down("s1")
        # Background traffic keeps the clock moving past the deadline.
        hop.net.sim.schedule(0.4, lambda: None)
        hop.net.sim.schedule(7200.0, lambda: None)
        with deadline_scope(hop.net.sim.now + 0.3):
            with pytest.raises(DeadlineExceededError, match="awaiting"):
                hop.call_sync()
        assert hop.net.sim.now == 0.4 and hop.net.sim.pending == 1
        assert hop.pending() == {}


class TestCallDeadline:
    def test_the_sooner_of_own_and_ambient(self):
        net = build_network(2)
        assert net.call_deadline() is None
        assert net.call_deadline(2.0) == 2.0
        with deadline_scope(1.0):
            assert net.call_deadline(2.0) == 1.0
            assert net.call_deadline(0.5) == 0.5

    def test_nan_is_refused(self):
        net = build_network(2)
        with pytest.raises(ValueError, match="NaN"):
            net.call_deadline(float("nan"))
        with deadline_scope(1.0):
            with pytest.raises(ValueError, match="NaN"):
                net.call_deadline(float("nan"))
