"""Tests for the shard proxy's deadline propagation and circuit breaking.

What a given-up call leaves behind is the call path's contract, shared
with the tier protocol: ``tests/net/test_call_path.py``.
"""

import pytest

from repro.admission import (
    OPEN,
    CircuitBreaker,
    DeadlineExceededError,
    OverloadError,
    deadline_scope,
)
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.sharding.cluster import (
    SHARD_CALL,
    SHARD_REPLY,
    ShardCall,
    ShardClient,
    ShardServer,
)


class EchoParticipant:
    """Minimal participant: status() answers, count() answers."""

    def __init__(self):
        self.calls = 0

    def status(self):
        self.calls += 1
        return {"alive": True}

    def count(self, table):
        self.calls += 1
        return 7


@pytest.fixture
def network() -> Network:
    network = Network(Simulator(), default_latency_s=0.001)
    network.add(Station("coord"))
    network.add(Station("shard-0"))
    return network


@pytest.fixture
def rpc(network):
    participant = EchoParticipant()
    server = ShardServer(network, "shard-0", participant)
    client = ShardClient(network, "coord", "shard-0", shard_id=0)
    return network, participant, server, client


class TestHappyPath:
    def test_call_round_trips(self, rpc):
        _network, participant, server, client = rpc
        assert client.count("docs") == 7
        assert participant.calls == 1 and server.calls_served == 1

    def test_reply_closes_breaker_accounting(self, rpc):
        _network, _participant, _server, client = rpc
        client.status()
        assert client.breaker.state == "closed"
        assert client.breaker.stats()["failures_in_window"] == 0


class TestDeadlines:
    def test_expired_before_send_fails_locally(self, rpc):
        network, participant, _server, client = rpc
        network.sim.run(until=10.0)
        with deadline_scope(5.0):
            with pytest.raises(DeadlineExceededError):
                client.status()
        assert participant.calls == 0

    def test_deadline_stamped_on_call(self, rpc):
        network, _participant, _server, client = rpc
        seen = []
        original = network.send

        def spy(src, dst, kind, payload=None, size_bytes=0):
            if kind == SHARD_CALL:
                seen.append(payload.deadline)
            return original(src, dst, kind, payload, size_bytes)

        network.send = spy
        with deadline_scope(100.0):
            client.status()
        assert seen == [100.0]

    def test_server_refuses_expired_call(self, network, metrics_registry):
        """A call whose deadline passed in flight is refused *before*
        the participant runs — the shard does no work nobody awaits."""
        participant = EchoParticipant()
        server = ShardServer(network, "shard-0", participant)
        replies = []
        network.station("coord").on(
            SHARD_REPLY, lambda _s, m: replies.append(m.payload)
        )
        network.sim.run(until=2.0)
        call = ShardCall(999, "status", deadline=1.0)  # already past
        network.send("coord", "shard-0", SHARD_CALL, call, 64)
        network.sim.run()
        assert participant.calls == 0 and server.calls_served == 0
        assert len(replies) == 1 and not replies[0].ok
        assert isinstance(replies[0].error, DeadlineExceededError)
        snap = metrics_registry.snapshot()
        key = ("admission.deadline_expired", (("site", "shardrpc-server"),))
        assert snap.counters[key] == 1

    def test_wait_bounded_by_deadline_not_default_timeout(self, rpc):
        network, _participant, server, client = rpc
        # Partition the shard so no reply ever comes.  The event queue
        # runs dry immediately (pure silence), so the client reports a
        # timeout — but crucially without waiting anywhere near the
        # 3600 s default, and the failure is charged to the breaker.
        network.set_down("shard-0")
        with deadline_scope(network.sim.now + 0.5):
            with pytest.raises(TimeoutError):
                client.status()
        assert network.sim.now <= 1.0
        assert client.breaker.stats()["failures_in_window"] == 1

    def test_deadline_classified_when_clock_passes_it(self, rpc):
        network, _participant, _server, client = rpc
        network.set_down("shard-0")
        # Background traffic keeps the simulator's clock moving past
        # the caller's deadline while the client waits.
        network.sim.schedule(0.2, lambda: None)
        network.sim.schedule(0.4, lambda: None)
        with deadline_scope(network.sim.now + 0.3):
            with pytest.raises(DeadlineExceededError):
                client.status()


class TestBreaker:
    def test_silence_opens_breaker_then_fails_fast(self, rpc):
        network, _participant, _server, client = rpc
        network.set_down("shard-0")
        client.breaker = CircuitBreaker(
            "shard:shard-0", failure_threshold=2, open_s=60.0,
        )
        for _ in range(2):
            with deadline_scope(network.sim.now + 0.1):
                with pytest.raises(TimeoutError):
                    client.status()
        assert client.breaker.state == OPEN
        # The next call is refused without touching the network.
        sent_before = network.total_messages
        with pytest.raises(OverloadError) as info:
            client.status()
        assert info.value.reason == "breaker"
        assert network.total_messages == sent_before

    def test_app_errors_do_not_trip_breaker(self, network):
        class Failing:
            def status(self):
                raise ValueError("constraint violated")

        ShardServer(network, "shard-0", Failing())
        client = ShardClient(network, "coord", "shard-0")
        for _ in range(10):
            with pytest.raises(ValueError):
                client.status()
        # Shipped-back application errors mean the endpoint is alive.
        assert client.breaker.state == "closed"

