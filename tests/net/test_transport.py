"""Tests for stations + the network transport."""

import pytest

from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink

from tests.conftest import build_network


class TestStation:
    def test_handler_dispatch(self, net8):
        seen = []
        net8.station("s2").on("ping", lambda st, msg: seen.append(msg.payload))
        net8.send("s1", "s2", "ping", {"n": 1}, 100)
        net8.quiesce()
        assert seen == [{"n": 1}]

    def test_duplicate_handler_rejected(self, net8):
        station = net8.station("s1")
        station.on("k", lambda st, m: None)
        with pytest.raises(ValueError):
            station.on("k", lambda st, m: None)

    def test_default_handler(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, msg: seen.append(msg.kind))
        net8.send("s1", "s2", "anything", None, 0)
        net8.quiesce()
        assert seen == ["anything"]

    def test_default_handler_does_not_hide_registered_kinds(self, net8):
        """Subsystems register their kind only where no station handler
        exists; a catch-all sink must not count as one."""
        from repro.storage.holdings import ReplicaManager
        from repro.distribution.vector import (
            BroadcastVector, ReferenceBroadcaster,
        )
        from repro.sharding.cluster import ShardClient, ShardServer
        from repro.tiers.remote import RemoteTierClient, RemoteTierServer

        sunk = []
        net8.station("s2").on_default(lambda st, m: sunk.append(m.kind))
        RemoteTierServer(net8, "s1")
        tier = RemoteTierClient(net8, "s2", "s1")
        assert tier.login("registrar", "administrator").startswith("sess-")

        class Status:
            def status(self):
                return "up"

        ShardServer(net8, "s3", Status())
        assert ShardClient(net8, "s2", "s3").status() == "up"
        vector = BroadcastVector(net8)
        for name in ("s1", "s2", "s3", "s4"):
            vector.join(name)
        ReferenceBroadcaster(vector, m=2).announce("doc-1", "s1")
        net8.quiesce()
        for name in ("s2", "s4"):  # s4 hears it through s2
            holding = ReplicaManager.of(net8.station(name)).holding("doc-1")
            assert holding.instance_station == "s1"
        assert sunk == []

    def test_unhandled_kind_raises(self, net8):
        net8.send("s1", "s2", "mystery", None, 0)
        with pytest.raises(LookupError, match="no handler"):
            net8.quiesce()

    def test_station_send_requires_network(self):
        station = Station("lonely")
        with pytest.raises(RuntimeError, match="not attached"):
            station.send("x", "k")

    def test_counters(self, net8):
        net8.station("s2").on_default(lambda st, m: None)
        net8.send("s1", "s2", "k", None, 10)
        net8.quiesce()
        assert net8.station("s1").messages_sent == 1
        assert net8.station("s2").messages_received == 1


class TestNetwork:
    def test_duplicate_station_rejected(self, net8):
        with pytest.raises(ValueError):
            net8.add(Station("s1"))

    def test_unknown_station(self, net8):
        with pytest.raises(LookupError):
            net8.station("ghost")
        with pytest.raises(LookupError):
            net8.send("s1", "ghost", "k")

    def test_self_send_rejected(self, net8):
        with pytest.raises(ValueError):
            net8.send("s1", "s1", "k")

    def test_membership(self, net8):
        assert len(net8) == 8
        assert "s3" in net8 and "zz" not in net8
        assert net8.names()[0] == "s1"

    def test_delivery_time_includes_latency_and_serialization(self):
        net = build_network(2, mbit=8.0, latency=0.5)  # 1 MB/s
        arrivals = []
        net.station("s2").on("data", lambda st, m: arrivals.append(net.sim.now))
        net.send("s1", "s2", "data", None, 1_000_000)
        net.quiesce()
        assert arrivals[0] == pytest.approx(1.5)

    def test_latency_override(self):
        net = build_network(3, mbit=8.0, latency=0.1)
        net.set_latency("s1", "s3", 2.0)
        assert net.latency("s1", "s3") == 2.0
        assert net.latency("s3", "s1") == 2.0  # symmetric
        assert net.latency("s1", "s2") == 0.1

    def test_bcast_excludes_source(self, net8):
        for name in net8.names():
            net8.station(name).on_default(lambda st, m: None)
        messages = net8.bcast("s1", net8.names(), "k", None, 10)
        assert len(messages) == 7

    def test_bcast_serializes_through_root_uplink(self):
        net = build_network(4, mbit=8.0, latency=0.0)
        arrivals = {}
        for name in net.names():
            net.station(name).on(
                "k", lambda st, m: arrivals.__setitem__(st.name, net.sim.now)
            )
        net.bcast("s1", ["s2", "s3", "s4"], "k", None, 1_000_000)
        net.quiesce()
        assert sorted(arrivals.values()) == pytest.approx([1.0, 2.0, 3.0])

    def test_stats(self, net8):
        net8.station("s2").on_default(lambda st, m: None)
        net8.send("s1", "s2", "k", None, 500)
        net8.quiesce()
        stats = net8.stats()
        assert stats["messages"] == 1 and stats["bytes"] == 500
        assert stats["stations"] == 8

    def test_message_metadata(self, net8):
        net8.station("s2").on_default(lambda st, m: None)
        message = net8.send("s1", "s2", "kind.x", {"a": 1}, 42)
        assert message.src == "s1" and message.dst == "s2"
        assert message.size_bytes == 42 and message.sent_at == 0.0

    def test_negative_size_rejected(self, net8):
        with pytest.raises(ValueError):
            net8.send("s1", "s2", "k", None, -1)


class TestSendGuards:
    """Every check on the send path fires, and fires before any
    counter, link horizon or event is touched."""

    @staticmethod
    def _untouched(net):
        stats = net.stats()
        assert stats["messages"] == 0 and stats["bytes"] == 0
        assert net.sim.pending == 0
        for station in net.stations():
            assert station.messages_sent == 0
            assert station.link.bytes_up == 0 == station.link.bytes_down
            assert station.link.up_busy_until == 0.0

    @pytest.mark.parametrize("src, dst, size, error, match", [
        ("ghost", "s1", 0, LookupError, "'ghost'"),
        ("s1", "ghost", 0, LookupError, "'ghost'"),
        ("nobody", "ghost", 0, LookupError, "'nobody'"),  # source first
        ("s1", "s1", 10, ValueError, "cannot send to itself"),
        ("s1", "s2", -1, ValueError, "size_bytes must be >= 0"),
        ("s1", "s2", float("nan"), ValueError, "size_bytes must be >= 0"),
    ])
    def test_rejected_send_touches_nothing(
        self, net8, src, dst, size, error, match
    ):
        with pytest.raises(error, match=match):
            net8.send(src, dst, "k", None, size)
        self._untouched(net8)

    def test_negative_latency_reaches_the_link_check(self, net8):
        net8.default_latency_s = -0.5  # bypasses the constructor's check
        with pytest.raises(ValueError, match="latency_s must be >= 0"):
            net8.send("s1", "s2", "k", None, 10)

    def test_latency_override_applies_per_pair(self):
        net = build_network(3, mbit=8.0, latency=0.1)
        net.set_latency("s1", "s3", 2.0)
        arrivals = {}
        for name in ("s2", "s3"):
            net.station(name).on(
                "k", lambda st, m: arrivals.__setitem__(st.name, net.sim.now)
            )
        net.send("s1", "s2", "k", None, 0)
        net.send("s1", "s3", "k", None, 0)
        net.quiesce()
        assert arrivals == {"s2": 0.1, "s3": 2.0}

    def test_message_ids_are_fresh_and_increasing(self, net8):
        net8.station("s2").on_default(lambda st, m: None)
        first = net8.send("s1", "s2", "k")
        second = net8.send("s1", "s2", "k")
        assert second.msg_id == first.msg_id + 1

    def test_deadline_expired_in_flight_is_not_delivered(self, net8):
        from repro.admission import deadline_scope

        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m.payload))
        with deadline_scope(0.01):  # latency alone is 0.02
            late = net8.send("s1", "s2", "k", "late", 10)
        with deadline_scope(5.0):
            on_time = net8.send("s1", "s2", "k", "on time", 10)
        plain = net8.send("s1", "s2", "k", "no deadline", 10)
        assert (late.deadline, on_time.deadline, plain.deadline) == (
            0.01, 5.0, None
        )
        net8.quiesce()
        assert seen == ["on time", "no deadline"]
        stats = net8.stats()
        assert stats["expired"] == 1 and stats["dropped"] == 0
        # An expired message still crossed the wire: its bytes count.
        assert stats["messages"] == 3 and stats["bytes"] == 30
        assert net8.station("s2").messages_received == 2
