"""Tests for network failure injection (crashes, message loss)."""

import pytest

from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink

from tests.conftest import build_network


class TestStationDown:
    def test_messages_to_down_station_lost(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m))
        net8.set_down("s2")
        net8.send("s1", "s2", "k", None, 100)
        net8.quiesce()
        assert seen == []
        assert net8.messages_dropped == 1

    def test_messages_from_down_station_lost(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m))
        net8.set_down("s1")
        net8.send("s1", "s2", "k", None, 100)
        net8.quiesce()
        assert seen == []

    def test_crash_mid_flight_drops_delivery(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m))
        net8.send("s1", "s2", "k", None, 5_000_000)  # seconds in flight
        net8.set_down("s2")
        net8.quiesce()
        assert seen == [] and net8.messages_dropped == 1

    def test_revived_station_receives_again(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m.payload))
        net8.set_down("s2")
        net8.send("s1", "s2", "k", "lost", 10)
        net8.quiesce()
        net8.set_down("s2", down=False)
        net8.send("s1", "s2", "k", "heard", 10)
        net8.quiesce()
        assert seen == ["heard"]
        assert not net8.is_down("s2")

    def test_unknown_station_rejected(self, net8):
        with pytest.raises(LookupError):
            net8.set_down("ghost")


class TestRandomLoss:
    def _lossy(self, drop_rate, n_messages=200):
        sim = Simulator()
        net = Network(sim, default_latency_s=0.001, drop_rate=drop_rate,
                      seed=7)
        net.add(Station("a", DuplexLink.symmetric_mbps(100)))
        net.add(Station("b", DuplexLink.symmetric_mbps(100)))
        seen = []
        net.station("b").on_default(lambda st, m: seen.append(m))
        for _ in range(n_messages):
            net.send("a", "b", "k", None, 10)
        net.quiesce()
        return net, seen

    def test_zero_rate_loses_nothing(self):
        net, seen = self._lossy(0.0)
        assert len(seen) == 200 and net.messages_dropped == 0

    def test_full_rate_loses_everything(self):
        net, seen = self._lossy(1.0)
        assert seen == [] and net.messages_dropped == 200

    def test_partial_rate_loses_roughly_that_fraction(self):
        net, seen = self._lossy(0.3)
        assert 0.15 < net.messages_dropped / 200 < 0.45

    def test_deterministic_for_seed(self):
        first = self._lossy(0.3)[0].messages_dropped
        second = self._lossy(0.3)[0].messages_dropped
        assert first == second

    def test_drop_sequence_is_pinned(self):
        # Which of 32 sends a ``Network(drop_rate=0.2, seed=1999)`` lost
        # when the drop RNG was built in ``__init__`` (PR 21's parent);
        # the RNG built on the first draw must lose the same ones, also
        # when the rate is only raised after construction.
        lost = [5, 9, 10, 15, 21, 31]
        eager = Network(Simulator(), drop_rate=0.2, seed=1999)
        late = Network(Simulator(), seed=1999)
        assert "_drop_rng" not in vars(late)  # lossless: never built
        late.set_drop_rate(0.2)
        for net in (eager, late):
            net.add(Station("a", DuplexLink.symmetric_mbps(100)))
            net.add(Station("b", DuplexLink.symmetric_mbps(100)))
            seen = []
            net.station("b").on_default(lambda st, m, seen=seen: seen.append(m.payload))
            for i in range(32):
                net.send("a", "b", "k", i, 10)
            net.quiesce()
            assert sorted(set(range(32)) - set(seen)) == lost

    def test_set_drop_rate_validation(self, net8):
        with pytest.raises(ValueError):
            net8.set_drop_rate(1.5)

    def test_drops_counted_in_stats(self):
        net, _seen = self._lossy(0.5)
        assert net.stats()["dropped"] == net.messages_dropped


class TestGuardsOnTheSendPath:
    """Down, partitioned and lossy paths lose exactly the messages they
    lost before the send path was tightened."""

    @pytest.mark.parametrize("down", ["s1", "s2"])
    def test_down_end_drops_at_send_and_moves_no_bytes(self, net8, down):
        net8.station("s2").on_default(lambda st, m: None)
        net8.set_down(down)
        net8.send("s1", "s2", "k", None, 100)
        assert net8.sim.pending == 0  # dropped at send: nothing queued
        assert net8.station("s1").messages_sent == 1
        assert net8.station("s1").link.bytes_up == 0
        assert net8.station("s2").link.bytes_down == 0
        stats = net8.stats()
        assert (stats["messages"], stats["dropped"], stats["bytes"]) == (1, 1, 0)

    def test_crash_while_in_flight_dropped_at_delivery(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m))
        net8.send("s1", "s2", "k", None, 100)
        assert net8.sim.pending == 1 and net8.messages_dropped == 0
        net8.set_down("s2")
        net8.quiesce()
        assert seen == [] and net8.messages_dropped == 1
        # The bytes were already on the wire when the receiver died.
        assert net8.total_bytes == 100
        assert net8.station("s2").messages_received == 0

    def test_partition_drops_across_groups_only(self, net8):
        seen = []
        for name in ("s2", "s3"):
            net8.station(name).on_default(
                lambda st, m: seen.append((st.name, m.payload))
            )
        net8.set_partition([["s1", "s2"], ["s3"]])
        net8.send("s1", "s2", "k", "same side", 10)
        net8.send("s1", "s3", "k", "across", 10)
        net8.set_partition(None)
        net8.send("s1", "s3", "k", "healed", 10)
        net8.quiesce()
        assert seen == [("s2", "same side"), ("s3", "healed")]
        assert net8.messages_dropped == 1

    def test_seeded_loss_drops_the_same_messages_as_ever(self):
        """Pinned from the commit before the rewrite: the drop RNG is
        drawn once per message sent over an up, unpartitioned path with
        a non-zero rate — and at no other time — so a fixed seed loses
        exactly these messages."""
        net = Network(Simulator(), default_latency_s=0.001, drop_rate=0.3,
                      seed=7)
        seen = []
        for name in ("a", "b", "c"):
            net.add(Station(name, DuplexLink.symmetric_mbps(100)))
            net.station(name).on_default(
                lambda st, m: seen.append(m.payload)
            )
        for i in range(60):
            if i == 10:
                net.set_down("c")
            if i == 20:
                net.set_down("c", down=False)
                net.set_partition([["a"], ["b", "c"]])
            if i == 30:
                net.set_partition(None)
                net.set_drop_rate(0.0)
            if i == 40:
                net.set_drop_rate(0.3)
            net.send("a", "bc"[i % 2], "k", i, 10)
        net.quiesce()
        assert seen == [
            1, 2, 4, 6, 8, 9, 14, 18, 30, 31, 32, 33, 34, 35, 36, 37, 38,
            39, 41, 42, 43, 44, 45, 47, 48, 49, 50, 55, 56, 57, 58,
        ]
        assert net.stats() == {
            "stations": 3, "messages": 60, "bytes": 310, "dropped": 29,
            "expired": 0, "time": 0.0010248, "events": 31,
        }


class TestOnDemandRetry:
    def _world(self, drop_rate, retry_timeout=2.0, max_retries=30, seed=11):
        from repro.distribution import MAryTree, OnDemandFetcher
        from repro.fault import RetryPolicy
        from repro.util.units import MIB

        sim = Simulator()
        net = Network(sim, default_latency_s=0.01, drop_rate=drop_rate,
                      seed=seed)
        names = [f"s{k}" for k in range(1, 9)]
        for name in names:
            net.add(Station(name, DuplexLink.symmetric_mbps(100)))
        tree = MAryTree(8, 2, names=names)
        fetcher = OnDemandFetcher(
            net, tree,
            retry_policy=RetryPolicy.fixed(
                retry_timeout, max_retries=max_retries),
        )
        fetcher.seed_instance("s1", "doc", MIB)
        return net, fetcher

    def test_fetch_succeeds_despite_loss(self):
        """A 25%-lossy path over 3 hops still completes with retries
        (intermediate caching makes per-attempt progress monotone)."""
        from repro.distribution import ReplicaManager

        net, fetcher = self._world(drop_rate=0.25)
        fetcher.request("s8", "doc")
        net.quiesce()
        assert any(r.station == "s8" for r in fetcher.reports)
        assert ReplicaManager.of(net.station("s8")).holds("doc")

    def test_retries_counted(self):
        from repro.distribution import ReplicaManager

        net, fetcher = self._world(drop_rate=0.5)
        fetcher.request("s8", "doc")
        net.quiesce()
        # with 50% loss the first attempt almost surely failed somewhere
        assert fetcher.retries >= 1 or ReplicaManager.of(net.station("s8")).holds("doc")

    def test_no_retry_without_timeout_config(self):
        from repro.distribution import MAryTree, OnDemandFetcher
        from repro.util.units import MIB

        sim = Simulator()
        net = Network(sim, default_latency_s=0.01, drop_rate=1.0, seed=1)
        names = [f"s{k}" for k in range(1, 5)]
        for name in names:
            net.add(Station(name, DuplexLink.symmetric_mbps(100)))
        fetcher = OnDemandFetcher(net, MAryTree(4, 2, names=names))
        fetcher.seed_instance("s1", "doc", MIB)
        fetcher.request("s4", "doc")
        net.quiesce()
        assert fetcher.reports == [] and fetcher.retries == 0

    def test_gives_up_after_max_retries(self):
        net, fetcher = self._world(drop_rate=1.0, max_retries=10)
        fetcher.request("s8", "doc")
        net.quiesce()
        assert fetcher.reports == []
        assert fetcher.retries == 10

    def test_lossless_path_needs_no_retries(self):
        net, fetcher = self._world(drop_rate=0.0)
        fetcher.request("s8", "doc")
        net.quiesce()
        assert fetcher.retries == 0
        assert len(fetcher.reports) == 1


class TestOnDemandRetryPolicy:
    """The fetcher's retry rides the shared repro.fault.policy schedule."""

    def _world(self, drop_rate, policy, seed=11):
        from repro.distribution import MAryTree, OnDemandFetcher
        from repro.util.units import MIB

        sim = Simulator()
        net = Network(sim, default_latency_s=0.01, drop_rate=drop_rate,
                      seed=seed)
        names = [f"s{k}" for k in range(1, 9)]
        for name in names:
            net.add(Station(name, DuplexLink.symmetric_mbps(100)))
        fetcher = OnDemandFetcher(
            net, MAryTree(8, 2, names=names), retry_policy=policy,
        )
        fetcher.seed_instance("s1", "doc", MIB)
        return net, fetcher

    def test_exponential_backoff_still_completes(self):
        from repro.distribution import ReplicaManager
        from repro.fault import RetryPolicy

        policy = RetryPolicy.exponential(1.0, max_retries=30)
        net, fetcher = self._world(0.25, policy)
        fetcher.request("s8", "doc")
        net.quiesce()
        assert ReplicaManager.of(net.station("s8")).holds("doc")

    def test_fixed_policy_is_the_constant_schedule(self):
        """``RetryPolicy.fixed`` is the one spelling of the schedule the
        removed ``retry_timeout_s=``/``max_retries=`` keywords built:
        over a black-hole network the request is re-issued exactly
        ``max_retries`` times, one constant timeout apart."""
        from repro.fault import RetryPolicy

        policy = RetryPolicy.fixed(3.0, max_retries=7)
        assert list(policy.delays()) == [3.0] * 7
        net, fetcher = self._world(1.0, policy)
        fetcher.request("s8", "doc")
        net.quiesce()
        assert fetcher.retry_policy is policy
        assert fetcher.retries == 7 and fetcher.reports == []
        assert net.sim.now == pytest.approx(policy.total_wait_s)

    def test_zero_retry_policy_never_reissues(self):
        from repro.fault import RetryPolicy

        policy = RetryPolicy.fixed(2.0, max_retries=0)
        net, fetcher = self._world(1.0, policy)
        fetcher.request("s8", "doc")
        net.quiesce()
        assert fetcher.retries == 0 and fetcher.reports == []
