"""Tests for the watermark-frequency duplication policy."""

import pytest

from repro.distribution import (
    MAryTree,
    OnDemandFetcher,
    ReplicaManager,
    WatermarkPolicy,
    WatermarkSimulator,
)
from repro.storage.accounting import DiskFullError
from repro.util.units import MIB

from tests.conftest import build_network


class TestPolicy:
    def test_threshold_one_copies_immediately(self):
        policy = WatermarkPolicy(1)
        assert policy.record_remote("s2", "d") is True

    def test_threshold_three_counts_up(self):
        policy = WatermarkPolicy(3)
        assert policy.record_remote("s2", "d") is False
        assert policy.record_remote("s2", "d") is False
        assert policy.record_remote("s2", "d") is True

    def test_counts_per_station_and_doc(self):
        policy = WatermarkPolicy(2)
        policy.record_remote("s2", "d1")
        assert policy.record_remote("s3", "d1") is False  # other station
        assert policy.record_remote("s2", "d2") is False  # other doc
        assert policy.record_remote("s2", "d1") is True

    def test_none_never_copies(self):
        policy = WatermarkPolicy(None)
        for _ in range(100):
            assert policy.record_remote("s2", "d") is False

    def test_reset(self):
        policy = WatermarkPolicy(2)
        policy.record_remote("s2", "d")
        policy.reset()
        assert policy.count("s2", "d") == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            WatermarkPolicy(0)


def _simulator(n=4, docs=None):
    net = build_network(n)
    docs = docs or {"d": MIB}
    return net, WatermarkSimulator(net, "s1", docs)


class TestSimulator:
    def test_owner_always_local(self):
        _net, sim = _simulator()
        result = sim.replay([(0.0, "s1", "d")], threshold=None)
        assert result.local_hits == 1 and result.total_bytes == 0

    def test_replication_after_threshold(self):
        net, sim = _simulator()
        trace = [(float(i), "s2", "d") for i in range(5)]
        result = sim.replay(trace, threshold=2)
        # access 1 remote, access 2 remote+copy, accesses 3-5 local
        assert result.replicas_created == 1
        assert result.local_hits == 3
        assert ReplicaManager.of(net.station("s2")).holds("d")

    def test_never_replicate_all_remote(self):
        _net, sim = _simulator()
        trace = [(float(i), "s2", "d") for i in range(5)]
        result = sim.replay(trace, threshold=None)
        assert result.local_hits == 0
        assert result.total_bytes == 5 * MIB
        assert result.replicas_created == 0

    def test_always_replicate_first_touch(self):
        _net, sim = _simulator()
        trace = [(float(i), "s2", "d") for i in range(5)]
        result = sim.replay(trace, threshold=1)
        assert result.replicas_created == 1
        assert result.local_hits == 4
        assert result.total_bytes == MIB  # only the duplication transfer

    def test_latency_tradeoff_monotone(self):
        """Lower thresholds never increase total bytes-from-remote hits."""
        results = {}
        for threshold in (1, 4, None):
            _net, sim = _simulator()
            trace = [(float(i), "s2", "d") for i in range(10)]
            results[threshold] = sim.replay(trace, threshold)
        assert (
            results[1].local_hits
            >= results[4].local_hits
            >= results[None].local_hits
        )
        assert results[1].mean_latency <= results[None].mean_latency

    def test_replica_bytes_counted(self):
        _net, sim = _simulator()
        trace = [(0.0, "s2", "d"), (1.0, "s3", "d")]
        result = sim.replay(trace, threshold=1)
        assert result.replica_bytes == 2 * MIB

    def test_unsorted_trace_rejected(self):
        _net, sim = _simulator()
        with pytest.raises(ValueError, match="sorted"):
            sim.replay([(1.0, "s2", "d"), (0.0, "s2", "d")], threshold=1)

    def test_unknown_doc_rejected(self):
        _net, sim = _simulator()
        with pytest.raises(LookupError):
            sim.replay([(0.0, "s2", "ghost")], threshold=1)

    def test_reset_forgets_replicas(self):
        net, sim = _simulator()
        sim.replay([(0.0, "s2", "d")], threshold=1)
        assert ReplicaManager.of(net.station("s2")).holds("d")
        sim.reset()
        assert not ReplicaManager.of(net.station("s2")).holds("d")
        assert net.station("s1").link.up_busy_until == 0.0

    def test_reset_frees_what_it_forgets(self):
        net, sim = _simulator()
        sim.replay([(0.0, "s2", "d")], threshold=1)
        sim.reset()
        station = net.station("s2")
        assert station.disk.used_bytes == 0
        assert station.blobs.physical_bytes == 0
        holding = ReplicaManager.of(station).holding("d")
        assert holding.instance_station == "s1"  # now a reference
        sim.replay([(1.0, "s2", "d")], threshold=1)
        assert station.disk.used_bytes == MIB  # not 2 MiB
        fetcher = OnDemandFetcher(net, MAryTree(4, 2, names=["s1", "s2", "s3", "s4"]))
        fetcher.seed_instance("s1", "d", MIB)
        fetcher.request("s2", "d")
        assert fetcher.reports[0].local_hit
        assert station.disk.used_bytes == MIB  # not 3 MiB

    def test_owner_holds_its_documents_persistently(self):
        net, _sim = _simulator(docs={"d": MIB, "e": 2 * MIB})
        owner = net.station("s1")
        assert owner.disk.used_in("persistent") == 3 * MIB
        assert owner.disk.used_in("buffer") == 0

    def test_undersized_owner_refused(self):
        net = build_network(4, disk_capacity={"s1": MIB})
        with pytest.raises(DiskFullError, match="'s1'"):
            WatermarkSimulator(net, "s1", {"d": MIB, "e": MIB})

    def test_full_disk_is_not_a_duplication(self):
        net = build_network(4, disk_capacity={"s2": MIB // 2})
        sim = WatermarkSimulator(net, "s1", {"d": MIB})
        result = sim.replay([(0.0, "s2", "d"), (1.0, "s2", "d")], threshold=1)
        assert [o.duplicated for o in result.outcomes] == [False, False]
        assert result.replicas_created == 0 and result.local_hits == 0
        assert net.station("s2").disk.used_bytes == 0

    def test_disk_charged_on_duplication(self):
        net, sim = _simulator()
        sim.replay([(0.0, "s2", "d")], threshold=1)
        assert net.station("s2").disk.used_in("buffer") == MIB

    def test_hit_rate_property(self):
        _net, sim = _simulator()
        trace = [(float(i), "s2", "d") for i in range(4)]
        result = sim.replay(trace, threshold=1)
        assert result.hit_rate == pytest.approx(3 / 4)
