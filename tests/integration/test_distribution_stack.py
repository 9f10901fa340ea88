"""Integration tests for the distribution stack: broadcast + replication
+ on-demand + adaptive selection working together."""

import pytest

from repro.distribution import (
    AdaptiveMSelector,
    HoldingForm,
    MAryTree,
    OnDemandFetcher,
    PreBroadcaster,
    ReplicaManager,
)
from repro.storage.blob import BlobKind
from repro.util.units import MIB, Bandwidth

from tests.conftest import build_network


def _names(n):
    return [f"s{k}" for k in range(1, n + 1)]


class TestLectureLifecycle:
    def test_broadcast_adopt_migrate_refetch(self):
        """Push a lecture, buffer it, let it expire, pull it back."""
        n = 8
        net = build_network(n)
        names = _names(n)
        tree = MAryTree(n, 2, names=names)

        # 1. pre-broadcast
        broadcaster = PreBroadcaster(net)
        report = broadcaster.broadcast("lec", 4 * MIB, tree)
        net.quiesce()
        assert len(report.arrival_times) == n

        # 2. adopt: instructor persistent, students buffered 100s
        managers = {name: ReplicaManager.of(net.station(name))
                    for name in names}
        managers["s1"].hold_persistent("lec", 4 * MIB)
        for name in names[1:]:
            managers[name].touch("lec", 100.0)

        # 3. lecture ends; students migrate to references
        net.sim.run()
        assert managers["s1"].form_of("lec") is HoldingForm.INSTANCE
        for name in names[1:]:
            assert managers[name].form_of("lec") is HoldingForm.REFERENCE
            assert net.station(name).disk.used_bytes == 0

        # 4. a student reviews off-line: on-demand refetch up the tree
        fetcher = OnDemandFetcher(net, tree)
        fetcher.seed_instance("s1", "lec", 4 * MIB)
        assert net.station("s1").disk.used_in("persistent") == 4 * MIB
        fetcher.request("s8", "lec")
        net.quiesce()
        report = fetcher.reports[-1]
        assert report.station == "s8" and not report.local_hit
        assert report.hops_up == tree.depth_of(8)
        holding = managers["s8"].holding("lec")
        assert holding.form is HoldingForm.INSTANCE
        assert holding.instance_station == "s1"
        assert net.station("s8").disk.used_in("buffer") == 4 * MIB

    def test_adaptive_selection_feeds_broadcast(self):
        n = 27
        selector = AdaptiveMSelector(Bandwidth.from_mbps(10), latency_s=0.02)
        m = selector.m_for(BlobKind.VIDEO, n, 10 * MIB)
        net = build_network(n)
        tree = MAryTree(n, m, names=_names(n))
        report = PreBroadcaster(net).broadcast("lec", 10 * MIB, tree)
        net.quiesce()

        flat_net = build_network(n)
        flat = PreBroadcaster(flat_net).broadcast(
            "lec", 10 * MIB, MAryTree(n, n - 1, names=_names(n))
        )
        flat_net.quiesce()
        assert report.makespan < flat.makespan / 2

    def test_blob_sharing_survives_broadcast_and_replication(self):
        """The same lecture pushed twice shares storage on a station."""
        net = build_network(4)
        tree = MAryTree(4, 2, names=_names(4))
        broadcaster = PreBroadcaster(net)
        broadcaster.broadcast("lec", MIB, tree)
        net.quiesce()
        station = net.station("s2")
        physical_after_first = station.blobs.physical_bytes
        # Holding the lecture again adds neither ownership nor bytes.
        ReplicaManager.of(station).hold_buffered("lec", MIB, instance_station="s1")
        assert station.blobs.physical_bytes == physical_after_first
