"""Tests for capacity-aware pre-broadcast (reference-only degradation)."""

import pytest

from repro.distribution import (
    HoldingForm,
    MAryTree,
    PreBroadcaster,
    ReplicaManager,
)
from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink
from repro.util.units import MIB


def _network_with_capacities(capacities: dict[str, int | None]) -> Network:
    sim = Simulator()
    net = Network(sim, default_latency_s=0.02)
    for name, capacity in capacities.items():
        net.add(Station(name, DuplexLink.symmetric_mbps(10),
                        disk_capacity=capacity))
    return net


class TestCapacityDegradation:
    def test_full_station_becomes_reference_only(self):
        net = _network_with_capacities({
            "s1": None, "s2": 1 * MIB, "s3": None, "s4": None,
        })
        tree = MAryTree(4, 3, names=["s1", "s2", "s3", "s4"])
        report = PreBroadcaster(net).broadcast("lec", 5 * MIB, tree)
        net.quiesce()
        assert report.reference_only == {"s2"}
        assert "s2" in report.arrival_times  # it still received
        station = net.station("s2")
        holding = ReplicaManager.of(station).holding("lec")
        assert holding.form is HoldingForm.REFERENCE
        assert holding.instance_station == "s1"  # the tree root
        assert station.disk.used_bytes == 0

    def test_full_interior_node_still_forwards(self):
        """A full station in the middle of the tree must not starve its
        subtree (it forwards before/independently of storing)."""
        net = _network_with_capacities({
            "s1": None, "s2": 1 * MIB, "s3": None,
            "s4": None, "s5": None, "s6": None, "s7": None,
        })
        tree = MAryTree(7, 2, names=[f"s{k}" for k in range(1, 8)])
        report = PreBroadcaster(net).broadcast("lec", 5 * MIB, tree)
        net.quiesce()
        # s4 and s5 are s2's children; both must hold the lecture
        assert ReplicaManager.of(net.station("s4")).holds("lec")
        assert ReplicaManager.of(net.station("s5")).holds("lec")
        assert report.reference_only == {"s2"}

    def test_sufficient_capacity_stores_normally(self):
        net = _network_with_capacities({
            "s1": None, "s2": 10 * MIB, "s3": None,
        })
        tree = MAryTree(3, 2, names=["s1", "s2", "s3"])
        report = PreBroadcaster(net).broadcast("lec", 5 * MIB, tree)
        net.quiesce()
        assert report.reference_only == set()
        assert net.station("s2").disk.used_bytes == 5 * MIB

    def test_chunked_broadcast_also_degrades_gracefully(self):
        net = _network_with_capacities({
            "s1": None, "s2": 1 * MIB, "s3": None,
        })
        tree = MAryTree(3, 2, names=["s1", "s2", "s3"])
        report = PreBroadcaster(net).broadcast(
            "lec", 5 * MIB, tree, chunk_size_bytes=MIB
        )
        net.quiesce()
        assert report.reference_only == {"s2"}
        assert ReplicaManager.of(net.station("s3")).holds("lec")

    def test_second_lecture_fills_remaining_space(self):
        net = _network_with_capacities({
            "s1": None, "s2": 7 * MIB, "s3": None,
        })
        tree = MAryTree(3, 2, names=["s1", "s2", "s3"])
        broadcaster = PreBroadcaster(net)
        first = broadcaster.broadcast("lec1", 5 * MIB, tree)
        net.quiesce()
        second = broadcaster.broadcast("lec2", 5 * MIB, tree)
        net.quiesce()
        assert first.reference_only == set()
        assert second.reference_only == {"s2"}  # only 2 MiB left
