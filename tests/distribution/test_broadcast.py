"""Tests for tree pre-broadcast and the flat baseline."""

import pytest

from repro.distribution import MAryTree, PreBroadcaster, ReplicaManager
from repro.util.units import MIB

from tests.conftest import build_network


def _names(n: int) -> list[str]:
    return [f"s{k}" for k in range(1, n + 1)]


class TestTreeBroadcast:
    def test_all_stations_receive(self, metrics_registry):
        net = build_network(16)
        broadcaster = PreBroadcaster(net)
        tree = MAryTree(16, 2, names=_names(16))
        report = broadcaster.broadcast("lec", 2 * MIB, tree)
        net.quiesce()
        assert len(report.arrival_times) == 16
        snap = metrics_registry.snapshot()
        assert snap.counter_total("broadcast.stations_completed") == 15
        assert snap.counter_total("broadcast.bytes_sent") == 15 * 2 * MIB
        assert snap.counter_total("net.bytes") == net.total_bytes

    def test_lecture_stored_in_blob_stores(self):
        net = build_network(4)
        tree = MAryTree(4, 2, names=_names(4))
        PreBroadcaster(net).broadcast("lec", MIB, tree)
        net.quiesce()
        for name in _names(4):
            station = net.station(name)
            assert ReplicaManager.of(station).holds("lec")
            assert station.disk.used_in("buffer") == MIB

    def test_children_receive_after_parents(self, metrics_registry,
                                            sim_tracer):
        net = build_network(15)
        tracer = sim_tracer(net.sim)
        tree = MAryTree(15, 2, names=_names(15))
        PreBroadcaster(net).broadcast("lec", MIB, tree)
        net.quiesce()
        # The trace carries the ordering: every hop span's own
        # completion instant lies strictly after its tree parent's.
        completed = {
            s.attributes["station"]: s.attributes["completed"]
            for s in tracer.spans() if s.name.startswith("hop:")
        }
        root_name = tree.name_of(1)
        for k in range(2, 16):
            parent = tree.name_of(tree.parent(k))
            child = tree.name_of(k)
            if parent == root_name:
                assert completed[child] > 0.0
            else:
                assert completed[child] > completed[parent]

    def test_root_arrival_is_start(self):
        net = build_network(4)
        tree = MAryTree(4, 2, names=_names(4))
        report = PreBroadcaster(net).broadcast("lec", MIB, tree)
        net.quiesce()
        assert report.arrival_after("s1") == 0.0

    def test_deep_tree_slower_than_balanced(self):
        """m=1 (chain) must be far worse than m=3 for 32 stations."""
        times = {}
        for m in (1, 3):
            net = build_network(32)
            tree = MAryTree(32, m, names=_names(32))
            report = PreBroadcaster(net).broadcast("lec", 4 * MIB, tree)
            net.quiesce()
            times[m] = report.makespan
        assert times[1] > 3 * times[3]

    def test_chunking_reduces_makespan(self):
        whole, chunked = {}, {}
        for label, chunk in (("whole", None), ("chunked", 256 * 1024)):
            net = build_network(16)
            tree = MAryTree(16, 2, names=_names(16))
            report = PreBroadcaster(net).broadcast(
                f"lec-{label}", 8 * MIB, tree, chunk_size_bytes=chunk
            )
            net.quiesce()
            (whole if chunk is None else chunked)[label] = report.makespan
        assert chunked["chunked"] < whole["whole"]

    def test_chunk_count(self):
        net = build_network(2)
        tree = MAryTree(2, 2, names=_names(2))
        report = PreBroadcaster(net).broadcast(
            "lec", 10 * MIB + 1, tree, chunk_size_bytes=MIB
        )
        assert report.n_chunks == 11

    def test_single_station_trivial(self):
        net = build_network(1)
        tree = MAryTree(1, 2, names=["s1"])
        report = PreBroadcaster(net).broadcast("lec", MIB, tree)
        net.quiesce()
        assert report.makespan == 0.0

    def test_invalid_size_rejected(self):
        net = build_network(2)
        tree = MAryTree(2, 2, names=_names(2))
        with pytest.raises(ValueError):
            PreBroadcaster(net).broadcast("lec", 0, tree)

    def test_report_accessors(self):
        net = build_network(4)
        tree = MAryTree(4, 2, names=_names(4))
        broadcaster = PreBroadcaster(net)
        report = broadcaster.broadcast("lec", MIB, tree)
        net.quiesce()
        assert broadcaster.report("lec") is report
        assert 0 < report.mean_arrival <= report.makespan


def _flat_tree(n):
    """The flat baseline: every receiver is a child of the root."""
    return MAryTree(n, n - 1, names=_names(n))


class TestFlatBroadcast:
    def test_all_receivers_get_lecture(self):
        net = build_network(8)
        report = PreBroadcaster(net).broadcast("lec", MIB, _flat_tree(8))
        net.quiesce()
        assert len(report.arrival_times) == 8

    def test_flat_slower_than_tree_at_scale(self):
        n = 32
        flat_net = build_network(n)
        flat = PreBroadcaster(flat_net).broadcast(
            "lec", 4 * MIB, _flat_tree(n)
        )
        flat_net.quiesce()

        tree_net = build_network(n)
        tree = MAryTree(n, 3, names=_names(n))
        tree_report = PreBroadcaster(tree_net).broadcast("lec", 4 * MIB, tree)
        tree_net.quiesce()
        assert flat.makespan > 2 * tree_report.makespan

    def test_flat_arrivals_linear_in_receiver_count(self):
        net = build_network(5, mbit=8.0, latency=0.0)
        report = PreBroadcaster(net).broadcast(
            "lec", 1_000_000, _flat_tree(5)
        )
        net.quiesce()
        arrivals = sorted(
            report.arrival_times[name] for name in _names(5)[1:]
        )
        assert arrivals == pytest.approx([1.0, 2.0, 3.0, 4.0])
