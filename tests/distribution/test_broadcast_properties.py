"""Property tests for broadcast and prediction invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.distribution import (
    MAryTree,
    PreBroadcaster,
    ReplicaManager,
    predict_makespan,
)
from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink
from repro.util.units import MIB, Bandwidth

ns = st.integers(min_value=2, max_value=40)
ms = st.integers(min_value=1, max_value=6)
sizes = st.integers(min_value=1, max_value=20 * MIB)


def _network(n: int, mbit: float = 10.0, latency: float = 0.02) -> Network:
    sim = Simulator()
    net = Network(sim, default_latency_s=latency)
    for k in range(1, n + 1):
        net.add(Station(f"s{k}", DuplexLink.symmetric_mbps(mbit)))
    return net


@given(ns, ms, sizes)
@settings(max_examples=40, deadline=None)
def test_everyone_receives_exactly_once(n, m, size):
    net = _network(n)
    tree = MAryTree(n, m, names=[f"s{k}" for k in range(1, n + 1)])
    report = PreBroadcaster(net).broadcast("lec", size, tree)
    net.quiesce()
    assert set(report.arrival_times) == set(tree.names)
    # exactly one stored copy per station
    for name in tree.names:
        station = net.station(name)
        holdings = ReplicaManager.of(station).holdings()
        assert [h.doc_id for h in holdings] == ["lec"]
        assert station.disk.used_in("buffer") == size


@given(ns, ms, sizes)
@settings(max_examples=40, deadline=None)
def test_children_never_precede_parents(n, m, size):
    net = _network(n)
    tree = MAryTree(n, m, names=[f"s{k}" for k in range(1, n + 1)])
    report = PreBroadcaster(net).broadcast("lec", size, tree)
    net.quiesce()
    for k in range(2, n + 1):
        child = tree.name_of(k)
        parent = tree.name_of(tree.parent(k))
        assert report.arrival_times[child] > report.arrival_times[parent]


@given(ns, ms, sizes)
@settings(max_examples=40, deadline=None)
def test_prediction_matches_simulation(n, m, size):
    """The analytic recurrence is exact for whole-file forwarding."""
    net = _network(n)
    tree = MAryTree(n, m, names=[f"s{k}" for k in range(1, n + 1)])
    report = PreBroadcaster(net).broadcast("lec", size, tree)
    net.quiesce()
    predicted = predict_makespan(
        n, m, size, Bandwidth.from_mbps(10.0), 0.02
    )
    assert predicted == pytest.approx(report.makespan, rel=1e-9)


@given(ns, sizes)
@settings(max_examples=30, deadline=None)
def test_total_bytes_equal_n_minus_one_copies(n, size):
    """Tree forwarding moves exactly N-1 lecture copies over the wire."""
    net = _network(n)
    tree = MAryTree(n, 3, names=[f"s{k}" for k in range(1, n + 1)])
    PreBroadcaster(net).broadcast("lec", size, tree)
    net.quiesce()
    assert net.total_bytes == (n - 1) * size


@given(ns, sizes, st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_chunking_never_hurts_when_serialization_dominates(
    n, size, chunk_divisor
):
    """On zero-latency links, store-and-forward pipelining can only help
    (or tie).  With latency, each extra chunk pays propagation per hop,
    so the guarantee holds only when serialization dominates — which is
    why the latency-free case is the invariant worth pinning."""
    chunk = max(1, size // chunk_divisor)

    def run(chunk_size):
        net = _network(n, latency=0.0)
        tree = MAryTree(n, 3, names=[f"s{k}" for k in range(1, n + 1)])
        report = PreBroadcaster(net).broadcast(
            "lec", size, tree, chunk_size_bytes=chunk_size
        )
        net.quiesce()
        return report.makespan

    whole = run(None)
    chunked = run(chunk)
    assert chunked <= whole * (1 + 1e-9) + 1e-9
