#!/usr/bin/env python3
"""A 64-station virtual class: pre-broadcast, replay, reclamation.

Reproduces the paper's distance-learning scenario end to end:

1. 64 workstations join the database system in linear order; the
   adaptive selector picks the tree arity ``m`` for the lecture's media
   type and current bandwidth.
2. The instructor (station 1, the tree root) pre-broadcasts a 50 MB
   MPEG lecture down the full m-ary tree — compare against the flat
   one-uplink broadcast the tree replaces.
3. Student stations replay the lecture locally in real time (possible
   only because the BLOB was preloaded).
4. After the lecture duration, duplicated instances migrate to document
   references and the buffer space is reclaimed — only the instructor
   keeps persistent objects.

Run:  python examples/virtual_course_broadcast.py
"""

from __future__ import annotations

from repro.distribution import (
    AdaptiveMSelector,
    MAryTree,
    PreBroadcaster,
    ReplicaManager,
)
from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink
from repro.storage.blob import BlobKind
from repro.util.units import MIB, Bandwidth, format_bytes, format_duration
from repro.workloads.media import PLAYBACK_RATES

N_STATIONS = 64
LECTURE_BYTES = 50 * MIB
LINK_MBPS = 10.0
LECTURE_DURATION_S = 45 * 60.0  # a 45-minute lecture


def build_network() -> Network:
    sim = Simulator()
    net = Network(sim, default_latency_s=0.05)
    for position in range(1, N_STATIONS + 1):
        net.add(Station(f"s{position}", DuplexLink.symmetric_mbps(LINK_MBPS)))
    return net


def main() -> None:
    names = [f"s{k}" for k in range(1, N_STATIONS + 1)]

    # ------------------------------------------------------------------
    # 1. Adaptive arity selection for this media type and bandwidth.
    # ------------------------------------------------------------------
    selector = AdaptiveMSelector(Bandwidth.from_mbps(LINK_MBPS), latency_s=0.05)
    m = selector.m_for(BlobKind.VIDEO, N_STATIONS, LECTURE_BYTES)
    print(f"adaptive selector: m = {m} for {N_STATIONS} stations, "
          f"{format_bytes(LECTURE_BYTES)} MPEG video at {LINK_MBPS} Mb/s")

    # ------------------------------------------------------------------
    # 2. Tree pre-broadcast vs the flat baseline.
    # ------------------------------------------------------------------
    net = build_network()
    broadcaster = PreBroadcaster(net)
    tree = MAryTree(N_STATIONS, m, names=names)
    tree_report = broadcaster.broadcast(
        "lecture-1", LECTURE_BYTES, tree, chunk_size_bytes=MIB
    )
    net.quiesce()

    flat_net = build_network()
    flat_report = PreBroadcaster(flat_net).broadcast(
        "lecture-1", LECTURE_BYTES,
        MAryTree(N_STATIONS, N_STATIONS - 1, names=names),
    )
    flat_net.quiesce()

    print(f"tree  broadcast (m={m}, 1 MiB chunks): makespan "
          f"{format_duration(tree_report.makespan)}")
    print(f"flat  broadcast (root unicasts all):   makespan "
          f"{format_duration(flat_report.makespan)}")
    print(f"speedup: {flat_report.makespan / tree_report.makespan:.1f}x")

    # ------------------------------------------------------------------
    # 3. Real-time demonstration check.
    # ------------------------------------------------------------------
    playback_rate = PLAYBACK_RATES[BlobKind.VIDEO]
    playback_seconds = LECTURE_BYTES / playback_rate
    print(f"\nplayback needs {playback_rate * 8 / 1e6:.1f} Mb/s sustained "
          f"for {format_duration(playback_seconds)}")
    print("after pre-broadcast every station plays the lecture from its "
          "local BLOB store: real-time demonstration guaranteed")
    laggards = [
        name for name in names
        if tree_report.arrival_times[name] - tree_report.start_time
        > LECTURE_DURATION_S
    ]
    print(f"stations still waiting when the lecture would start: "
          f"{len(laggards)} (pre-broadcast finished "
          f"{format_duration(tree_report.makespan)} after push began)")

    # ------------------------------------------------------------------
    # 4. Instance -> reference migration after the lecture.
    # ------------------------------------------------------------------
    sim = net.sim
    managers = {name: ReplicaManager.of(net.station(name)) for name in names}
    # The pre-broadcast buffered the lecture on every station: the
    # instructor keeps it persistent, students for the lecture's duration.
    managers["s1"].hold_persistent("lecture-1", LECTURE_BYTES)
    for name in names[1:]:
        managers[name].touch("lecture-1", LECTURE_DURATION_S)

    buffered_before = sum(m.buffer_bytes for m in managers.values())
    sim.run()  # lecture ends; migrations fire
    buffered_after = sum(m.buffer_bytes for m in managers.values())
    migrations = sum(m.migrations for m in managers.values())

    print(f"\nbuffer space during lecture: {format_bytes(buffered_before)} "
          f"across {N_STATIONS - 1} student stations")
    print(f"migrations after lecture: {migrations} instances -> references")
    print(f"buffer space after migration: {format_bytes(buffered_after)}")
    print(f"instructor keeps persistent: "
          f"{format_bytes(managers['s1'].persistent_bytes)}")
    forms = {name: managers[name].form_of('lecture-1').value
             for name in ("s1", "s2", "s64")}
    print(f"final forms: {forms}")


if __name__ == "__main__":
    main()
