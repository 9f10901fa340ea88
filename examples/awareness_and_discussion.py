#!/usr/bin/env python3
"""Awareness + group discussion over a lossy network.

Exercises the paper's Awareness Criterion tooling: students join a
virtual classroom (heartbeat presence), discuss on the course board
(posts fan out only to members actually present), one station crashes
and ages out of the roster, and an off-line student later pulls the
lecture over a lossy path with automatic retries.

Run:  python examples/awareness_and_discussion.py
"""

from __future__ import annotations

from repro.collab import DiscussionBoard, PresenceDaemon
from repro.distribution import (
    BroadcastVector,
    HoldingForm,
    MAryTree,
    OnDemandFetcher,
    ReferenceBroadcaster,
    ReplicaManager,
)
from repro.fault import RetryPolicy
from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink
from repro.util.units import MIB

N_STATIONS = 10


def main() -> None:
    sim = Simulator()
    net = Network(sim, default_latency_s=0.03)
    names = [f"s{k}" for k in range(1, N_STATIONS + 1)]
    for name in names:
        net.add(Station(name, DuplexLink.symmetric_mbps(10)))

    # ------------------------------------------------------------------
    # 1. Presence: the class gathers.
    # ------------------------------------------------------------------
    presence = PresenceDaemon(net, "s1", heartbeat_interval_s=30.0,
                              timeout_s=90.0)
    students = {
        "alice": "s2", "bob": "s3", "cyd": "s4", "dana": "s5",
    }
    for user, station in students.items():
        presence.join(user, station, "CS101")
    presence.join("erik", "s6", "MM201")  # different course
    sim.run(until=1.0)
    roster = [info.user for info in presence.present("CS101")]
    print(f"present in CS101: {roster}")

    # ------------------------------------------------------------------
    # 2. Discussion: posts fan out to present course members.
    # ------------------------------------------------------------------
    board = DiscussionBoard(net, presence)
    thread = board.create_thread("CS101", "Questions on lecture 1")
    board.post("alice", "s2", thread.thread_id,
               "Why does the von Neumann model separate memory?")
    sim.run(until=sim.now + 2.0)
    board.post("bob", "s3", thread.thread_id,
               "See page 2 of the lecture notes.")
    sim.run(until=sim.now + 2.0)
    print(f"thread has {len(board.thread(thread.thread_id))} posts; "
          f"cyd's station received "
          f"{len(board.delivered_to('s4'))} live deliveries, "
          f"erik's (other course) {len(board.delivered_to('s6'))}")

    # ------------------------------------------------------------------
    # 3. A station crashes; awareness notices.
    # ------------------------------------------------------------------
    net.set_down("s5")
    sim.run(until=sim.now + 120.0)  # past the presence timeout
    roster = [info.user for info in presence.present("CS101")]
    print(f"after dana's station crash, CS101 roster: {roster}")
    board.post("alice", "s2", thread.thread_id, "dana, are you there?")
    sim.run(until=sim.now + 2.0)
    print(f"dana's crashed station received "
          f"{len(board.delivered_to('s5'))} of the 3 posts "
          f"(the rest wait on the board)")

    # ------------------------------------------------------------------
    # 4. Off-line review over a lossy path with retries.
    # ------------------------------------------------------------------
    vector = BroadcastVector(net)
    for name in names[:8]:
        vector.join(name)
    tree = vector.tree(2)
    announcer = ReferenceBroadcaster(vector, m=2)
    announcer.announce("cs101-lecture1", "s1")
    sim.run(until=sim.now + 5.0)  # let the fan-out settle first
    # The reference table the announcement built; the fetch below
    # replaces s8's reference with an instance.
    refs = {h.doc_id: h.instance_station
            for h in ReplicaManager.of(net.station("s8")).holdings()
            if h.form is HoldingForm.REFERENCE}
    net.set_drop_rate(0.2)  # the 1999 Internet
    fetcher = OnDemandFetcher(
        net, tree, retry_policy=RetryPolicy.fixed(5.0, max_retries=20))
    fetcher.seed_instance("s1", "cs101-lecture1", 20 * MIB)
    fetcher.request("s8", "cs101-lecture1")
    # Heartbeat loops run forever, so advance bounded time rather than
    # draining the queue; retries land well within this window.
    while not fetcher.reports and sim.now < 1200.0:
        sim.run(until=sim.now + 10.0)
    report = fetcher.reports[-1]
    print(f"\noff-line fetch over 20%-lossy links: "
          f"latency={report.latency:.1f}s hops={report.hops_up} "
          f"retries={fetcher.retries} dropped={net.messages_dropped} msgs")
    print(f"s8's reference table: {refs}")


if __name__ == "__main__":
    main()
