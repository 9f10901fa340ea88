"""Shared replication fixtures: primary + WAL-shipped followers.

The shipper/recoverer, failover and chaos suites all need the same
assembly — a journal-backed primary running the E17 crash workload,
a :class:`~repro.replication.WalShipper`, and N named followers on a
fresh simulated network.  :class:`ReplCluster` is that assembly once;
the ``repl_cluster`` factory fixture hands out instances rooted in the
test's ``tmp_path``.
"""

from __future__ import annotations

import pytest

from repro.fault.crashsim import CRASH_SCHEMAS, CrashWorkload, crash_ddl
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.replication import Recoverer, WalShipper


class ReplCluster:
    """One primary plus named followers over a fresh network."""

    #: exposed so tests rebuilding a follower use the exact same DDL
    ddl = staticmethod(crash_ddl)

    def __init__(self, tmp_path, followers=("f1",)):
        self.tmp = tmp_path
        self.network = Network(Simulator(), default_latency_s=0.002)
        self.network.add(Station("primary"))
        #: the kit's workload + ack ledger; ``write`` drives it
        self.workload = CrashWorkload(tmp_path / "primary.wal",
                                      name="primary")
        self.db, self.journal = self.workload.db, self.workload.journal
        self.shipper = WalShipper(
            self.network, "primary", self.journal,
            snapshot_path=tmp_path / "primary.snapshot",
            snapshot_fn=lambda: self.db.snapshot(
                str(tmp_path / "primary.snapshot")
            ),
        )
        self.recoverers = {}
        for name in followers:
            self.add_follower(name)

    def add_follower(self, name):
        self.network.add(Station(name))
        recoverer = Recoverer(
            self.network, name, "primary", CRASH_SCHEMAS,
            self.tmp / name, sync_policy="commit", ddl_fn=crash_ddl,
        )
        self.recoverers[name] = recoverer
        return recoverer

    def write(self, n=1):
        self.workload.run(n)

    def sync(self):
        self.shipper.pump()
        self.network.quiesce()


@pytest.fixture
def repl_cluster(tmp_path):
    """Factory: ``cluster = repl_cluster(followers=("f1", "f2"))``."""

    def build(followers=("f1",)):
        return ReplCluster(tmp_path, followers)

    return build
