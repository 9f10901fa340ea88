"""Tests for the instance/reference replica manager."""

import pytest

from repro.distribution import HoldingForm, PreBroadcaster, ReplicaManager
from repro.distribution.mtree import MAryTree
from repro.net import Network, Simulator, Station
from repro.util.units import MIB

from tests.conftest import build_network


@pytest.fixture
def manager():
    network = Network(Simulator())  # a station holds its network weakly
    yield ReplicaManager(network.add(Station("st"))), network.sim


class TestPersistentHoldings:
    def test_hold_persistent_instance(self, manager):
        mgr, _sim = manager
        holding = mgr.hold_persistent("doc", MIB)
        assert holding.form is HoldingForm.INSTANCE
        assert mgr.persistent_bytes == MIB
        assert mgr.buffer_bytes == 0

    def test_persistent_never_migrates(self, manager):
        mgr, sim = manager
        mgr.hold_persistent("doc", MIB)
        sim.run()
        assert mgr.form_of("doc") is HoldingForm.INSTANCE
        with pytest.raises(ValueError):
            mgr.migrate_to_reference("doc")

    def test_double_hold_is_idempotent(self, manager):
        mgr, _sim = manager
        first = mgr.hold_persistent("doc", MIB)
        assert mgr.hold_persistent("doc", MIB) is first
        assert mgr.persistent_bytes == MIB
        assert mgr.station.blobs.physical_bytes == MIB

    def test_hold_of_another_size_or_form_refused(self, manager):
        mgr, _sim = manager
        mgr.hold_persistent("doc", MIB)
        with pytest.raises(ValueError, match="already holds 'doc'"):
            mgr.hold_persistent("doc", 20 * MIB)
        assert mgr.persistent_bytes == MIB

    def test_buffered_instance_becomes_persistent_in_place(self, manager):
        mgr, sim = manager
        buffered = mgr.hold_buffered("doc", MIB, instance_station="s1")
        mgr.touch("doc", 1.0)
        assert mgr.hold_persistent("doc", MIB) is buffered
        assert (mgr.persistent_bytes, mgr.buffer_bytes) == (MIB, 0)
        sim.run()  # the expiry no longer applies
        assert mgr.form_of("doc") is HoldingForm.INSTANCE
        assert mgr.station.blobs.physical_bytes == MIB


class TestOneManagerPerStation:
    def test_second_manager_refused(self, manager):
        mgr, _sim = manager
        with pytest.raises(ValueError, match="already has a replica manager"):
            ReplicaManager(mgr.station)

    def test_of_returns_the_station_manager(self, manager):
        mgr, _sim = manager
        assert ReplicaManager.of(mgr.station) is mgr

    def test_of_makes_one_manager_on_first_use(self):
        net = build_network(2)
        station = net.station("s2")
        mgr = ReplicaManager.of(station)
        assert ReplicaManager.of(station) is mgr
        assert mgr.station is station

    def test_of_works_on_a_lone_station(self):
        station = Station("lone")
        ReplicaManager.of(station).hold_persistent("doc", MIB)
        assert station.disk.used_in(ReplicaManager.PERSISTENT) == MIB
        assert station.blobs.physical_bytes == MIB


    def test_touch_on_a_lone_station_raises_a_clear_error(self):
        station = Station("lone")
        mgr = ReplicaManager.of(station)
        mgr.hold_buffered("doc", MIB, instance_station="s1")
        with pytest.raises(RuntimeError, match="not attached to a network"):
            mgr.touch("doc", 60.0)
        assert mgr.holding("doc").expires_at is None
        assert mgr.form_of("doc") is HoldingForm.INSTANCE


class TestBufferedLifecycle:
    def test_migration_after_lifetime(self, manager):
        mgr, sim = manager
        mgr.hold_buffered("doc", MIB, instance_station="s1")
        mgr.touch("doc", 60.0)
        assert mgr.form_of("doc") is HoldingForm.INSTANCE
        assert mgr.buffer_bytes == MIB
        sim.run()
        assert sim.now == 60.0
        assert mgr.form_of("doc") is HoldingForm.REFERENCE
        assert mgr.buffer_bytes == 0
        assert mgr.migrations == 1

    def test_reference_remembers_instance_station(self, manager):
        mgr, sim = manager
        mgr.hold_buffered("doc", MIB, instance_station="s9")
        mgr.touch("doc", 1.0)
        sim.run()
        assert mgr.holding("doc").instance_station == "s9"

    def test_touch_extends_lifetime(self, manager):
        mgr, sim = manager
        mgr.hold_buffered("doc", MIB, instance_station="s1")
        mgr.touch("doc", 10.0)
        sim.run(until=5.0)
        mgr.touch("doc", extend_s=20.0)
        sim.run(until=12.0)  # original expiry passed
        assert mgr.form_of("doc") is HoldingForm.INSTANCE
        sim.run()
        assert mgr.form_of("doc") is HoldingForm.REFERENCE
        assert mgr.migrations == 1  # stale timer did not double-migrate

    def test_blob_reclaimed_on_migration(self, manager):
        mgr, sim = manager
        mgr.hold_buffered("doc", MIB, instance_station="s1")
        mgr.touch("doc", 1.0)
        assert mgr.station.blobs.physical_bytes == MIB
        sim.run()
        assert mgr.station.blobs.physical_bytes == 0

    def test_resident_bytes_excludes_references(self, manager):
        mgr, sim = manager
        mgr.hold_buffered("doc", MIB, instance_station="s1")
        mgr.touch("doc", 1.0)
        mgr.hold_reference("other", "s2")
        assert mgr.resident_bytes == MIB
        sim.run()
        assert mgr.resident_bytes == 0

    def test_held_instance_returned_unchanged(self, manager):
        mgr, _sim = manager
        persistent = mgr.hold_persistent("doc", MIB)
        again = mgr.hold_buffered("doc", MIB, instance_station="s9")
        assert again is persistent and again.persistent
        assert (mgr.persistent_bytes, mgr.buffer_bytes) == (MIB, 0)

    def test_held_instance_of_another_size_refused(self, manager):
        """A fetcher told 20 MiB must not share a 1 MiB copy's record."""
        mgr, _sim = manager
        mgr.hold_buffered("doc", MIB, instance_station="s1")
        with pytest.raises(ValueError, match="1048576-byte instance"):
            mgr.hold_buffered("doc", 20 * MIB, instance_station="s1")
        with pytest.raises(ValueError, match="1048576-byte instance"):
            mgr.hold_persistent("doc", 20 * MIB)
        assert (mgr.buffer_bytes, mgr.persistent_bytes) == (MIB, 0)

    def test_full_disk_keeps_a_reference(self):
        station = Station("st", disk_capacity=MIB // 2)  # mgr holds it weakly
        mgr = ReplicaManager(station)
        holding = mgr.hold_buffered("doc", MIB, instance_station="s9")
        assert holding.form is HoldingForm.REFERENCE
        assert holding.instance_station == "s9"
        assert mgr.station.disk.used_bytes == 0
        assert mgr.station.blobs.physical_bytes == 0

    def test_migrate_reference_is_noop(self, manager):
        mgr, _sim = manager
        mgr.hold_reference("doc", "s1")
        holding = mgr.migrate_to_reference("doc")
        assert holding.form is HoldingForm.REFERENCE
        assert mgr.migrations == 0


class TestReferences:
    def test_reference_costs_nothing(self, manager):
        mgr, _sim = manager
        holding = mgr.hold_reference("doc", "s1")
        assert holding.resident_bytes == 0
        assert mgr.station.disk.used_bytes == 0

    def test_holdings_listing(self, manager):
        mgr, _sim = manager
        mgr.hold_persistent("a", MIB)
        mgr.hold_reference("b", "s2")
        forms = {h.doc_id: h.form for h in mgr.holdings()}
        assert forms == {
            "a": HoldingForm.INSTANCE,
            "b": HoldingForm.REFERENCE,
        }

    def test_unknown_doc_is_none(self, manager):
        mgr, _sim = manager
        assert mgr.holding("ghost") is None
        assert mgr.form_of("ghost") is None
        assert not mgr.holds("ghost")

    def test_reference_never_demotes_a_buffered_instance(self, manager):
        mgr, sim = manager
        instance = mgr.hold_buffered("doc", MIB, instance_station="s1")
        mgr.touch("doc", 1.0)
        assert mgr.hold_reference("doc", "s2") is instance
        assert mgr.holds("doc") and mgr.buffer_bytes == MIB
        sim.run()  # the expiry still migrates it and reclaims the bytes
        assert mgr.form_of("doc") is HoldingForm.REFERENCE
        assert mgr.holding("doc").instance_station == "s1"
        assert mgr.buffer_bytes == 0
        assert mgr.station.blobs.physical_bytes == 0

    def test_reference_never_demotes_a_persistent_instance(self, manager):
        mgr, _sim = manager
        persistent = mgr.hold_persistent("doc", MIB)
        assert mgr.hold_reference("doc", "s2") is persistent
        assert mgr.persistent_bytes == MIB


class TestAdoptBroadcast:
    """The instance a pre-broadcast leaves is the station manager's own."""

    def _broadcast(self, n=4):
        net = build_network(n)
        names = [f"s{k}" for k in range(1, n + 1)]
        tree = MAryTree(n, 2, names=names)
        PreBroadcaster(net).broadcast("lec", MIB, tree)
        net.quiesce()
        return net, names

    def test_adopt_does_not_double_charge_disk(self):
        net, _names = self._broadcast()
        station = net.station("s2")
        ReplicaManager.of(station).hold_buffered(
            "lec", MIB, instance_station="s1"
        )
        assert station.disk.used_bytes == MIB  # not 2 MiB
        assert station.blobs.physical_bytes == MIB

    def test_adopted_instance_migrates_and_frees_broadcast_bytes(self):
        net, _names = self._broadcast()
        station = net.station("s2")
        mgr = ReplicaManager.of(station)
        mgr.touch("lec", 5.0)
        net.sim.run()
        assert mgr.form_of("lec") is HoldingForm.REFERENCE
        assert station.disk.used_bytes == 0
        assert station.blobs.physical_bytes == 0

    def test_adopt_persistent_moves_to_persistent_category(self):
        net, _names = self._broadcast()
        station = net.station("s1")
        ReplicaManager.of(station).hold_persistent("lec", MIB)
        assert station.disk.used_in("persistent") == MIB
        assert station.disk.used_in("buffer") == 0
        assert station.blobs.physical_bytes == MIB

    def test_adopt_without_lifetime_never_expires(self):
        net, _names = self._broadcast()
        net.sim.schedule(86400.0, lambda: None)
        net.sim.run()
        mgr = ReplicaManager.of(net.station("s2"))
        assert mgr.form_of("lec") is HoldingForm.INSTANCE
        assert mgr.buffer_bytes == MIB

    def test_full_station_lifecycle_keeps_a_reference_to_the_root(self):
        """Hold, expire and migrate with one station's disk full."""
        net = build_network(4, disk_capacity={"s3": MIB // 2})
        names = ["s1", "s2", "s3", "s4"]
        PreBroadcaster(net).broadcast(
            "lec", MIB, MAryTree(4, 2, names=names)
        )
        net.quiesce()
        ReplicaManager.of(net.station("s1")).hold_persistent("lec", MIB)
        for name in names[1:]:
            ReplicaManager.of(net.station(name)).touch("lec", 60.0)
        net.sim.run()
        for name in names[1:]:
            holding = ReplicaManager.of(net.station(name)).holding("lec")
            assert holding.form is HoldingForm.REFERENCE
            assert holding.instance_station == "s1"
            assert net.station(name).disk.used_bytes == 0
        assert net.station("s1").disk.used_in("persistent") == MIB
