"""Tests for deterministic fault schedules and the injector."""

import pytest

from repro.fault import FaultInjector, FaultSchedule


class TestSchedules:
    def test_builder_accumulates_events(self):
        s = FaultSchedule().crash(5.0, "s2").restart(9.0, "s2")
        assert len(s) == 2
        kinds = [e.kind for e in s]
        assert kinds == ["crash", "restart"]

    def test_iteration_is_time_ordered(self):
        s = FaultSchedule().crash(9.0, "s2").crash(1.0, "s3")
        assert [e.time for e in s] == [1.0, 9.0]

    def test_random_crashes_deterministic(self):
        names = [f"s{k}" for k in range(2, 50)]
        a = FaultSchedule.random_crashes(names, 0.3, (0, 10), seed=5)
        b = FaultSchedule.random_crashes(names, 0.3, (0, 10), seed=5)
        assert [(e.time, e.target) for e in a] == [(e.time, e.target)
                                                  for e in b]

    def test_random_crashes_rate_zero_is_empty(self):
        names = [f"s{k}" for k in range(2, 50)]
        assert len(FaultSchedule.random_crashes(names, 0.0, (0, 10))) == 0

    def test_random_crashes_rate_one_hits_everyone(self):
        names = ["s2", "s3", "s4"]
        s = FaultSchedule.random_crashes(names, 1.0, (0, 10), seed=1)
        assert sorted(e.target for e in s) == names

    def test_random_crashes_with_restart(self):
        s = FaultSchedule.random_crashes(["s2"], 1.0, (5, 5), seed=1,
                                         restart_after_s=10.0)
        crash, restart = list(s)
        assert crash.kind == "crash" and restart.kind == "restart"
        assert restart.time == crash.time + 10.0

    def test_rejects_bad_rate_and_window(self):
        with pytest.raises(ValueError):
            FaultSchedule.random_crashes(["s2"], 1.5, (0, 10))
        with pytest.raises(ValueError):
            FaultSchedule.random_crashes(["s2"], 0.5, (10, 0))


class TestInjector:
    def test_crash_and_restart_fire_on_clock(self, net8):
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().crash(5.0, "s2").restart(9.0, "s2"))
        net8.sim.run(until=6.0)
        assert net8.is_down("s2") and injector.crashed == {"s2"}
        net8.sim.run(until=10.0)
        assert not net8.is_down("s2") and injector.crashed == set()

    def test_downtime_accounting(self, net8):
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().crash(2.0, "s2").restart(7.0, "s2"))
        net8.quiesce()
        assert injector.downtime_s("s2", horizon=10.0) == pytest.approx(5.0)
        assert injector.crash_count("s2") == 1
        assert injector.downtime_s("s3", horizon=10.0) == 0.0

    def test_open_outage_closed_at_horizon(self, net8):
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().crash(4.0, "s2"))
        net8.quiesce()
        assert injector.downtime_s("s2", horizon=10.0) == pytest.approx(6.0)

    def test_drop_rate_event(self, net8):
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().drop_rate(3.0, 0.5))
        net8.sim.run(until=4.0)
        assert net8.drop_rate == 0.5

    def test_latency_spike_reverts(self, net8):
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().latency_spike(1.0, "s1", "s2",
                                                   latency_s=2.0,
                                                   duration_s=3.0))
        net8.sim.run(until=2.0)
        assert net8.latency("s1", "s2") == 2.0
        net8.sim.run(until=5.0)
        assert net8.latency("s1", "s2") == net8.default_latency_s

    def test_overlapping_spikes_end(self, net8):
        # The second spike names the pair the other way round; the path
        # holds the latest-started standing spike, then the latency in
        # force before the first.
        injector = FaultInjector(net8)
        injector.arm(
            FaultSchedule()
            .latency_spike(0.0, "s1", "s2", latency_s=0.5, duration_s=10.0)
            .latency_spike(5.0, "s2", "s1", latency_s=0.9, duration_s=10.0)
        )
        net8.sim.run(until=2.0)
        assert net8.latency("s1", "s2") == 0.5
        net8.sim.run(until=7.0)
        assert net8.latency("s1", "s2") == 0.9
        net8.sim.run(until=12.0)
        assert net8.latency("s1", "s2") == 0.9
        net8.sim.run(until=30.0)
        assert net8.latency("s1", "s2") == net8.default_latency_s
        assert net8.latency("s2", "s1") == net8.default_latency_s

    def test_link_rate_event(self, net8):
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().link_rate(1.0, "s2", 1.0))
        net8.sim.run(until=2.0)
        assert net8.station("s2").link.up.mbps == pytest.approx(1.0)

    def test_empty_schedule_is_free(self, net8):
        injector = FaultInjector(net8)
        assert injector.arm(FaultSchedule()) == 0
        assert net8.sim.pending == 0


class TestPartition:
    def test_partition_blocks_cross_traffic(self, net8):
        seen = []
        net8.station("s4").on_default(lambda st, m: seen.append(m.payload))
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().partition(
            1.0, [["s1", "s2"], ["s3", "s4"]], duration_s=5.0,
        ))
        net8.sim.run(until=2.0)
        assert net8.is_partitioned("s1", "s4")
        net8.send("s1", "s4", "k", "blocked", 10)
        net8.quiesce()
        assert seen == []

    def test_partition_allows_intra_group(self, net8):
        seen = []
        net8.station("s2").on_default(lambda st, m: seen.append(m.payload))
        net8.set_partition([["s1", "s2"], ["s3", "s4"]])
        net8.send("s1", "s2", "k", "ok", 10)
        net8.quiesce()
        assert seen == ["ok"]

    def test_unlisted_stations_share_residual_group(self, net8):
        seen = []
        net8.station("s8").on_default(lambda st, m: seen.append(m.payload))
        net8.set_partition([["s1", "s2"]])
        net8.send("s7", "s8", "k", "residual", 10)
        net8.quiesce()
        assert seen == ["residual"]
        assert net8.is_partitioned("s1", "s7")

    def test_heal_restores_connectivity(self, net8):
        seen = []
        net8.station("s4").on_default(lambda st, m: seen.append(m.payload))
        injector = FaultInjector(net8)
        injector.arm(FaultSchedule().partition(
            1.0, [["s1", "s2"], ["s3", "s4"]], duration_s=2.0,
        ))
        net8.sim.run(until=4.0)
        net8.send("s1", "s4", "k", "after-heal", 10)
        net8.quiesce()
        assert seen == ["after-heal"]

    def test_duplicate_membership_rejected(self, net8):
        with pytest.raises(ValueError):
            net8.set_partition([["s1", "s2"], ["s2", "s3"]])

    def test_unknown_station_rejected(self, net8):
        with pytest.raises(LookupError):
            net8.set_partition([["ghost"]])
