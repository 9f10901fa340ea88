"""Tests for the discrete-event simulator core."""

import pytest

from repro.net import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.schedule(1.0, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0] and sim.now == 5.0

    def test_schedule_at_absolute(self):
        sim = Simulator()
        sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert sim.now == 4.0

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    @pytest.mark.parametrize("when", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_times_rejected(self, when):
        """A NaN or infinite event would become ``now``; past a NaN
        ``now`` every "in the past?" check passes."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="finite|>= 0"):
            sim.schedule(when, lambda: None)
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_at(when, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        hits = []

        def cascade(depth):
            hits.append(sim.now)
            if depth:
                sim.schedule(1.0, cascade, depth - 1)

        sim.schedule(0.0, cascade, 3)
        sim.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]


class TestRunControl:
    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, "early")
        sim.schedule(10.0, hits.append, "late")
        sim.run(until=5.0)
        assert hits == ["early"]
        assert sim.now == 5.0
        assert sim.pending == 1
        sim.run()
        assert hits == ["early", "late"]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_step(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(RuntimeError, match="re-entrant"):
            sim.run()
