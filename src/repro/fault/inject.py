"""Deterministic, seedable fault schedules for the simulated cluster.

The paper's distribution mechanism assumes every workstation stays up
for the whole lecture.  This module makes the opposite the test
condition: a :class:`FaultSchedule` is a declarative, reproducible list
of bad events — station crashes and restarts, link-loss percentages,
latency spikes, network partitions, link-rate drops — and a
:class:`FaultInjector` arms them on the discrete-event clock, where they
act through the existing :class:`~repro.net.transport.Network` and
:class:`~repro.net.link.DuplexLink` failure surfaces.

Everything is virtual-time and seeded, so a faulty run is exactly as
repeatable as a healthy one; with an empty schedule the injector
schedules nothing and the simulation is byte-identical to a run without
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.net.transport import Network
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_probability

__all__ = ["FaultEvent", "FaultSchedule", "FaultInjector"]

CRASH = "crash"
RESTART = "restart"
DROP_RATE = "drop_rate"
LATENCY_SPIKE = "latency_spike"
LINK_RATE = "link_rate"
PARTITION = "partition"
HEAL = "heal"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault: what happens, when, and to whom."""

    time: float
    kind: str
    target: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        """Look up one parameter by name."""
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass
class FaultSchedule:
    """An ordered, declarative list of fault events.

    Build one imperatively (:meth:`crash`, :meth:`partition`, ...) or
    draw one from a seed (:meth:`random_crashes`); either way the result
    is a plain value that can be inspected, logged, or replayed.
    """

    events: list[FaultEvent] = field(default_factory=list)

    # -- builders ----------------------------------------------------------
    def crash(self, time: float, station: str) -> "FaultSchedule":
        """Station goes down at ``time`` (messages to/from it are lost)."""
        return self._add(FaultEvent(time=float(time), kind=CRASH,
                                    target=station))

    def restart(self, time: float, station: str) -> "FaultSchedule":
        """Station comes back at ``time`` with its disk intact."""
        return self._add(FaultEvent(time=float(time), kind=RESTART,
                                    target=station))

    def drop_rate(self, time: float, rate: float) -> "FaultSchedule":
        """Network-wide message loss becomes ``rate`` at ``time``."""
        check_probability(rate, "rate")
        return self._add(FaultEvent(time=float(time), kind=DROP_RATE,
                                    params=(("rate", float(rate)),)))

    def latency_spike(
        self, time: float, a: str, b: str, latency_s: float, duration_s: float
    ) -> "FaultSchedule":
        """The (a, b) path's latency jumps for ``duration_s`` seconds."""
        check_non_negative(latency_s, "latency_s")
        check_non_negative(duration_s, "duration_s")
        return self._add(FaultEvent(
            time=float(time), kind=LATENCY_SPIKE, target=a,
            params=(("peer", b), ("latency_s", float(latency_s)),
                    ("duration_s", float(duration_s))),
        ))

    def link_rate(self, time: float, station: str, mbit: float) -> "FaultSchedule":
        """Station's link degrades to ``mbit`` Mb/s at ``time``."""
        if not mbit > 0:
            raise ValueError(f"mbit must be > 0, got {mbit!r}")
        return self._add(FaultEvent(time=float(time), kind=LINK_RATE,
                                    target=station,
                                    params=(("mbit", float(mbit)),)))

    def partition(
        self,
        time: float,
        groups: Sequence[Iterable[str]],
        duration_s: float | None = None,
    ) -> "FaultSchedule":
        """Split the network into ``groups`` at ``time``.

        With ``duration_s`` the partition heals itself that much later;
        without it, add an explicit :meth:`heal`.
        """
        frozen = tuple(tuple(group) for group in groups)
        self._add(FaultEvent(time=float(time), kind=PARTITION,
                             params=(("groups", frozen),)))
        if duration_s is not None:
            check_non_negative(duration_s, "duration_s")
            self.heal(float(time) + duration_s)
        return self

    def heal(self, time: float) -> "FaultSchedule":
        """Remove any standing partition at ``time``."""
        return self._add(FaultEvent(time=float(time), kind=HEAL))

    def _add(self, event: FaultEvent) -> "FaultSchedule":
        check_non_negative(event.time, "time")
        self.events.append(event)
        return self

    # -- generators --------------------------------------------------------
    @classmethod
    def random_crashes(
        cls,
        stations: Sequence[str],
        crash_rate: float,
        window: tuple[float, float],
        *,
        seed: int = 0,
        restart_after_s: float | None = None,
    ) -> "FaultSchedule":
        """Crash a seeded-random ``crash_rate`` fraction of ``stations``.

        Each chosen station crashes at a uniform time within ``window``;
        with ``restart_after_s`` it also restarts that much later.  The
        draw depends only on (stations, crash_rate, window, seed).
        """
        check_probability(crash_rate, "crash_rate")
        lo, hi = float(window[0]), float(window[1])
        if hi < lo:
            raise ValueError(f"window must be (lo, hi) with hi >= lo, "
                             f"got {window!r}")
        schedule = cls()
        rng = make_rng(seed, "fault-crashes")
        for station in stations:
            if float(rng.random()) < crash_rate:
                at = lo + (hi - lo) * float(rng.random())
                schedule.crash(at, station)
                if restart_after_s is not None:
                    schedule.restart(at + restart_after_s, station)
        return schedule

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(sorted(self.events, key=lambda e: e.time))


class FaultInjector:
    """Arms a :class:`FaultSchedule` on a network's simulator clock.

    The injector only *translates* declared events into the network's
    existing failure surfaces (``set_down``, ``set_drop_rate``,
    ``set_latency``, ``set_partition``, ``link.set_rate``); it adds no
    per-message hooks, so an unarmed or empty injector costs the healthy
    path nothing.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        #: stations currently down because of an injected crash
        self.crashed: set[str] = set()
        #: (virtual time, event) pairs, in firing order
        self.fired: list[tuple[float, FaultEvent]] = []
        #: station -> [(crash_time, restart_time_or_None), ...]
        self.outages: dict[str, list[list[float | None]]] = {}
        #: unordered pair -> (latency before its first standing spike,
        #: standing spikes in start order)
        self._spikes: dict[frozenset[str], tuple[float, list[FaultEvent]]] = {}

    def arm(self, schedule: FaultSchedule) -> int:
        """Schedule every event; returns how many were armed."""
        count = 0
        for event in schedule:
            self.network.sim.schedule_at(event.time, self._fire, event)
            count += 1
        return count

    # -- event execution ---------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        now = self.network.sim.now
        self.fired.append((now, event))
        if event.kind == CRASH:
            self.network.set_down(event.target, True)
            self.crashed.add(event.target)
            self.outages.setdefault(event.target, []).append([now, None])
        elif event.kind == RESTART:
            self.network.set_down(event.target, False)
            self.crashed.discard(event.target)
            spans = self.outages.get(event.target, [])
            if spans and spans[-1][1] is None:
                spans[-1][1] = now
        elif event.kind == DROP_RATE:
            self.network.set_drop_rate(event.param("rate"))
        elif event.kind == LATENCY_SPIKE:
            a, b = event.target, event.param("peer")
            pair = frozenset((a, b))
            _before, standing = self._spikes.setdefault(
                pair, (self.network.latency(a, b), [])
            )
            standing.append(event)
            self.network.set_latency(a, b, event.param("latency_s"))
            self.network.sim.schedule(
                event.param("duration_s"), self._end_spike, pair, event
            )
        elif event.kind == LINK_RATE:
            station = self.network.station(event.target)
            station.link.set_rate_mbps(event.param("mbit"))
        elif event.kind == PARTITION:
            self.network.set_partition(event.param("groups"))
        elif event.kind == HEAL:
            self.network.set_partition(None)
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")

    def _end_spike(self, pair: frozenset[str], event: FaultEvent) -> None:
        """Retire one spike: the latest-started standing spike's latency
        holds the path; after the last one, the latency before the first.
        """
        before, standing = self._spikes[pair]
        standing.remove(event)
        a, b = event.target, event.param("peer")
        if standing:
            self.network.set_latency(a, b, standing[-1].param("latency_s"))
        else:
            del self._spikes[pair]
            self.network.set_latency(a, b, before)

    # -- accounting --------------------------------------------------------
    def downtime_s(self, station: str, horizon: float | None = None) -> float:
        """Total injected downtime for ``station`` up to ``horizon``.

        Open outages (no restart yet) are closed at ``horizon`` (default:
        the current virtual time).
        """
        end = self.network.sim.now if horizon is None else float(horizon)
        total = 0.0
        for start, stop in self.outages.get(station, []):
            total += max(0.0, min(end, stop if stop is not None else end)
                         - min(start, end))
        return total

    def crash_count(self, station: str) -> int:
        """How many injected crashes ``station`` suffered."""
        return len(self.outages.get(station, []))
