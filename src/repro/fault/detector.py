"""Heartbeat-timeout failure detection over the presence daemon.

The paper's awareness daemon already makes stations "feel the existence
of each other"; this module turns that feeling into an actionable
failure detector.  Every monitored station heartbeats to a coordinator
through the existing :class:`~repro.collab.presence.PresenceDaemon`
(the detector joins each *station* to a reserved cluster course), and a
periodic sweep on the simulator clock classifies silence:

* quiet for ``suspect_timeout_s`` or more  -> **suspect** (may just be
  slow),
* quiet for ``confirm_timeout_s`` or more  -> **confirmed dead** (hand
  the station to the tree-repair layer).

Window semantics are **closed-open**: with silence ``s``, a station is
alive while ``s`` is in ``[0, suspect)``, suspect in ``[suspect,
confirm)`` and dead in ``[confirm, inf)``.  A sweep landing exactly on
a boundary tick therefore escalates — the timeout has elapsed in full —
rather than deferring to the next sweep, and a recovery requires
silence strictly below ``suspect_timeout_s``.

A station heard from again after suspicion **recovers**.  All three
transitions are emitted to registered listeners and recorded in
:attr:`FailureDetector.events`, on virtual time, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.collab.presence import PresenceDaemon
from repro.net.transport import Network
from repro.obs.instrument import OBS, Instrument
from repro.util.validation import check_positive

__all__ = ["DetectionEvent", "FailureDetector"]

EVENTS = Instrument("counter", "fault.detector_events", "kind")

CLUSTER_COURSE = "__cluster__"

SUSPECT = "suspect"
CONFIRM = "confirm"
RECOVER = "recover"

Listener = Callable[[str, float], None]


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    """One detector state transition, stamped with virtual time."""

    time: float
    kind: str  # "suspect" | "confirm" | "recover"
    station: str


class FailureDetector:
    """Classifies stations alive / suspect / confirmed-dead by heartbeat.

    The detector owns a :class:`PresenceDaemon` whose coordinator is the
    monitoring station (typically the tree root / class administrator);
    crashed members simply stop being heard, because the network drops
    everything a down station sends.
    """

    def __init__(
        self,
        network: Network,
        coordinator: str,
        stations: Sequence[str],
        *,
        heartbeat_interval_s: float = 5.0,
        suspect_timeout_s: float = 12.0,
        confirm_timeout_s: float = 25.0,
        sweep_interval_s: float | None = None,
    ) -> None:
        check_positive(heartbeat_interval_s, "heartbeat_interval_s")
        check_positive(suspect_timeout_s, "suspect_timeout_s")
        check_positive(confirm_timeout_s, "confirm_timeout_s")
        if suspect_timeout_s <= heartbeat_interval_s:
            raise ValueError(
                "suspect_timeout_s must exceed heartbeat_interval_s, "
                "otherwise healthy stations flap between beats"
            )
        if confirm_timeout_s <= suspect_timeout_s:
            raise ValueError(
                "confirm_timeout_s must exceed suspect_timeout_s "
                "(confirmation is an escalation of suspicion)"
            )
        self.network = network
        self.coordinator = coordinator
        self.stations = [s for s in stations if s != coordinator]
        self.heartbeat_interval_s = heartbeat_interval_s
        self.suspect_timeout_s = suspect_timeout_s
        self.confirm_timeout_s = confirm_timeout_s
        self.sweep_interval_s = (
            sweep_interval_s if sweep_interval_s is not None
            else heartbeat_interval_s
        )
        check_positive(self.sweep_interval_s, "sweep_interval_s")
        # Presence carries the heartbeats; its ageing timeout is the
        # confirm window so a confirmed-dead station has also fallen off
        # the roster.
        self.presence = PresenceDaemon(
            network,
            coordinator,
            heartbeat_interval_s=heartbeat_interval_s,
            timeout_s=confirm_timeout_s,
        )
        self.suspected: set[str] = set()
        self.confirmed_dead: set[str] = set()
        self.events: list[DetectionEvent] = []
        #: station -> last virtual time a heartbeat was heard
        self._last_seen: dict[str, float] = {}
        #: station -> heartbeats that should have arrived but did not
        self.missed_heartbeats: dict[str, int] = {s: 0 for s in self.stations}
        self._listeners: dict[str, list[Listener]] = {
            SUSPECT: [], CONFIRM: [], RECOVER: [],
        }
        self._running = False
        self._until = 0.0

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def on_suspect(self, listener: Listener) -> None:
        """Call ``listener(station, time)`` when a station turns suspect."""
        self._listeners[SUSPECT].append(listener)

    def on_confirm(self, listener: Listener) -> None:
        """Call ``listener(station, time)`` on confirmed death."""
        self._listeners[CONFIRM].append(listener)

    def on_recover(self, listener: Listener) -> None:
        """Call ``listener(station, time)`` when a station is heard again."""
        self._listeners[RECOVER].append(listener)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, until: float) -> None:
        """Begin heartbeating and sweeping until virtual time ``until``.

        The horizon bounds the heartbeat loops so the simulator can
        drain; monitoring past it means calling ``start`` again.
        """
        if self._running:
            raise RuntimeError("detector already started")
        if until <= self.network.sim.now:
            raise ValueError(
                f"until must be in the simulated future, got {until!r}"
            )
        self._running = True
        self._until = float(until)
        now = self.network.sim.now
        for station in self.stations:
            self.presence.join(station, station, CLUSTER_COURSE)
            self._last_seen[station] = now  # grace: joined right now
        self.network.sim.schedule(self.sweep_interval_s, self._sweep)
        self.network.sim.schedule_at(self._until, self._stop)

    def _stop(self) -> None:
        for station in self.stations:
            self.presence.leave(station, station)
        self._running = False

    # ------------------------------------------------------------------
    # Sweep
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        now = self.network.sim.now
        heard = {
            info.user: info.last_seen
            for info in self.presence.present(CLUSTER_COURSE)
        }
        for station in self.stations:
            if station in heard:
                self._last_seen[station] = max(
                    self._last_seen.get(station, 0.0), heard[station]
                )
            silence = now - self._last_seen.get(station, 0.0)
            self.missed_heartbeats[station] = max(
                self.missed_heartbeats.get(station, 0),
                int(silence // self.heartbeat_interval_s),
            )
            # Closed-open windows: alive [0, suspect), suspect
            # [suspect, confirm), dead [confirm, inf).  A boundary tick
            # escalates; it never waits one extra sweep.
            if station in self.confirmed_dead:
                if silence < self.suspect_timeout_s:
                    self._emit(RECOVER, station, now)
                    self.confirmed_dead.discard(station)
                    self.suspected.discard(station)
            elif silence >= self.confirm_timeout_s:
                if station not in self.suspected:
                    self._emit(SUSPECT, station, now)
                    self.suspected.add(station)
                self._emit(CONFIRM, station, now)
                self.confirmed_dead.add(station)
            elif silence >= self.suspect_timeout_s:
                if station not in self.suspected:
                    self._emit(SUSPECT, station, now)
                    self.suspected.add(station)
            elif station in self.suspected:
                self._emit(RECOVER, station, now)
                self.suspected.discard(station)
        if self._running and now + self.sweep_interval_s <= self._until:
            self.network.sim.schedule(self.sweep_interval_s, self._sweep)

    def _emit(self, kind: str, station: str, time: float) -> None:
        self.events.append(DetectionEvent(time=time, kind=kind,
                                          station=station))
        if OBS.enabled:
            EVENTS[kind].inc()
        for listener in self._listeners[kind]:
            listener(station, time)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_of(self, station: str) -> str:
        """``"alive"``, ``"suspect"`` or ``"dead"`` for one station."""
        if station in self.confirmed_dead:
            return "dead"
        if station in self.suspected:
            return "suspect"
        return "alive"

    def alive(self) -> list[str]:
        """Monitored stations not currently confirmed dead."""
        return [s for s in self.stations if s not in self.confirmed_dead]
