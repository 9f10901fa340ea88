"""The transport facade: stations + links + the event loop.

Verbs follow the mpi4py tutorial's shape — ``send`` (point-to-point),
``bcast`` (one-to-many, which on this link model is *sequential* unicast
from the root, the very cost the paper's tree distribution avoids) —
but delivery is asynchronous through the simulator, and handlers run at
arrival time.

``send`` is the per-message hot path of every wire experiment, so its
checks are written to cost nothing when they pass — stations come from
the dict (``station()`` only words the error), failure injection is
consulted only while some is configured — but each one still fires.
What ``send`` computes is the contract: the arrival instant, the link
horizons and the byte and message counters of a run are bit-identical
however fast the Python around them gets (``tests/tiers/test_remote.py``
pins a script of them).  A message that is dropped, or whose deadline
passes in flight, simply never arrives.

Beside ``send`` sits the one request/reply path both wire protocols
ride, client → tier (``tiers.remote``) and coordinator → shard
(``sharding.cluster``): ``serve``, ``call`` and ``call_sync``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

from repro.admission import DeadlineExceededError, current_deadline
from repro.net.link import schedule_transfer
from repro.obs.instrument import OBS, Instrument, family
from repro.net.messages import Message, next_msg_id, payload_size
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_probability

__all__ = ["CALL_TIMEOUT_S", "CallKind", "Network"]

#: longest ``call_sync`` waits (virtual seconds) when no deadline binds
CALL_TIMEOUT_S = 3600.0

MESSAGES = Instrument("counter", "net.messages")
BYTES = Instrument("counter", "net.bytes")
DROPPED = Instrument("counter", "net.dropped")
EXPIRED = Instrument("counter", "net.expired")
family(MESSAGES, BYTES, DROPPED, EXPIRED)
#: calls refused on arrival because their deadline passed in flight
DEADLINE_EXPIRED = Instrument("counter", "admission.deadline_expired", "site")


@dataclass(frozen=True, slots=True)
class CallKind:
    """A request/reply protocol.  Calls carry ``request_id`` and
    ``deadline``; a reply, its call's ``request_id`` and ``data``, costs
    ``reply_bytes + payload_size(data)``.  ``site`` labels refusals."""

    call: str
    reply: str
    reply_bytes: int
    site: str


class Network:
    """A set of stations wired through one simulator.

    ``default_latency_s`` models propagation delay between any pair;
    per-pair overrides are available through :meth:`set_latency` for
    experiments with heterogeneous paths.

    Failure injection: :meth:`set_down` crashes/revives a station
    (messages to or from a down station are silently lost — the sender
    cannot know), and :meth:`set_drop_rate` loses a seeded-random
    fraction of messages, modelling the lossy 1999 Internet the paper's
    mechanisms must survive.
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency_s: float = 0.05,
        *,
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        check_non_negative(default_latency_s, "default_latency_s")
        check_probability(drop_rate, "drop_rate")
        self.sim = sim
        self.default_latency_s = default_latency_s
        self._stations: dict[str, Station] = {}
        self._latency: dict[tuple[str, str], float] = {}
        self._down: set[str] = set()
        self._partition: dict[str, int] | None = None
        self.drop_rate = drop_rate
        self._seed = seed
        self.total_bytes = 0
        self.total_messages = 0
        self.messages_dropped = 0
        self.messages_expired = 0

    @cached_property
    def _drop_rng(self) -> Any:
        """Built on the first draw: a lossless network loads no numpy."""
        return make_rng(self._seed, "network-drops")

    # -- membership ----------------------------------------------------------
    def add(self, station: Station) -> Station:
        """Register a station (names must be unique) and attach it."""
        if station.name in self._stations:
            raise ValueError(f"duplicate station name {station.name!r}")
        self._stations[station.name] = station
        station.network = self
        return station

    def station(self, name: str) -> Station:
        """Look up a station by name; raises LookupError if unknown."""
        try:
            return self._stations[name]
        except KeyError:
            raise LookupError(f"unknown station {name!r}") from None

    def stations(self) -> list[Station]:
        """All registered stations, in registration order."""
        return list(self._stations.values())

    def names(self) -> list[str]:
        """Station names in registration order."""
        return list(self._stations)

    def __len__(self) -> int:
        return len(self._stations)

    def __contains__(self, name: str) -> bool:
        return name in self._stations

    # -- latency topology ---------------------------------------------------
    def set_latency(self, a: str, b: str, latency_s: float) -> None:
        """Override propagation latency for the (a, b) pair, both ways."""
        check_non_negative(latency_s, "latency_s")
        self._latency[(a, b)] = latency_s
        self._latency[(b, a)] = latency_s

    def latency(self, a: str, b: str) -> float:
        """Propagation latency between two stations."""
        return self._latency.get((a, b), self.default_latency_s)

    # -- failure injection ---------------------------------------------------
    def set_down(self, name: str, down: bool = True) -> None:
        """Crash (or revive) a station.

        While down, everything it would send or receive is lost; a
        revived station resumes with whatever state it had (the paper's
        workstations keep their disk across reboots).
        """
        self.station(name)  # raise early on unknown
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    def is_down(self, name: str) -> bool:
        """True while a station is crashed (see :meth:`set_down`)."""
        return name in self._down

    def set_drop_rate(self, drop_rate: float) -> None:
        """Lose this fraction of messages (seeded, deterministic)."""
        check_probability(drop_rate, "drop_rate")
        self.drop_rate = drop_rate

    def set_partition(self, groups: Sequence[Iterable[str]] | None) -> None:
        """Split the network: traffic between groups is lost.

        ``groups`` is a sequence of station-name collections; stations
        in different groups cannot exchange messages while the partition
        stands.  Stations named in no group form one implicit residual
        group (still connected to each other).  Pass ``None`` to heal.
        """
        if groups is None:
            self._partition = None
            return
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                self.station(name)  # raise early on unknown
                if name in mapping:
                    raise ValueError(
                        f"station {name!r} appears in more than one group"
                    )
                mapping[name] = index
        self._partition = mapping

    def is_partitioned(self, a: str, b: str) -> bool:
        """True while a partition separates stations ``a`` and ``b``."""
        if self._partition is None:
            return False
        return self._partition.get(a, -1) != self._partition.get(b, -1)

    def _should_drop(self, src: str, dst: str) -> bool:
        if src in self._down or dst in self._down:
            return True
        if self._partition is not None and self.is_partitioned(src, dst):
            return True
        if self.drop_rate and self._drop_rng.random() < self.drop_rate:
            return True
        return False

    # -- verbs -------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 0,
    ) -> Message:
        """Queue a transfer; the destination handler runs at arrival time.

        Returns the message (stamped with the send time) immediately;
        completion is observable through handlers or by running the
        simulator and checking link horizons.
        """
        stations = self._stations
        sender = stations.get(src)
        receiver = stations.get(dst)
        if sender is None or receiver is None:
            self.station(src)  # raises for whichever is unknown,
            self.station(dst)  # the source first
        if src == dst:
            raise ValueError(f"station {src!r} cannot send to itself")
        if not size_bytes >= 0:
            check_non_negative(size_bytes, "size_bytes")
        sim = self.sim
        now = sim.now
        # The ambient caller deadline rides every message sent from
        # inside a deadline scope; background traffic (replication
        # streams, broadcasts) carries none and is never expired.
        message = Message(
            src, dst, kind, payload, size_bytes, next_msg_id(), now,
            current_deadline(),
        )
        sender.messages_sent += 1
        self.total_messages += 1
        if OBS.enabled:
            MESSAGES[()].inc()
        # Failure injection is consulted only while some is configured;
        # with none, _should_drop would say no without drawing from the
        # drop RNG, so skipping it leaves the seeded sequence as it was.
        if (
            self._down or self._partition is not None or self.drop_rate
        ) and self._should_drop(src, dst):
            # The bytes never make it; a down/ lossy path costs the
            # sender nothing observable (fire-and-forget datagrams).
            self.messages_dropped += 1
            if OBS.enabled:
                DROPPED[()].inc()
            return message
        arrival = schedule_transfer(
            now,
            size_bytes,
            sender.link,
            receiver.link,
            self.latency(src, dst) if self._latency
            else self.default_latency_s,
        ).arrival
        self.total_bytes += size_bytes
        if OBS.enabled:
            BYTES[()].inc(size_bytes)
        # A station may crash while the message is in flight; check
        # again at delivery time.
        sim.schedule_at(arrival, self._deliver, receiver, message)
        return message

    def _deliver(self, receiver: Station, message: Message) -> None:
        if self._down and receiver.name in self._down:
            self.messages_dropped += 1
            if OBS.enabled:
                DROPPED[()].inc()
            return
        if message.deadline is not None and self.sim.now >= message.deadline:
            # Expired in flight: delivering would start work nobody is
            # waiting for.  The receiver-side refusal still exists for
            # messages that expire *after* delivery begins.
            self.messages_expired += 1
            if OBS.enabled:
                EXPIRED[()].inc()
            return
        receiver.deliver(message)

    def bcast(
        self,
        src: str,
        dsts: Sequence[str] | Iterable[str],
        kind: str,
        payload: Any = None,
        size_bytes: int = 0,
    ) -> list[Message]:
        """Flat broadcast: sequential unicasts out of the root's uplink.

        This is the baseline the paper's m-ary tree beats — every copy
        serializes through the single source link.
        """
        return [
            self.send(src, dst, kind, payload, size_bytes)
            for dst in dsts
            if dst != src
        ]

    # -- request/reply -------------------------------------------------------
    def serve(
        self, station_name: str, kind: CallKind,
        answer: Callable[[Any], Any], refuse: Callable[[Any], Any],
    ) -> None:
        """Reply to each ``kind`` call reaching ``station_name`` with
        ``answer(call)`` — or with ``refuse(call)``, before any work, when
        its deadline passed in flight.  Serving again replaces the
        handler: a restarted server takes over its old station.  The
        handler replies through its station and keeps no reference to
        the network, which holds the station."""
        sim = self.sim

        def on_call(at: Station, message: Message) -> None:
            call = message.payload
            try:
                expired = call.deadline is not None and sim.now >= call.deadline
            except TypeError:  # not a time: ``answer`` refuses it
                expired = False
            if expired:
                if OBS.enabled:
                    DEADLINE_EXPIRED[kind.site].inc()
                reply = refuse(call)
            else:
                reply = answer(call)
            at.send(message.src, kind.reply, reply,
                    kind.reply_bytes + payload_size(reply.data))

        station = self.station(station_name)
        station.off(kind.call)
        station.on(kind.call, on_call)

    def pending(self, station_name: str, kind: CallKind) -> dict[int, Any]:
        """``request_id -> on_reply`` of the ``kind`` calls awaited at
        ``station_name``: one table for all its callers, made (with the
        route their replies take) on first use."""
        station = self.station(station_name)
        pending = station.state.get(kind.reply)
        if pending is None:
            pending = station.state[kind.reply] = {}

            def route(_station: Station, message: Message) -> None:
                on_reply = pending.pop(message.payload.request_id, None)
                if on_reply is not None:  # else: a call given up on
                    on_reply(message.payload)

            station.on(kind.reply, route)
        return pending

    def call(
        self, src: str, dst: str, kind: CallKind, call: Any, size_bytes: int,
        on_reply: Callable[[Any], None] | None = None,
    ) -> None:
        """Send ``call``; ``on_reply`` gets its reply on arrival (without
        one the call is fire-and-forget and the reply is dropped)."""
        pending = self.pending(src, kind)
        if on_reply is not None:
            pending[call.request_id] = on_reply
        self.send(src, dst, kind.call, call, size_bytes)

    def call_sync(
        self, src: str, dst: str, kind: CallKind, call: Any, size_bytes: int,
        what: str,
    ) -> Any:
        """Send ``call`` and step the simulator until its reply lands.

        Gives up at ``call.deadline`` (:class:`DeadlineExceededError`) or
        after :data:`CALL_TIMEOUT_S` (:class:`TimeoutError`; ``what``
        names the call) and forgets the call: a late reply is dropped.
        """
        box: list[Any] = []
        self.call(src, dst, kind, call, size_bytes, box.append)
        sim, deadline = self.sim, call.deadline
        give_up_at = sim.now + CALL_TIMEOUT_S
        if deadline is not None and deadline < give_up_at:
            give_up_at = deadline
        while not box and sim.now < give_up_at:
            if not sim.step():
                break
        if box:
            return box[0]
        self.pending(src, kind).pop(call.request_id, None)
        if deadline is not None and sim.now >= deadline:
            raise DeadlineExceededError(
                f"deadline passed awaiting {what!r} from {dst!r}"
            )
        raise TimeoutError(f"no reply to {what!r} from {dst!r}")

    def call_deadline(self, deadline_s: float | None = None) -> float | None:
        """A call's deadline: the ambient one, or ``deadline_s`` from now
        when sooner — the minimum rule nested deadline scopes follow."""
        deadline = current_deadline()
        if deadline_s is None:
            return deadline
        if deadline_s != deadline_s:
            raise ValueError("deadline_s is NaN: a deadline must be a time")
        own = self.sim.now + deadline_s
        return own if deadline is None or own < deadline else deadline

    # -- introspection -----------------------------------------------------
    def quiesce(self) -> float:
        """Run the simulator dry; returns the final virtual time."""
        self.sim.run()
        return self.sim.now

    def stats(self) -> dict[str, Any]:
        """Aggregate traffic counters and the current virtual time."""
        return {
            "stations": len(self._stations),
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "dropped": self.messages_dropped,
            "expired": self.messages_expired,
            "time": self.sim.now,
            "events": self.sim.events_processed,
        }
