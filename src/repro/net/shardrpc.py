"""Coordinator ↔ shard RPC over the simulated network.

A thin, generic method-call protocol: the coordinator-side
:class:`ShardClient` proxies a whitelisted set of
:class:`~repro.sharding.participant.ShardParticipant` methods; the
shard-side :class:`ShardServer` dispatches each call to its local
participant and replies with the return value.  Payloads travel as
live Python objects (the simulator's links pass references, charging
only modeled bytes), so WHERE expressions and plan objects cross the
wire unchanged.

Failure semantics mirror :mod:`repro.replication.chaos`: an
application error (constraint violation, 2PC refusal) is shipped back
and re-raised at the caller, while a
:class:`~repro.fault.crashsim.SimulatedCrashError` inside a handler
propagates out of the simulator drain — the shard process died
mid-call, the caller never gets an ack, and recovery tooling takes
over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.admission import (
    CircuitBreaker,
    DeadlineExceededError,
    current_deadline,
)
from repro.net.messages import payload_size
from repro.net.station import Station
from repro.net.transport import Network
from repro.obs.instrument import OBS

__all__ = ["ShardServer", "ShardClient", "SHARD_CALL", "SHARD_REPLY"]

SHARD_CALL = "shard.call"
SHARD_REPLY = "shard.reply"
_BASE_BYTES = 96

_call_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class ShardCall:
    """One proxied method invocation."""

    call_id: int
    method: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: absolute deadline (simulated seconds); the server refuses to
    #: start work for a call whose deadline already passed
    deadline: float | None = None


@dataclass(frozen=True, slots=True)
class ShardReply:
    call_id: int
    ok: bool
    value: Any = None
    error: Exception | None = None


class ShardServer:
    """Hosts one shard participant behind a network station."""

    def __init__(
        self, network: Network, station_name: str, participant: Any
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.participant = participant
        self.calls_served = 0
        station = network.station(station_name)
        # A restarted shard re-registers on its old station.
        station.off(SHARD_CALL)
        station.on(SHARD_CALL, self._on_call)

    def _on_call(self, _station: Station, message: Any) -> None:
        call: ShardCall = message.payload
        now = self.network.sim.now
        if call.deadline is not None and now >= call.deadline:
            # The caller's deadline passed in flight: refuse before any
            # work — executing would burn shard capacity nobody awaits.
            if OBS.enabled and OBS.registry is not None:
                OBS.registry.counter(
                    "admission.deadline_expired", site="shardrpc-server"
                ).inc()
            reply = ShardReply(
                call.call_id, False,
                error=DeadlineExceededError(
                    f"deadline {call.deadline:.6f} passed before "
                    f"{call.method!r} started at {self.station_name!r}"
                ),
            )
            self.network.send(
                self.station_name, message.src, SHARD_REPLY, reply,
                _BASE_BYTES,
            )
            return
        self.calls_served += 1
        try:
            value = getattr(self.participant, call.method)(
                *call.args, **call.kwargs
            )
            reply = ShardReply(call.call_id, True, value)
        except Exception as exc:
            # Deferred to dodge the fault->distribution import cycle.
            from repro.fault.crashsim import SimulatedCrashError

            if isinstance(exc, SimulatedCrashError):
                # The shard process died mid-call: no reply leaves.
                raise
            reply = ShardReply(call.call_id, False, error=exc)
        self.network.send(
            self.station_name, message.src, SHARD_REPLY, reply,
            _BASE_BYTES + payload_size(reply.value),
        )


class ShardClient:
    """Coordinator-side proxy for one remote shard.

    Quacks like a :class:`~repro.sharding.participant.ShardParticipant`
    for every whitelisted method, so :class:`~repro.sharding
    .coordinator.TwoPhaseCoordinator` and the query tier work
    identically in-process and over the wire.
    """

    #: participant methods the proxy exposes
    METHODS = frozenset({
        "execute", "prepare", "commit", "abort",
        "select", "count", "get", "exists", "aggregate", "join",
        "explain_plan", "status", "last_lsn",
    })

    #: fallback per-call wait when no caller deadline is in scope
    DEFAULT_TIMEOUT_S = 3600.0

    def __init__(
        self,
        network: Network,
        station_name: str,
        server_station: str,
        *,
        shard_id: int | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.network = network
        self.station_name = station_name
        self.server_station = server_station
        self.shard_id = shard_id
        #: Per-endpoint circuit breaker: timeouts count as failures, so
        #: a dead shard fails calls fast instead of absorbing full
        #: waits.  Pass an explicitly-tuned breaker to share one across
        #: clients of the same endpoint.
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            f"shard:{server_station}"
        )
        station = network.station(station_name)
        if not station.handles(SHARD_REPLY):
            station.on(SHARD_REPLY, self._on_reply)

    @staticmethod
    def _on_reply(station: Station, message: Any) -> None:
        reply: ShardReply = message.payload
        boxes = station.state.setdefault("shard_rpc_pending", {})
        box = boxes.pop(reply.call_id, None)
        if box is not None:
            box.append(reply)

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        now = self.network.sim.now
        caller_deadline = current_deadline()
        if caller_deadline is not None and now >= caller_deadline:
            raise DeadlineExceededError(
                f"deadline passed before sending {method!r} to "
                f"{self.server_station!r}"
            )
        self.breaker.check(now)
        call = ShardCall(
            next(_call_ids), method, args, dict(kwargs),
            deadline=caller_deadline,
        )
        station = self.network.station(self.station_name)
        box: list[ShardReply] = []
        pending = station.state.setdefault("shard_rpc_pending", {})
        pending[call.call_id] = box
        self.network.send(
            self.station_name, self.server_station, SHARD_CALL, call,
            _BASE_BYTES + payload_size(call.args) + payload_size(call.kwargs),
        )
        wait_until = now + self.DEFAULT_TIMEOUT_S
        if caller_deadline is not None:
            wait_until = min(wait_until, caller_deadline)
        while not box and self.network.sim.now < wait_until:
            if not self.network.sim.step():
                break
        if not box:
            # Nobody waits on this call any more; a late reply finds no
            # entry and is dropped by ``_on_reply``.
            pending.pop(call.call_id, None)
            self.breaker.record_failure(self.network.sim.now)
            if (
                caller_deadline is not None
                and self.network.sim.now >= caller_deadline
            ):
                raise DeadlineExceededError(
                    f"deadline passed awaiting {method!r} from shard "
                    f"station {self.server_station!r}"
                )
            raise TimeoutError(
                f"no reply to {method!r} from shard station "
                f"{self.server_station!r}"
            )
        # Any reply — success or shipped-back application error — means
        # the endpoint is alive; only silence counts against it.
        self.breaker.record_success(self.network.sim.now)
        reply = box[0]
        if not reply.ok:
            assert reply.error is not None
            raise reply.error
        return reply.value

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name in self.METHODS:
            return partial(self._call, name)
        raise AttributeError(name)
