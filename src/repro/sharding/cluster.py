"""Assembly glue: N shard participants + a 2PC coordinator.

:class:`ShardCluster` owns the node lifecycle the tests and benchmarks
need — build from a work directory, crash-restart single nodes from
their on-disk state, resolve in-doubt transactions, and strict-read
every journal at teardown.  Nodes talk either **in-process** (handles
are the participants themselves) or **over the simulated network**
(one station per shard plus a coordinator station, a
:class:`ShardClient` proxying each :class:`ShardServer` on the
network's one call path), selected by ``use_net``.  Arguments and
results cross as live objects, charged only modeled bytes.  An
application error is shipped back and re-raised at the caller; a
:class:`~repro.fault.crashsim.SimulatedCrashError` escapes the
simulator drain — the shard died mid-call and no reply leaves.
"""

from __future__ import annotations

import itertools
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro.admission import CircuitBreaker, DeadlineExceededError
from repro.fault.crashsim import SimulatedCrashError
from repro.net.messages import payload_size
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import CallKind, Network
from repro.rdb import Database, Schema
from repro.rdb.wal import read_frames
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.sharding.participant import (
    ShardParticipant,
    recover_participant,
)

__all__ = ["ShardCluster", "ShardClient", "ShardServer"]

#: failpoint-wrapper key for the coordinator's journal
COORD = "coord"

SHARD_CALL = "shard.call"
SHARD_REPLY = "shard.reply"
_BASE_BYTES = 96
#: the shard protocol: a call or reply costs 96 bytes plus its data
SHARD = CallKind(SHARD_CALL, SHARD_REPLY, _BASE_BYTES, site="shardrpc-server")

_call_ids = itertools.count(1)


class _ShardCallFields(NamedTuple):
    request_id: int
    method: str
    args: tuple[Any, ...]
    kwargs: dict[str, Any]
    #: absolute deadline (simulated seconds); the server refuses to
    #: start work for a call whose deadline already passed
    deadline: float | None = None


_new_call = _ShardCallFields.__new__


class ShardCall(_ShardCallFields):
    """One proxied method invocation: an immutable tuple-backed record
    (omitted ``kwargs`` is a fresh empty dict)."""

    __slots__ = ()

    def __new__(
        cls,
        request_id: int,
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        deadline: float | None = None,
    ) -> "ShardCall":
        return _new_call(
            cls, request_id, method, args,
            {} if kwargs is None else kwargs, deadline,
        )


class ShardReply(NamedTuple):
    request_id: int
    ok: bool
    data: Any = None
    error: Exception | None = None


class ShardServer:
    """Hosts one shard participant behind a network station."""

    def __init__(
        self, network: Network, station_name: str, participant: Any
    ) -> None:
        self.station_name = station_name
        self.participant = participant
        self.calls_served = 0
        network.serve(station_name, SHARD, self._answer, self._refuse)

    def _refuse(self, call: ShardCall) -> ShardReply:
        return ShardReply(call.request_id, False, error=DeadlineExceededError(
            f"deadline {call.deadline:.6f} passed before {call.method!r} "
            f"started at {self.station_name!r}"
        ))

    def _answer(self, call: ShardCall) -> ShardReply:
        self.calls_served += 1
        try:
            value = getattr(self.participant, call.method)(
                *call.args, **call.kwargs
            )
        except SimulatedCrashError:
            raise  # the shard process died mid-call: no reply leaves
        except Exception as exc:
            return ShardReply(call.request_id, False, error=exc)
        return ShardReply(call.request_id, True, value)


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
        "select", "count", "get", "aggregate", "join",
        "explain_plan", "status", "last_lsn",
    })

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
        network.pending(station_name, SHARD)  # the station's reply route

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        network = self.network
        now = network.sim.now
        deadline = network.call_deadline()
        if deadline is not None and now >= deadline:
            raise DeadlineExceededError(
                f"deadline passed before sending {method!r} to "
                f"{self.server_station!r}"
            )
        self.breaker.check(now)
        call = ShardCall(next(_call_ids), method, args, kwargs, deadline)
        try:
            reply = network.call_sync(
                self.station_name, self.server_station, SHARD, call,
                _BASE_BYTES + payload_size(args) + payload_size(kwargs),
                method,
            )
        except (TimeoutError, DeadlineExceededError):
            self.breaker.record_failure(network.sim.now)
            raise
        # Any reply — success or shipped-back application error — means
        # the endpoint is alive; only silence counts against it.
        self.breaker.record_success(network.sim.now)
        if not reply.ok:
            assert reply.error is not None
            raise reply.error
        return reply.data

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name in self.METHODS:
            return partial(self._call, name)
        raise AttributeError(name)


class ShardCluster:
    """N shards + coordinator with restartable, journal-backed nodes.

    ``file_wrappers`` maps a node key — a shard id, or
    :data:`COORD` — to a journal ``file_wrapper`` (e.g. a
    :class:`~repro.fault.crashsim.FailpointFile` factory), which is how
    the crash matrix arms a kill point on exactly one node.
    """

    def __init__(
        self,
        workdir: str | Path,
        schemas: Sequence[Schema],
        num_shards: int,
        *,
        ddl_fn: Callable[[Database], None] | None = None,
        sync: str = "commit",
        use_net: bool = False,
        network: Network | None = None,
        file_wrappers: dict[Any, Callable[[Any], Any]] | None = None,
    ) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.schemas = tuple(schemas)
        self.num_shards = num_shards
        self.ddl_fn = ddl_fn
        self.sync = sync
        self.use_net = use_net
        self.file_wrappers = dict(file_wrappers or {})
        self.participants: dict[int, ShardParticipant] = {}
        self.servers: dict[int, ShardServer] = {}
        self.handles: dict[int, Any] = {}

        if use_net:
            self.network = network if network is not None else Network(
                Simulator(), default_latency_s=0.002
            )
            self.network.add(Station(self.coord_station()))
        else:
            self.network = network

        for shard_id in range(num_shards):
            self._start_shard(shard_id)
        self.coordinator = TwoPhaseCoordinator.recover(
            self.coord_journal_path(), self.handles, sync=sync,
            file_wrapper=self.file_wrappers.get(COORD),
        )

    # ------------------------------------------------------------------
    # Paths / stations
    # ------------------------------------------------------------------
    def shard_journal_path(self, shard_id: int) -> Path:
        return self.workdir / f"shard-{shard_id}.wal"

    def shard_snapshot_path(self, shard_id: int) -> Path:
        return self.workdir / f"shard-{shard_id}.snapshot"

    def coord_journal_path(self) -> Path:
        return self.workdir / "coord.wal"

    def shard_station(self, shard_id: int) -> str:
        return f"shard-{shard_id}"

    def coord_station(self) -> str:
        return "coord"

    def journal_paths(self) -> list[Path]:
        return [self.coord_journal_path()] + [
            self.shard_journal_path(i) for i in range(self.num_shards)
        ]

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _start_shard(self, shard_id: int) -> ShardParticipant:
        participant = recover_participant(
            shard_id, self.schemas, self.shard_journal_path(shard_id),
            snapshot_path=self.shard_snapshot_path(shard_id),
            ddl_fn=self.ddl_fn, sync=self.sync,
            file_wrapper=self.file_wrappers.get(shard_id),
        )
        self.participants[shard_id] = participant
        if self.use_net:
            assert self.network is not None
            station = self.shard_station(shard_id)
            if station not in [s.name for s in self.network.stations()]:
                self.network.add(Station(station))
            self.servers[shard_id] = ShardServer(
                self.network, station, participant
            )
            self.handles[shard_id] = ShardClient(
                self.network, self.coord_station(), station,
                shard_id=shard_id,
            )
        else:
            self.handles[shard_id] = participant
        return participant

    def restart_shard(
        self, shard_id: int,
        file_wrapper: Callable[[Any], Any] | None = None,
    ) -> ShardParticipant:
        """Crash-restart one shard from its on-disk journal (the old
        failpoint, if any, is dropped unless a new one is given)."""
        old = self.participants.get(shard_id)
        if old is not None:
            try:
                old.close()
            except Exception:
                pass  # a crashed journal may refuse its final sync
        if file_wrapper is None:
            self.file_wrappers.pop(shard_id, None)
        else:
            self.file_wrappers[shard_id] = file_wrapper
        participant = self._start_shard(shard_id)
        self.coordinator.participants[shard_id] = self.handles[shard_id]
        return participant

    def restart_coordinator(
        self, file_wrapper: Callable[[Any], Any] | None = None,
    ) -> TwoPhaseCoordinator:
        """Crash-restart the coordinator from its journal; outstanding
        decisions come back ready for :meth:`TwoPhaseCoordinator
        .redeliver`."""
        try:
            self.coordinator.close()
        except Exception:
            pass
        if file_wrapper is None:
            self.file_wrappers.pop(COORD, None)
        else:
            self.file_wrappers[COORD] = file_wrapper
        self.coordinator = TwoPhaseCoordinator.recover(
            self.coord_journal_path(), self.handles, sync=self.sync,
            file_wrapper=self.file_wrappers.get(COORD),
        )
        return self.coordinator

    def recover_all(self) -> dict[str, Any]:
        """Full-cluster crash recovery: restart every node, redeliver
        outstanding commits, resolve every in-doubt transaction.
        Returns ``{"redelivered": [...], "resolved": {gtxn: outcome}}``.
        """
        for shard_id in range(self.num_shards):
            self.restart_shard(shard_id)
        self.restart_coordinator()
        redelivered = self.coordinator.redeliver()
        resolved: dict[str, str] = {}
        for participant in self.participants.values():
            resolved.update(
                participant.resolve_in_doubt(self.coordinator.resolve)
            )
        return {"redelivered": redelivered, "resolved": resolved}

    # ------------------------------------------------------------------
    def verify_journals(self) -> None:
        """Strict-read every journal end to end (teardown integrity
        check: no mid-file corruption anywhere)."""
        for path in self.journal_paths():
            for _frame in read_frames(path):
                pass

    def close(self) -> None:
        for participant in self.participants.values():
            try:
                participant.close()
            except Exception:
                pass
        try:
            self.coordinator.close()
        except Exception:
            pass
