"""Assembly glue: N shard participants + a 2PC coordinator.

:class:`ShardCluster` owns the node lifecycle the tests and benchmarks
need — build from a work directory, crash-restart single nodes from
their on-disk state, resolve in-doubt transactions, and strict-read
every journal at teardown.  Nodes talk either **in-process** (handles
are the participants themselves) or **over the simulated network**
(one station per shard plus a coordinator station, proxied through
:mod:`repro.net.shardrpc`), selected by ``use_net``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

from repro.net.shardrpc import ShardClient, ShardServer
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.rdb import Database, Schema
from repro.rdb.wal import read_frames
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.sharding.participant import (
    ShardParticipant,
    recover_participant,
)

__all__ = ["ShardCluster"]

#: failpoint-wrapper key for the coordinator's journal
COORD = "coord"


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
        if self.use_net:
            self.coordinator.participants[shard_id] = \
                self.handles[shard_id]
        else:
            self.coordinator.participants[shard_id] = participant
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
