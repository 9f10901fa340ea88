"""Horizontal sharding with WAL-journaled two-phase commit.

The paper's m-ary distribution tree partitions the document database
across stations; this package makes the partitioning real at the
storage layer.  Tables are split across N shards — each a full
:class:`~repro.rdb.engine.Database` with its own framed WAL — by a
:class:`~repro.sharding.shardmap.ShardMap` (hash on the shard key, or
range).  Single-shard statements route directly; cross-shard writes
run through presumed-abort two-phase commit, with PREPARE / COMMIT /
ABORT / DECISION records journaled as first-class WAL v2 record kinds
on both sides, so a crash at *any byte offset* of any journal resolves
in-doubt transactions correctly on restart.

Layers:

* :mod:`~repro.sharding.shardmap` — partitioning and shard pruning;
* :mod:`~repro.sharding.participant` — one shard's 2PC state machine
  and integrated crash recovery;
* :mod:`~repro.sharding.coordinator` — the presumed-abort coordinator;
* :mod:`~repro.sharding.cluster` — assembly glue (N participants +
  coordinator, in-process or over :mod:`repro.net` RPC);
* :mod:`~repro.sharding.crash2pc` — the 2PC scenario of the
  :mod:`repro.fault.crashsim` kit (E20): a failpoint sweep over every
  frame boundary of every node's journal, asserting atomicity at each.

The query side (scatter-gather scans, top-k, aggregates, co-located
joins, EXPLAIN fan-out) lives in :mod:`repro.tiers.shards`, which is
the shard-aware middle-tier coordinator.
"""

from repro.sharding.cluster import ShardCluster
from repro.sharding.coordinator import (
    TwoPhaseCoordinator,
    TwoPhaseAborted,
)
from repro.sharding.crash2pc import run_2pc_crash_matrix
from repro.sharding.participant import (
    ShardParticipant,
    TwoPhaseError,
    recover_participant,
)
from repro.sharding.shardmap import ShardMap, TableSharding

__all__ = [
    "ShardMap",
    "TableSharding",
    "ShardParticipant",
    "TwoPhaseError",
    "recover_participant",
    "TwoPhaseCoordinator",
    "TwoPhaseAborted",
    "ShardCluster",
    "run_2pc_crash_matrix",
]
