"""The follower scenario of the crash-matrix kit (E18).

:mod:`repro.fault.crashsim` proves the committed-prefix guarantee for
a single engine; this scenario proves the *replicated* version.  A
follower killed at an arbitrary byte offset of its write stream — while
replaying shipped frames, or while downloading a snapshot — always

* recovers to a **consistent prefix**: its rebuilt table state equals
  the primary's acked state at the follower's recovered applied LSN,
  with every constraint and secondary index intact, and
* **resumes**: a restarted follower re-subscribes from that LSN and
  catches all the way up to the primary.

The :class:`~repro.fault.crashsim.FailpointFile` is wrapped around the
follower's journal (``file_wrapper``) or its snapshot download
(``snapshot_wrapper``), so it fires inside a live network handler and
the crash propagates out of the simulator drain exactly where a real
process would die.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Any, Iterator

from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    CrashCase,
    CrashReport,
    CrashWorkload,
    CutStream,
    audit,
    crash_ddl,
    database_state,
    frame_boundaries,
    run_crash_workload,
    run_scenario,
)
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.replication.recoverer import Recoverer
from repro.replication.shipper import WalShipper

__all__ = ["run_follower_crash_matrix"]


class _Cluster:
    """A fresh primary that has run the workload, plus a follower seat."""

    def __init__(
        self, workdir: Path, *, txns: int, seed: int,
        checkpoint_after: int | None = None,
    ) -> None:
        self.workdir = workdir
        self.network = Network(Simulator(), default_latency_s=0.002)
        self.network.add(Station("primary"))
        self.network.add(Station("follower"))
        #: acked state per LSN (LSNs are 1..txns, one per transaction)
        self.ledger = CrashWorkload(workdir / "primary.wal", seed=seed,
                                    name="primary")
        self.db, self.journal = self.ledger.db, self.ledger.journal
        self.snapshot_path = workdir / "primary.snapshot"
        if checkpoint_after is not None:
            # Opens a snapshot + truncated journal, so a from-zero
            # subscriber must take the snapshot-download path.
            self.ledger.run(checkpoint_after)
            self.db.snapshot(str(self.snapshot_path))
            txns -= checkpoint_after
        self.ledger.run(txns)
        self.shipper = WalShipper(self.network, "primary", self.db)

    def follower(self, **wrappers: Any) -> Recoverer:
        return Recoverer(
            self.network, "follower", "primary", CRASH_SCHEMAS,
            self.workdir / "follower", sync_policy="commit",
            ddl_fn=crash_ddl, **wrappers,
        )


def _follower_case(
    case: CrashCase, closing: ExitStack, *,
    txns: int, seed: int, checkpoint_after: int,
) -> Iterator[str]:
    """Kill the follower at ``case.offset``, restart it, verify."""
    snapshot = case.stream == "snapshot"
    cluster = _Cluster(
        case.dir, txns=txns, seed=seed,
        checkpoint_after=checkpoint_after if snapshot else None,
    )
    closing.callback(cluster.journal.close)
    doomed = cluster.follower(**{
        "snapshot_wrapper" if snapshot else "file_wrapper": case.failpoint,
    })
    doomed.start()
    closing.callback(doomed.stop)
    case.drive(cluster.network.quiesce)
    # The dead process stops receiving; drain whatever is still in
    # flight (dropped on the floor, as for any down station).
    cluster.network.set_down("follower", True)
    cluster.network.quiesce()

    # Cold restart over the same data directory, failpoint removed.
    survivor = cluster.follower()
    cluster.network.set_down("follower", False)
    survivor.start()
    closing.callback(survivor.stop)

    # Consistent prefix BEFORE any resumed traffic is applied: the
    # recovered LSN must be an acked transaction (or the snapshot
    # watermark) and the table state must match the primary's state at
    # exactly that LSN.
    lsn = case.facts["recovered_lsn"] = survivor.applied_lsn
    assert survivor.db is not None
    expected = cluster.ledger.state_at_lsn(lsn)
    if expected is None:
        yield f"recovered to LSN {lsn}, which the primary never acked"
        return
    problems = audit(survivor.db, expected)
    if problems:
        yield f"at recovered LSN {lsn}: " + "; ".join(problems)
        return

    # Resume: the re-subscription must carry the follower all the way
    # to the primary's horizon.
    cluster.network.quiesce()
    cluster.shipper.pump()
    cluster.network.quiesce()
    if survivor.applied_lsn != cluster.journal.last_lsn:
        yield (f"resumed to LSN {survivor.applied_lsn}, primary is at "
               f"{cluster.journal.last_lsn}")
    elif audit(survivor.db, database_state(cluster.db)):
        yield "caught-up state diverges from the primary"


def run_follower_crash_matrix(
    workdir: str | Path,
    *,
    txns: int = 24,
    stride: int = 96,
    snapshot_stride: int = 1024,
    checkpoint_after: int | None = None,
    seed: int = 0,
) -> CrashReport:
    """Kill-at-point sweep over a live follower's two write streams.

    **Replay** — the follower tails the primary from LSN 0; its journal
    write stream is killed at every frame boundary and every
    ``stride``-th byte (plus the no-crash control at EOF).
    **Snapshot** — the primary is checkpointed after
    ``checkpoint_after`` transactions (defaults to ``txns // 2``) so a
    from-zero subscriber must download a snapshot; the download stream
    is killed at every ``snapshot_stride``-th byte.

    Every point asserts consistent-prefix recovery *and* full resume;
    ``case.facts["recovered_lsn"]`` is the applied LSN the restarted
    follower recovered to before resuming.
    """
    workdir = Path(workdir)
    if checkpoint_after is None:
        checkpoint_after = txns // 2
    # Sizing probes: the follower's journal mirrors the primary's frame
    # bytes, so the golden workload's journal gives the replay stream's
    # frame boundaries; the snapshot is downloaded byte for byte.
    bounds = frame_boundaries(run_crash_workload(
        workdir / "probe", txns=txns, seed=seed
    ).journal_path)
    snap_probe = _Cluster(workdir / "snap-probe", txns=txns, seed=seed,
                          checkpoint_after=checkpoint_after)
    snap_probe.journal.close()
    snapshot_size = snap_probe.snapshot_path.stat().st_size
    return run_scenario(
        workdir, "follower crash matrix",
        [CutStream("replay", bounds[-1], bounds, stride),
         CutStream("snapshot", snapshot_size, [], snapshot_stride)],
        lambda case, closing: _follower_case(
            case, closing, txns=txns, seed=seed,
            checkpoint_after=checkpoint_after,
        ),
    )
