"""Failover promotion: elect a follower, fence the old epoch, rejoin.

When the primary class administrator crashes, the coordinator promotes
the *live follower with the highest applied LSN* — with ack-driven
shipping that follower holds the longest durable prefix of the lost
journal, so every commit the primary managed to replicate survives.
Promotion opens a **new WAL epoch**:

1. the winner detaches from the stream and attaches its journal to its
   database (new commits journal locally from here on);
2. it snapshots, which checkpoints its journal at the promotion LSN —
   the snapshot any later subscriber resyncs from;
3. a fresh :class:`~repro.replication.shipper.WalShipper` starts with
   ``epoch + 1``; surviving followers retarget to it.

The epoch number fences split-brain: shippers ignore subscriptions
from higher epochs (a deposed primary must not serve stale history)
and recoverers ignore frame batches from lower epochs (a deposed
primary must not overwrite promoted history).

The deposed primary rejoins as a follower through
:meth:`rejoin_old_primary` — revived via the
:class:`repro.fault.recovery.RecoveryManager` rejoin path when the
deployment has one (restoring broadcast-vector membership too), else
by flipping the station back up.  If it journaled commits past the
promotion LSN that never reached a follower, it subscribes *diverged*
and the new primary resyncs it with a full snapshot; those unacked
commits are discarded, which is exactly the async-replication
contract: only acked-and-replicated commits are promised to survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.net.transport import Network
from repro.obs.instrument import OBS, Instrument
from repro.replication.recoverer import Recoverer, RecoveryStage
from repro.replication.shipper import WalShipper

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.recovery import RecoveryManager

__all__ = ["FailoverCoordinator", "FailoverReport"]

PROMOTIONS = Instrument("counter", "replication.promotions")


@dataclass
class FailoverReport:
    """What one promotion did."""

    old_primary: str
    new_primary: str
    #: LSN the winner had durably applied at election time
    promoted_lsn: int
    #: the fenced epoch the new primary ships under
    epoch: int
    #: followers retargeted to the new primary
    retargeted: list[str] = field(default_factory=list)
    #: applied LSN of every candidate considered, for the record
    candidate_lsns: dict[str, int] = field(default_factory=dict)


class FailoverCoordinator:
    """Tracks one replication group and performs promotions.

    Register the primary's shipper and every follower's recoverer;
    after a primary crash call :meth:`promote`.  The coordinator is
    deliberately an *external* agent (the experiment driver, or an
    operator): the paper's two-tier design has no consensus layer, so
    election is observed state — highest applied LSN among live
    followers — not a quorum protocol.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.shipper: WalShipper | None = None
        self.recoverers: dict[str, Recoverer] = {}
        self.reports: list[FailoverReport] = []

    def set_primary(self, shipper: WalShipper) -> None:
        self.shipper = shipper

    def add_follower(self, recoverer: Recoverer) -> None:
        self.recoverers[recoverer.station_name] = recoverer

    # ------------------------------------------------------------------
    def elect(self) -> Recoverer:
        """The live follower with the highest applied LSN."""
        candidates = [
            r for r in self.recoverers.values()
            if not self.network.is_down(r.station_name)
        ]
        if not candidates:
            raise RuntimeError("no live follower to promote")
        return max(candidates, key=lambda r: r.applied_lsn)

    def promote(
        self,
        *,
        snapshot_fn: Callable[[], None] | None = None,
        batch_frames: int | None = None,
    ) -> FailoverReport:
        """Promote the best follower and retarget the survivors.

        Returns the new-primary report; ``self.shipper`` is replaced by
        the promoted shipper.  The old primary is *not* revived here —
        see :meth:`rejoin_old_primary`.
        """
        assert self.shipper is not None, "no primary registered"
        old = self.shipper
        winner = self.elect()
        candidate_lsns = {
            name: r.applied_lsn for name, r in self.recoverers.items()
        }
        old.close()
        new_epoch = max(old.epoch, winner.epoch) + 1
        db, journal = winner.promote()
        # Snapshot to open the new epoch: checkpoints the journal at the
        # promotion LSN, giving later subscribers a resync anchor.
        db.snapshot(str(winner.snapshot_path))
        promoted_lsn = journal.last_lsn
        del self.recoverers[winner.station_name]
        shipper = WalShipper(
            self.network, winner.station_name, journal,
            snapshot_path=winner.snapshot_path,
            snapshot_fn=snapshot_fn
            or (lambda: db.snapshot(str(winner.snapshot_path))),
            epoch=new_epoch,
            **({"batch_frames": batch_frames} if batch_frames else {}),
        )
        self.shipper = shipper
        report = FailoverReport(
            old_primary=old.station_name,
            new_primary=winner.station_name,
            promoted_lsn=promoted_lsn,
            epoch=new_epoch,
            candidate_lsns=candidate_lsns,
        )
        for survivor in list(self.recoverers.values()):
            if self.network.is_down(survivor.station_name):
                continue
            survivor.retarget(winner.station_name, epoch=new_epoch)
            report.retargeted.append(survivor.station_name)
        self.reports.append(report)
        if OBS.enabled:
            PROMOTIONS[()].inc()
        return report

    # ------------------------------------------------------------------
    def rejoin_old_primary(
        self,
        report: FailoverReport,
        recoverer_factory: Callable[[], Recoverer],
        *,
        recovery_manager: "RecoveryManager | None" = None,
    ) -> Recoverer:
        """Bring the deposed primary back as a follower of the winner.

        ``recoverer_factory`` builds the Recoverer over the old
        primary's data directory (station and target epoch come from
        ``report``).  With a :class:`~repro.fault.recovery
        .RecoveryManager` the station is revived through the standard
        rejoin path (membership and all); otherwise it is simply
        flipped back up.
        """
        old = report.old_primary
        if recovery_manager is not None:
            recovery_manager.rejoin(old)
        elif self.network.is_down(old):
            self.network.set_down(old, False)
        recoverer = recoverer_factory()
        recoverer.primary_name = report.new_primary
        recoverer.epoch = max(recoverer.epoch, report.epoch)
        recoverer.start()
        self.add_follower(recoverer)
        return recoverer

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Election state plus promotion history."""
        return {
            "primary": (
                self.shipper.station_name if self.shipper else None
            ),
            "followers": {
                name: {
                    "applied_lsn": r.applied_lsn,
                    "stage": r.stage.value,
                    "caught_up": r.stage is RecoveryStage.CAUGHT_UP,
                }
                for name, r in self.recoverers.items()
            },
            "promotions": len(self.reports),
        }
