"""WAL-shipping replication: read replicas and the follower state machine.

The class administrator's framed journal (:mod:`repro.rdb.wal` v2:
monotonic LSNs, CRC, checkpoint watermarks) is streamed over
:mod:`repro.net` to follower class administrators, turning the single
middle tier into a replicated one:

* :class:`~repro.replication.shipper.WalShipper` — primary side.
  Serves snapshot downloads and streams journal frames to subscribed
  followers, resuming each follower exactly above its applied LSN and
  tracking replica lag;
* :class:`~repro.replication.recoverer.Recoverer` — follower side.  A
  staged state machine (download snapshot → replay journal to the
  watermark → tail live frames → caught up) that persists every shipped
  frame to its *own* journal before applying it, so a follower crash
  recovers through the same committed-prefix machinery as the primary;
* :mod:`~repro.replication.chaos` — the follower scenario of the
  :mod:`repro.fault.crashsim` kit: kill a follower at arbitrary byte
  offsets during snapshot download or frame replay and prove it
  recovers to a consistent prefix and resumes.

Read routing lives one layer up, in
:class:`repro.tiers.replicaset.ReplicaSet`, which sends library search
and catalog reads to caught-up replicas while writes stay on the
primary.

Naming note — two kinds of "replication" coexist in this repo, one
per layer:

* **this package** replicates a *relational database* by WAL shipping.
  A class administrator's read replicas subscribe to it directly;
  :mod:`repro.distribution.syncdb` wires the same stream down the
  member tree — every station follows its tree parent and relays from
  its own follower journal — for E11's fleet-wide copies of the
  document-layer metadata, and fails the tree's root over
  (:meth:`~repro.distribution.syncdb.MetadataReplicator.promote`:
  highest applied LSN wins, a new fenced WAL epoch, the tree
  re-derived; E18's failover is the tree at m = N-1, a star);
* :mod:`repro.storage.holdings` replicates *course-document
  BLOBs* onto stations (the paper's instance/reference forms and
  buffer-space migration).

See DESIGN.md §11 for the architecture and the failover protocol.
"""

from repro.replication.shipper import FollowerProgress, WalShipper
from repro.replication.recoverer import Recoverer, RecoveryStage
from repro.replication.chaos import run_follower_crash_matrix

__all__ = [
    "WalShipper",
    "FollowerProgress",
    "Recoverer",
    "RecoveryStage",
    "run_follower_crash_matrix",
]
