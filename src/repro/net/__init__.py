"""Deterministic discrete-event network simulator.

Stand-in for the paper's "networked stations" on the 1999 Internet.  The
distribution experiments (E2, E3, E6) need reproducible timing for bulk
transfers between workstations, so this package models:

* an event loop with a virtual clock (:mod:`repro.net.sim`),
* stations with full-duplex up/down links whose serialization delay
  creates the m-ary-tree trade-off the paper exploits
  (:mod:`repro.net.station`, :mod:`repro.net.link`),
* typed message envelopes (:mod:`repro.net.messages`), and
* a transport facade with mpi4py-flavoured ``send``/``bcast`` verbs
  and the one request/reply call path (:mod:`repro.net.transport`).

The model is store-and-forward per message: a transfer occupies the
sender's uplink and the receiver's downlink for ``size / min(up, down)``
seconds plus propagation latency, so a node fanning out to ``m``
children pays ``m`` sequential serializations per tree level — exactly
the cost the paper's full m-ary tree amortizes.
"""

from repro.net.sim import Simulator
from repro.net.messages import (
    Message,
    REPL_FRAMES,
    REPL_SNAPSHOT_CHUNK,
    REPL_SNAPSHOT_META,
    REPL_STATUS,
    REPL_SUBSCRIBE,
    ReplFrameBatch,
    ReplSnapshotChunk,
    ReplSnapshotMeta,
    ReplStatus,
    ReplSubscribe,
)
from repro.net.link import DuplexLink
from repro.net.station import Station
from repro.net.transport import Network

__all__ = [
    "Simulator",
    "Message",
    "DuplexLink",
    "Station",
    "Network",
    "REPL_FRAMES",
    "REPL_SNAPSHOT_CHUNK",
    "REPL_SNAPSHOT_META",
    "REPL_STATUS",
    "REPL_SUBSCRIBE",
    "ReplFrameBatch",
    "ReplSnapshotChunk",
    "ReplSnapshotMeta",
    "ReplStatus",
    "ReplSubscribe",
]
