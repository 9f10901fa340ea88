"""Fault injection, failure detection, and self-healing recovery.

The paper's distribution mechanism assumes every workstation in the
full m-ary tree stays up for the whole lecture; this subsystem makes
the cluster survive the opposite assumption.  The layers compose in
the order a real failure unfolds:

* :mod:`repro.fault.inject` — deterministic, seedable fault schedules
  (station crash/restart, link loss, latency spikes, partitions) armed
  on the simulator clock;
* :mod:`repro.fault.detector` — a heartbeat-timeout failure detector
  built on the awareness daemon (:mod:`repro.collab.presence`),
  escalating silence through suspect to confirmed-dead;
* :mod:`repro.fault.repair` — m-ary tree self-healing: remove the dead
  from the broadcast vector and let the paper's closed-form
  child/parent formulas re-derive every parent for free;
* :mod:`repro.fault.recovery` — redelivery of interrupted broadcasts
  over the repaired tree, and crashed-station rejoin: the station's
  syncdb follower restarts over its own WAL and resubscribes;
* :mod:`repro.fault.policy` — the shared retry/timeout/backoff
  schedules the broadcast and on-demand layers also adopt;
* :mod:`repro.fault.health` — per-station health reports folding the
  above into one table;
* :mod:`repro.fault.crashsim` — the crash-matrix kit: failpoint file
  wrappers kill a write stream at exact byte offsets, and one
  kill-at-every-point driver runs the engine (E17), follower (E18) and
  2PC (E20) scenarios that prove what recovery promises.

With no schedule armed and no detector started, nothing here touches
the healthy path: experiments E1–E13 are byte-identical with or
without this package imported.
"""

from repro.fault.policy import RetryPolicy
from repro.fault.inject import FaultEvent, FaultInjector, FaultSchedule
from repro.fault.detector import DetectionEvent, FailureDetector
from repro.fault.repair import RepairReport, Reparenting, TreeRepairer
from repro.fault.recovery import (
    RecoveryManager,
    RedeliveryReport,
    RedeliveryService,
    RejoinReport,
)
from repro.fault.health import HealthMonitor, StationHealth
from repro.fault.crashsim import (
    CRASH_SCHEMAS,
    AckedTxn,
    CrashCase,
    CrashReport,
    CrashWorkload,
    FailpointFile,
    SimulatedCrashError,
    crash_points,
    run_crash_matrix,
    run_crash_workload,
    verify_database,
)

__all__ = [
    "RetryPolicy",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "DetectionEvent",
    "FailureDetector",
    "RepairReport",
    "Reparenting",
    "TreeRepairer",
    "RedeliveryReport",
    "RedeliveryService",
    "RejoinReport",
    "RecoveryManager",
    "HealthMonitor",
    "StationHealth",
    "SimulatedCrashError",
    "FailpointFile",
    "CRASH_SCHEMAS",
    "AckedTxn",
    "CrashWorkload",
    "CrashCase",
    "CrashReport",
    "crash_points",
    "run_crash_workload",
    "run_crash_matrix",
    "verify_database",
]
