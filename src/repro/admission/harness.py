"""Open-loop saturation harness: offered load vs. goodput.

Closed-loop load generators (each client waits for its reply) cannot
saturate a server — arrival rate self-throttles to service rate.  This
harness is **open-loop**: arrivals fire on a schedule regardless of how
far behind the server is, which is how a flash crowd actually behaves,
and exactly the regime where a server without admission control
collapses (it keeps doing work for callers whose deadlines passed long
ago, so *goodput* — replies delivered within deadline — falls toward
zero even though throughput stays busy).

Time is virtual: the harness owns a :class:`ClockBox` the server's
admission controller reads, service times come from a caller-supplied
model (seconds per operation), and the single-server queue is the
classic ``start = max(arrival, free_at)`` recurrence.  Real work still
happens — every admitted request executes against the real
administrator — but latency accounting is deterministic, so the knee
of the curve is a property of the policy, not of CI hardware.  The
one wall-clock measurement kept is the cost of a *shed*: refusing a
request must take microseconds, and :class:`LoadReport` records the
maximum observed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # protocol imports admission; keep runtime acyclic
    from repro.tiers.protocol import Request, Response

__all__ = ["ClockBox", "LoadReport", "run_offered_load", "find_knee"]


class ClockBox:
    """A mutable virtual clock callable (``clock()`` reads ``now``)."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    import numpy as np  # here: every server imports this package

    return float(np.percentile(samples, q))


@dataclass
class LoadReport:
    """Outcome of one offered-load run."""

    label: str
    offered: int
    duration_s: float
    #: replies that ran and succeeded (includes degraded serves)
    completed: int = 0
    #: completed within their deadline — the goodput numerator
    good: int = 0
    #: served stale/degraded while shedding
    degraded: int = 0
    #: refused by admission control (quota/queue/overload/deadline)
    shed: int = 0
    #: ran but failed for a non-overload reason
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    #: wall-clock cost of each refusal (the one real-time measurement)
    shed_walls_s: list[float] = field(default_factory=list)
    #: worst wall-clock cost of refusing one request
    max_shed_wall_s: float = 0.0

    @property
    def offered_rps(self) -> float:
        return self.offered / self.duration_s if self.duration_s else 0.0

    @property
    def goodput_rps(self) -> float:
        return self.good / self.duration_s if self.duration_s else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds over completed requests."""
        return _percentile(self.latencies_s, q)

    def shed_percentile(self, q: float) -> float:
        """Wall-clock shed-cost percentile in seconds.  Prefer this to
        ``max_shed_wall_s`` for assertions: the max over thousands of
        refusals measures the OS scheduler, not the policy."""
        return _percentile(self.shed_walls_s, q)

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "offered": self.offered,
            "offered_rps": round(self.offered_rps, 1),
            "goodput_rps": round(self.goodput_rps, 1),
            "completed": self.completed,
            "good": self.good,
            "degraded": self.degraded,
            "shed": self.shed,
            "failed": self.failed,
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
            "max_shed_wall_us": round(self.max_shed_wall_s * 1e6, 1),
        }


def _is_shed(response: Response) -> bool:
    return response.shed


def run_offered_load(
    server: Any,
    schedule: Sequence[tuple[float, Request]],
    *,
    service_model: Mapping[str, float] | Callable[[str], float],
    clock: ClockBox,
    label: str = "",
    parallelism: int = 1,
    on_reply: Callable[[float, Request, Response], None] | None = None,
) -> LoadReport:
    """Drive ``schedule`` (time-sorted ``(arrival, request)``) through
    ``server.handle`` under the virtual clock.

    ``service_model`` maps an op name to modeled service seconds (dict
    or callable).  Requests should carry absolute deadlines on the same
    clock; deadline-less requests are counted good whenever completed.
    ``server`` may be anything ``handle``-shaped — a bare
    administrator, a :class:`~repro.tiers.replicaset.ReplicaSet`, a
    degraded-mode assembly; for a replica set, set ``parallelism`` to
    the number of serving nodes so the queue model matches the fleet.
    Degraded replies (stale cache, lagged replica under shedding) skip
    the modeled queue entirely: answering from a cache is the whole
    point of the fallback.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    model = (
        service_model if callable(service_model)
        else lambda op: service_model.get(op, 0.001)  # type: ignore[union-attr]
    )
    start_t = schedule[0][0] if schedule else 0.0
    end_t = schedule[-1][0] if schedule else 0.0
    report = LoadReport(
        label=label, offered=len(schedule),
        duration_s=max(end_t - start_t, 1e-9),
    )
    free_at = [start_t] * parallelism
    admission = getattr(server, "admission", None)
    for arrival, request in schedule:
        clock.now = arrival
        wall0 = time.perf_counter()
        response = server.handle(request)
        wall = time.perf_counter() - wall0
        if _is_shed(response):
            report.shed += 1
            report.shed_walls_s.append(wall)
            report.max_shed_wall_s = max(report.max_shed_wall_s, wall)
        elif response.ok:
            if response.degraded is not None:
                # Cache-served: answered at arrival, no queue slot used.
                report.degraded += 1
                completion = arrival
            else:
                service = model(request.op)
                slot = min(range(parallelism), key=free_at.__getitem__)
                completion = max(arrival, free_at[slot]) + service
                free_at[slot] = completion
                clock.now = completion
                if admission is not None:
                    # Keep the controller's EWMA aligned with modeled
                    # time (the virtual clock cannot be read "during"
                    # handle).
                    admission.record_service(request.op, service)
            report.completed += 1
            report.latencies_s.append(completion - arrival)
            if request.deadline is None or completion <= request.deadline:
                report.good += 1
        else:
            report.failed += 1
        if on_reply is not None:
            on_reply(clock.now, request, response)
    return report


def find_knee(
    points: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """The ``(offered_rps, goodput_rps)`` point of peak goodput.

    The *knee* of a saturation sweep: past it, extra offered load buys
    no goodput (and without admission control, destroys it).
    """
    if not points:
        raise ValueError("need at least one sweep point")
    return max(points, key=lambda p: p[1])
