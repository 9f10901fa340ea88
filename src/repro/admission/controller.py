"""The admission controller: quotas + bounded priority queue + shedding.

One controller fronts one class administrator.  Every request passes
three gates *before any work starts*:

1. **deadline** — an already-expired request is cancelled outright
   (``admission.deadline_expired``): doing its work would serve nobody;
2. **tenant quota** — a per-tenant token bucket
   (:class:`~repro.admission.tokens.TenantQuotas`) keeps one course's
   flash crowd from starving the rest of the university;
3. **queue admission** — the controller models the server's backlog as
   a virtual busy-horizon (``busy_until``) advanced by an EWMA service
   estimate per operation.  A request whose **estimated queue wait plus
   service time would overrun its deadline** is shed *now*, in
   microseconds, with a RETRY_AFTER hint — instead of waiting in line
   only to time out after burning a queue slot.  The queue is bounded
   (``max_depth``) and priority-aware: bulk traffic may only occupy a
   configurable share of it, so interactive students stay responsive
   while a batch import hammers the tier.

Shedding raises :class:`~repro.admission.errors.OverloadError`; the
server maps it to a protocol-level overload response.  All clocks are
injectable (wall time in production, ``sim.now`` or a test-owned box
in experiments), the same pattern as :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.admission.errors import DeadlineExceededError, OverloadError
from repro.admission.tokens import TenantQuotas
from repro.obs.instrument import OBS, Instrument

__all__ = [
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BULK",
    "AdmissionTicket",
    "AdmissionController",
]

PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BULK = "bulk"

ADMITTED = Instrument("counter", "admission.admitted", "priority")
SHED = Instrument("counter", "admission.shed", "reason")
QUEUE_DEPTH = Instrument("gauge", "admission.queue_depth")
DEADLINE_EXPIRED = Instrument("counter", "admission.deadline_expired", "site")


@dataclass(frozen=True, slots=True)
class AdmissionTicket:
    """Proof one request was admitted; returned to :meth:`complete`."""

    op: str
    priority: str
    tenant: str
    admitted_at: float
    deadline: float
    #: the service estimate this admission charged to ``busy_until``
    estimate_s: float


class AdmissionController:
    """Token-bucket quotas + a bounded, priority-aware admission queue."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        default_deadline_s: float = 1.0,
        max_depth: int = 64,
        bulk_share: float = 0.5,
        service_estimate_s: float = 0.002,
        ewma_alpha: float = 0.2,
        quotas: TenantQuotas | None = None,
        overload_window_s: float = 1.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < bulk_share <= 1.0:
            raise ValueError("bulk_share must be within (0, 1]")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be within (0, 1]")
        self.clock = clock if clock is not None else time.monotonic
        self.default_deadline_s = float(default_deadline_s)
        self.max_depth = max_depth
        #: queue slots bulk-priority work may occupy
        self.bulk_depth = max(1, int(max_depth * bulk_share))
        self.default_estimate_s = float(service_estimate_s)
        self.ewma_alpha = float(ewma_alpha)
        self.quotas = quotas
        self.overload_window_s = float(overload_window_s)
        #: the virtual instant the server finishes everything admitted
        self.busy_until = 0.0
        self.depth = 0
        self._estimates: dict[str, float] = {}
        self._last_shed_at: float | None = None
        self.admitted = 0
        self.shed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    def _count_shed(self, now: float, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self._last_shed_at = now
        if OBS.enabled:
            if reason == "deadline":
                DEADLINE_EXPIRED["server"].inc()
            else:
                SHED[reason].inc()

    def _gauge_depth(self) -> None:
        if OBS.enabled:
            QUEUE_DEPTH[()].set(self.depth)

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def estimate(self, op: str) -> float:
        """Current EWMA service estimate for ``op`` (seconds)."""
        return self._estimates.get(op, self.default_estimate_s)

    def record_service(self, op: str, service_s: float) -> None:
        """Fold one observed service time into the EWMA for ``op``."""
        if service_s <= 0.0:
            return
        previous = self._estimates.get(op)
        if previous is None:
            self._estimates[op] = float(service_s)
        else:
            alpha = self.ewma_alpha
            self._estimates[op] = (1 - alpha) * previous + alpha * service_s

    def estimated_wait(self, now: float | None = None) -> float:
        """Seconds a request admitted at ``now`` would queue first."""
        if now is None:
            now = self.clock()
        return max(0.0, self.busy_until - now)

    def overloaded(self, now: float | None = None) -> bool:
        """True while the controller sheds (a recent shed, or a full
        queue) — the signal the replica tier uses to open degraded
        read paths."""
        if now is None:
            now = self.clock()
        if self.depth >= self.max_depth:
            return True
        return (
            self._last_shed_at is not None
            and now - self._last_shed_at <= self.overload_window_s
        )

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def admit(self, request: Any, *, now: float | None = None) -> AdmissionTicket:
        """Admit ``request`` or raise a typed shed error.

        ``request`` is duck-typed (``op``/``deadline``/``priority``/
        ``tenant`` attributes, all optional but ``op``), so the
        controller fronts protocol requests and bare test stubs alike.
        """
        if now is None:
            now = self.clock()
        op = request.op
        deadline = getattr(request, "deadline", None)
        if deadline is None:
            deadline = now + self.default_deadline_s
        # Anything but bulk is served, and labelled, as interactive.
        bulk = getattr(request, "priority", None) == PRIORITY_BULK
        priority = PRIORITY_BULK if bulk else PRIORITY_INTERACTIVE
        tenant = getattr(request, "tenant", None) or "default"

        if now >= deadline:
            self._count_shed(now, "deadline")
            raise DeadlineExceededError(
                f"deadline passed before admission of {op!r}"
            )
        if self.quotas is not None and not self.quotas.take(tenant, now):
            self._count_shed(now, "quota")
            raise OverloadError(
                f"tenant {tenant!r} is over quota",
                reason="quota",
                retry_after_s=self.quotas.wait_time(tenant, now),
            )
        wait = self.estimated_wait(now)
        estimate = self.estimate(op)
        if self.depth >= self.max_depth:
            self._count_shed(now, "queue-full")
            raise OverloadError(
                f"admission queue full ({self.depth})",
                reason="queue-full",
                retry_after_s=wait,
            )
        if priority == PRIORITY_BULK and self.depth >= self.bulk_depth:
            self._count_shed(now, "bulk-queue")
            raise OverloadError(
                "bulk queue share exhausted",
                reason="bulk-queue",
                retry_after_s=wait,
            )
        if now + wait + estimate > deadline:
            self._count_shed(now, "overload")
            raise OverloadError(
                f"estimated wait {wait:.4f}s overruns the deadline",
                reason="overload",
                retry_after_s=max(wait + estimate - (deadline - now), estimate),
            )

        self.depth += 1
        self.busy_until = max(self.busy_until, now) + estimate
        self.admitted += 1
        if OBS.enabled:
            ADMITTED[priority].inc()
        self._gauge_depth()
        return AdmissionTicket(
            op=op,
            priority=priority,
            tenant=tenant,
            admitted_at=now,
            deadline=deadline,
            estimate_s=estimate,
        )

    def complete(
        self,
        ticket: AdmissionTicket,
        *,
        now: float | None = None,
        service_s: float | None = None,
    ) -> None:
        """Release the queue slot and fold in the observed service time."""
        self.depth = max(0, self.depth - 1)
        if service_s is not None:
            self.record_service(ticket.op, service_s)
        self._gauge_depth()

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "admitted": self.admitted,
            "shed": dict(sorted(self.shed.items())),
            "depth": self.depth,
            "busy_until": self.busy_until,
            "estimates": dict(sorted(self._estimates.items())),
        }
