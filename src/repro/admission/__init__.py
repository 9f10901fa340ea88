"""Overload robustness: admission control, deadlines, breakers.

The middle tier of the reproduction (paper §3's class administrators)
originally assumed a polite client population.  This package supplies
the three defenses a shared deployment needs when that assumption
breaks:

- :class:`AdmissionController` — per-tenant token-bucket quotas and a
  bounded, priority-aware admission queue that sheds requests whose
  estimated wait overruns their deadline (typed :class:`OverloadError`
  with a RETRY_AFTER hint, produced in microseconds);
- :mod:`~repro.admission.deadline` — absolute deadlines propagated
  through every fan-out via an ambient scope;
- :class:`CircuitBreaker` — per-endpoint closed/open/half-open
  fail-fast for dead shards and flapping followers.

Retries are paced and bounded by :class:`repro.fault.policy.RetryPolicy`
(the backoff schedule, and ``allows(now=, deadline=)`` as its bound).

Everything takes an explicit or injectable clock, so simulated-time
experiments (and the E21 saturation sweep in
:mod:`~repro.admission.harness`) are deterministic.
"""

from repro.admission.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.admission.controller import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    AdmissionController,
    AdmissionTicket,
)
from repro.admission.deadline import (
    check_deadline,
    current_deadline,
    deadline_scope,
    expired,
    remaining,
)
from repro.admission.errors import DeadlineExceededError, OverloadError
from repro.admission.harness import ClockBox, LoadReport, find_knee, run_offered_load
from repro.admission.tokens import TenantQuotas, TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ClockBox",
    "DeadlineExceededError",
    "LoadReport",
    "OverloadError",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "TenantQuotas",
    "TokenBucket",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "expired",
    "find_knee",
    "remaining",
    "run_offered_load",
]
