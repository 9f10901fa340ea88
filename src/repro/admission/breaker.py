"""Per-endpoint circuit breakers (closed / open / half-open).

A breaker watches one downstream endpoint.  While **closed**, calls
flow and failures are counted over a sliding window; once failures
reach the threshold the breaker **opens** and every call is refused
instantly (:class:`~repro.admission.errors.OverloadError` with
``reason="breaker"``) — the fail-fast that keeps a dead shard or a
flapping follower from absorbing retries and queue slots.  After
``open_s`` the breaker goes **half-open** and admits a limited number
of probe calls; a probe success closes it, a probe failure re-opens
it for another full ``open_s``.

Like every admission primitive, the breaker takes ``now`` explicitly
so simulated-time tests are deterministic.  State transitions are
counted on the audited ``breaker.transitions`` instrument point.
"""

from __future__ import annotations

from typing import Any

from repro.admission.errors import OverloadError
from repro.obs.instrument import OBS, Instrument

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

TRANSITIONS = Instrument("counter", "breaker.transitions", "endpoint", "to")
REJECTED = Instrument("counter", "breaker.rejected", "endpoint")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-threshold breaker over an explicit clock.

    ``failure_threshold`` consecutive-window failures open the breaker;
    ``window_s`` is how long a failure stays counted; ``open_s`` is the
    cool-down before probing; ``half_open_probes`` is how many calls
    the half-open state admits before it must see a success.
    """

    def __init__(
        self,
        name: str = "endpoint",
        *,
        failure_threshold: int = 5,
        window_s: float = 30.0,
        open_s: float = 10.0,
        half_open_probes: int = 1,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.window_s = float(window_s)
        self.open_s = float(open_s)
        self.half_open_probes = half_open_probes
        self.state = CLOSED
        self._failures: list[float] = []  # failure timestamps in window
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.transitions: list[tuple[float, str, str]] = []
        self.rejected = 0

    # ------------------------------------------------------------------
    def _transition(self, now: float, to: str) -> None:
        if to == self.state:
            return
        self.transitions.append((now, self.state, to))
        if OBS.enabled:
            TRANSITIONS[self.name, to].inc()
        self.state = to
        if to == CLOSED:
            self._failures.clear()
        if to != HALF_OPEN:
            self._probes_in_flight = 0

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        self._failures = [t for t in self._failures if t > cutoff]

    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether a call may proceed at ``now`` (may move the state)."""
        if self.state == OPEN:
            if now - self._opened_at >= self.open_s:
                self._transition(now, HALF_OPEN)
            else:
                return False
        if self.state == HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                return False
            self._probes_in_flight += 1
            return True
        return True

    def check(self, now: float) -> None:
        """:meth:`allow`, raising ``OverloadError(reason="breaker")``
        with a retry hint instead of returning False."""
        if not self.allow(now):
            self.rejected += 1
            if OBS.enabled:
                REJECTED[self.name].inc()
            raise OverloadError(
                f"circuit breaker {self.name!r} is {self.state}",
                reason="breaker",
                retry_after_s=self.retry_after(now),
            )

    def record_success(self, now: float) -> None:
        """A call completed; half-open success closes the breaker."""
        if self.state == HALF_OPEN:
            self._transition(now, CLOSED)
        else:
            self._prune(now)

    def record_failure(self, now: float) -> None:
        """A call failed; may trip the breaker (or re-open a probe)."""
        if self.state == HALF_OPEN:
            self._opened_at = now
            self._transition(now, OPEN)
            return
        self._prune(now)
        self._failures.append(now)
        if len(self._failures) >= self.failure_threshold:
            self._opened_at = now
            self._transition(now, OPEN)

    def retry_after(self, now: float) -> float:
        """Seconds until the breaker will next admit a call."""
        if self.state == OPEN:
            return max(0.0, self._opened_at + self.open_s - now)
        return 0.0

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state,
            "failures_in_window": len(self._failures),
            "transitions": len(self.transitions),
            "rejected": self.rejected,
        }
