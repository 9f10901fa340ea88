"""Retry budgets: bounding the retry amplification factor.

Deadlines bound how *long* one caller retries; a :class:`RetryBudget`
bounds how *many* retries the whole client population may add on top
of first-try traffic.  Without one, a brown-out triggers synchronized
retries that multiply offered load exactly when capacity is least
available (the classic retry storm).  The budget is a token bucket
whose refill is proportional to first-try request volume: each request
deposits ``ratio`` retry tokens, each retry spends one, so steady-state
retry traffic can never exceed ``ratio`` of real traffic no matter how
many callers are stuck in backoff loops.

The backoff *schedule* is :class:`repro.fault.policy.RetryPolicy`
(deterministic jitter from :mod:`repro.util.rng`; ``allows(now=,
deadline=)`` is its deadline bound); this module supplies the budget a
retry must also clear.
"""

from __future__ import annotations

__all__ = ["RetryBudget"]


class RetryBudget:
    """A population-wide retry allowance, refilled by real traffic.

    >>> budget = RetryBudget(ratio=0.5, floor=1.0)
    >>> budget.record_request(); budget.record_request()
    >>> budget.try_retry(), budget.try_retry(), budget.try_retry()
    (True, True, False)
    """

    def __init__(self, *, ratio: float = 0.1, floor: float = 10.0) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be within [0, 1], got {ratio!r}")
        if floor < 0:
            raise ValueError(f"floor must be >= 0, got {floor!r}")
        self.ratio = float(ratio)
        #: cap on banked tokens — a long quiet period must not bank an
        #: unbounded retry burst
        self.floor = float(floor)
        self._tokens = float(floor)
        self.requests = 0
        self.retries = 0
        self.denied = 0

    def record_request(self) -> None:
        """A first-try request happened; deposit ``ratio`` tokens."""
        self.requests += 1
        self._tokens = min(self.floor, self._tokens + self.ratio)

    def try_retry(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.retries += 1
            return True
        self.denied += 1
        return False

    @property
    def tokens(self) -> float:
        return self._tokens

    def stats(self) -> dict[str, float | int]:
        return {
            "tokens": self._tokens,
            "requests": self.requests,
            "retries": self.retries,
            "denied": self.denied,
        }
