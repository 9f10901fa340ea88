"""Shared retry/timeout/backoff policies.

Every layer that survives message loss needs the same three numbers —
how long to wait before concluding a message died, how that wait grows
across attempts, and when to give up.  Before this module each layer
hard-coded its own (``ondemand`` carried an ad-hoc fixed-interval
retry); :class:`RetryPolicy` centralizes the schedule so the on-demand
fetcher and the fault-recovery machinery (the broadcast healer
:class:`~repro.fault.recovery.RedeliveryService` among it) back off the
same way and experiments can sweep one knob.

Policies are value objects: deterministic, hashable, and safe to share
between subsystems.  Optional jitter is derived from a seed with
:func:`repro.util.rng.derive_seed`, so a jittered schedule is still
bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_positive

__all__ = ["RetryPolicy"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """A timeout schedule over retry attempts.

    Attempt 0 is the first *retry* check (the original send is attempt
    "-1" and free).  The wait before attempt ``a`` is::

        min(initial_timeout_s * multiplier**a, max_timeout_s) * (1 + jitter_a)

    where ``jitter_a`` is drawn uniformly from ``[0, jitter]`` using the
    policy seed (0 by default, i.e. no jitter).

    >>> p = RetryPolicy(initial_timeout_s=2.0, multiplier=2.0, max_retries=4)
    >>> [p.timeout_for(a) for a in range(4)]
    [2.0, 4.0, 8.0, 16.0]
    """

    initial_timeout_s: float = 2.0
    multiplier: float = 2.0
    max_timeout_s: float = 60.0
    max_retries: int = 5
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive(self.initial_timeout_s, "initial_timeout_s")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1 (backoff never shrinks), "
                f"got {self.multiplier!r}"
            )
        check_positive(self.max_timeout_s, "max_timeout_s")
        check_non_negative(self.max_retries, "max_retries")
        check_non_negative(self.jitter, "jitter")

    @classmethod
    def fixed(cls, timeout_s: float, max_retries: int = 5) -> "RetryPolicy":
        """A constant-interval schedule (the legacy ondemand behaviour)."""
        return cls(
            initial_timeout_s=timeout_s,
            multiplier=1.0,
            max_timeout_s=timeout_s,
            max_retries=max_retries,
        )

    @classmethod
    def exponential(
        cls,
        initial_timeout_s: float = 2.0,
        *,
        multiplier: float = 2.0,
        max_timeout_s: float = 60.0,
        max_retries: int = 5,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> "RetryPolicy":
        """The standard doubling backoff, capped at ``max_timeout_s``."""
        return cls(
            initial_timeout_s=initial_timeout_s,
            multiplier=multiplier,
            max_timeout_s=max_timeout_s,
            max_retries=max_retries,
            jitter=jitter,
            seed=seed,
        )

    def timeout_for(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (0-based)."""
        check_non_negative(attempt, "attempt")
        base = min(
            self.initial_timeout_s * self.multiplier**attempt,
            self.max_timeout_s,
        )
        if not self.jitter:
            return base
        rng = make_rng(self.seed, "retry-jitter", attempt)
        return base * (1.0 + self.jitter * float(rng.random()))

    def delays(self) -> Iterator[float]:
        """The full schedule: one wait per permitted retry."""
        for attempt in range(self.max_retries):
            yield self.timeout_for(attempt)

    @property
    def total_wait_s(self) -> float:
        """Worst-case seconds spent waiting before giving up."""
        return sum(self.delays())

    def allows(
        self,
        attempt: int,
        *,
        now: float | None = None,
        deadline: float | None = None,
    ) -> bool:
        """Whether retry ``attempt`` (0-based) is still permitted.

        With ``now`` and ``deadline``, the schedule is additionally
        bounded by the caller's deadline: a retry whose *wait* would
        cross the deadline is refused even when attempts remain — the
        caller stops retrying into a request nobody awaits.

        >>> p = RetryPolicy(initial_timeout_s=2.0, multiplier=2.0)
        >>> p.allows(1)
        True
        >>> p.allows(1, now=8.0, deadline=10.0)  # wait 4 crosses 10
        False
        """
        if attempt >= self.max_retries:
            return False
        if deadline is not None and now is not None:
            return now + self.timeout_for(attempt) <= deadline
        return True
