"""Deadline propagation: absolute deadlines and the ambient scope.

A deadline is an **absolute instant on the caller's clock** (the same
injectable-clock pattern as :mod:`repro.obs` — wall time in production,
``sim.now`` in simulations).  Propagating it as an absolute value means
every hop subtracts nothing and drifts nothing; each layer just asks
"is it past?" against its own reading of the shared clock.

The *ambient scope* is how a deadline crosses layers without threading
a parameter through every signature: the middle tier enters
:func:`deadline_scope` around request dispatch, and any nested
fan-out — shard RPC, scatter-gather fragments, replica routing — reads
:func:`current_deadline` and refuses to start work for an expired
caller.  Scopes nest; an inner scope may only *tighten* the deadline
(the effective deadline is the minimum of the stack).
"""

from __future__ import annotations

from repro.admission.errors import DeadlineExceededError

__all__ = [
    "current_deadline",
    "deadline_scope",
    "remaining",
    "expired",
    "check_deadline",
]

#: The active deadline stack (a plain list: the reproduction is
#: single-threaded per process; simulations interleave via the event
#: loop, which never suspends mid-handler).
_stack: list[float] = []


def current_deadline() -> float | None:
    """The tightest deadline any enclosing scope declared, or None."""
    return min(_stack) if _stack else None


class deadline_scope:
    """Declare ``deadline`` for the duration of the block.

    ``None`` is a no-op scope (callers need not branch).  Nesting keeps
    the *minimum* of all active deadlines effective.  A plain class, not
    a generator-based context manager: the middle tier enters one per
    request that carries a deadline.

    >>> with deadline_scope(10.0):
    ...     with deadline_scope(25.0):
    ...         current_deadline()
    10.0
    """

    __slots__ = ("_deadline",)

    def __init__(self, deadline: float | None) -> None:
        if deadline is not None:
            deadline = float(deadline)
            if deadline != deadline:
                # min() over a stack holding NaN depends on its order.
                raise ValueError("a deadline cannot be NaN")
        self._deadline = deadline

    def __enter__(self) -> None:
        if self._deadline is not None:
            _stack.append(self._deadline)

    def __exit__(self, *_exc: object) -> None:
        if self._deadline is not None:
            _stack.pop()


def remaining(now: float, deadline: float | None = None) -> float | None:
    """Seconds left before the effective deadline (None = unbounded)."""
    effective = deadline if deadline is not None else current_deadline()
    if effective is None:
        return None
    return effective - now


def expired(now: float, deadline: float | None = None) -> bool:
    """True when the effective deadline has passed at ``now``."""
    left = remaining(now, deadline)
    return left is not None and left <= 0.0


def check_deadline(now: float, *, site: str = "call") -> None:
    """Raise :class:`DeadlineExceededError` when the ambient deadline
    has passed — the one-liner fan-out paths call before each unit of
    downstream work."""
    effective = current_deadline()
    if effective is not None and now >= effective:
        raise DeadlineExceededError(
            f"deadline {effective:.6f} passed at {site} (now {now:.6f})"
        )
