"""The discrete-event core: a clock and an ordered event queue.

Events are ``(time, seq, callback)`` tuples in a heap; ``seq`` breaks
ties in scheduling order so runs are fully deterministic.  The loop is
deliberately minimal — no processes or coroutines — because every
protocol in the reproduction is naturally callback-shaped.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.util.validation import check_non_negative

__all__ = ["Simulator"]

#: No event runs at infinity or NaN: either would become ``now``, and
#: past a NaN ``now`` every "is it in the past?" check passes.
_INF = float("inf")


class Simulator:
    """A virtual clock with an event queue.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    >>> order, sim.now
    (['a', 'b'], 2.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.events_processed = 0
        self._running = False

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``callback(*args)`` at ``now + delay``; returns an id."""
        if not 0 <= delay < _INF:
            check_non_negative(delay, "delay")
            raise ValueError(f"delay must be finite, got {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, seq, callback, args))
        return seq

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if not self.now <= time < _INF:
            if time < self.now:
                raise ValueError(
                    f"cannot schedule in the past: {time} < now {self.now}"
                )
            raise ValueError(f"time must be finite, got {time!r}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (float(time), seq, callback, args))
        return seq

    @property
    def pending(self) -> int:
        """Number of events not yet executed."""
        return len(self._queue)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        if not queue:
            return False
        time, _seq, callback, args = heappop(queue)
        self.now = time
        self.events_processed += 1
        callback(*args)
        return True

    def run(self, until: float | None = None) -> None:
        """Drain the event queue (optionally stopping at time ``until``).

        With ``until``, events scheduled later stay queued and the clock
        advances exactly to ``until``.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        try:
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    break
                self.step()
            if until is not None and self.now < until:
                self.now = float(until)
        finally:
            self._running = False
