"""Full-duplex link model with serialization queuing.

Each station owns one :class:`DuplexLink` (its connection to "the
Internet" of the simulation).  A transfer from A to B:

* starts when *both* A's uplink and B's downlink are free,
* occupies them for ``size / min(up_bw_A, down_bw_B)`` seconds, and
* completes after an additional propagation latency.

This single-resource-per-direction model is what makes fan-out costly:
a parent pushing a lecture to ``m`` children performs ``m`` sequential
uplink serializations, the quantity the paper's m-ary tree trades
against tree depth.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.util.units import Bandwidth
from repro.util.validation import check_non_negative

__all__ = ["DuplexLink", "TransferTiming"]


def _check_bandwidth(value: Bandwidth, name: str) -> Bandwidth:
    """Reject non-:class:`Bandwidth` rates and non-positive rates early.

    A zero or negative rate would make :func:`schedule_transfer` divide
    by zero (or schedule time-travelling transfers) two layers down, so
    the link constructor and rate setters fail loudly instead.
    """
    if not isinstance(value, Bandwidth):
        raise TypeError(
            f"{name} must be a Bandwidth (e.g. Bandwidth.from_mbps(10)), "
            f"got {type(value).__name__}"
        )
    if not value.bytes_per_second > 0:
        raise ValueError(
            f"{name} must be positive, got {value.bytes_per_second!r} B/s"
        )
    return value


class TransferTiming(NamedTuple):
    """Computed schedule of one transfer."""

    start: float  # when serialization begins (both ends reserved)
    serialized: float  # when the last byte leaves the sender
    arrival: float  # serialized + propagation latency

    @property
    def duration(self) -> float:
        return self.arrival - self.start


class DuplexLink:
    """One station's up/down link bandwidth and busy horizons."""

    __slots__ = ("up", "down", "up_busy_until", "down_busy_until",
                 "bytes_up", "bytes_down")

    def __init__(self, up: Bandwidth, down: Bandwidth | None = None) -> None:
        self.up = _check_bandwidth(up, "up")
        self.down = _check_bandwidth(down, "down") if down is not None else up
        self.up_busy_until = 0.0
        self.down_busy_until = 0.0
        self.bytes_up = 0
        self.bytes_down = 0

    @classmethod
    def symmetric_mbps(cls, mbit: float) -> "DuplexLink":
        """A symmetric link of ``mbit`` megabits/second each way."""
        return cls(Bandwidth.from_mbps(mbit))

    def set_rate(self, up: Bandwidth, down: Bandwidth | None = None) -> None:
        """Change the link's bandwidth ("changing network conditions").

        Applies to transfers scheduled from now on; in-flight transfers
        keep the rate they were committed at (their busy horizons stand).
        """
        self.up = _check_bandwidth(up, "up")
        self.down = _check_bandwidth(down, "down") if down is not None else up

    def set_rate_mbps(self, mbit: float) -> None:
        """Symmetric convenience form of :meth:`set_rate`."""
        if not mbit > 0:
            raise ValueError(f"mbit must be > 0, got {mbit!r}")
        self.set_rate(Bandwidth.from_mbps(mbit))

    def reset(self) -> None:
        """Clear busy horizons and byte counters (new experiment run)."""
        self.up_busy_until = 0.0
        self.down_busy_until = 0.0
        self.bytes_up = 0
        self.bytes_down = 0


def schedule_transfer(
    now: float,
    size_bytes: int,
    sender: DuplexLink,
    receiver: DuplexLink,
    latency_s: float,
) -> TransferTiming:
    """Reserve both link ends for a transfer and return its timing.

    Mutates the busy horizons: the links are committed once this returns,
    which keeps the model single-pass (no retries/backtracking) and
    deterministic.
    """
    if not latency_s >= 0:
        check_non_negative(latency_s, "latency_s")
    if not size_bytes >= 0:
        check_non_negative(size_bytes, "size_bytes")
    # min() and max() spelled as comparisons: this runs per message.
    effective = sender.up.bytes_per_second
    if receiver.down.bytes_per_second < effective:
        effective = receiver.down.bytes_per_second
    start = now
    if sender.up_busy_until > start:
        start = sender.up_busy_until
    if receiver.down_busy_until > start:
        start = receiver.down_busy_until
    serialized = start + size_bytes / effective
    sender.up_busy_until = serialized
    receiver.down_busy_until = serialized
    sender.bytes_up += size_bytes
    receiver.bytes_down += size_bytes
    return TransferTiming(start, serialized, serialized + latency_s)
