"""Per-station disk-space accounting.

The paper worries that duplicating lecture instances "may involve extra
disk space" and argues the cost is bounded because duplicates "live only
within a duration of time" (buffer space).  Experiment E6 quantifies
that with this meter: every allocation is tagged with a category
(``persistent`` for the instructor's instances/classes, ``buffer`` for
pre-broadcast duplicates, ...) so usage curves can be split exactly the
way the paper's argument splits them.  Each station has one, charged
only through :class:`~repro.storage.holdings.ReplicaManager`.
"""

from __future__ import annotations

from repro.util.validation import check_non_negative, check_positive

__all__ = ["DiskFullError", "DiskAccountant"]


class DiskFullError(RuntimeError):
    """An allocation would exceed the station's disk capacity."""

    def __init__(self, station: str, requested: int, available: int) -> None:
        super().__init__(
            f"station {station!r}: requested {requested} B but only "
            f"{available} B available"
        )
        self.station = station
        self.requested = requested
        self.available = available


class DiskAccountant:
    """Tracks allocated bytes per category with an optional capacity cap."""

    def __init__(self, station: str = "local", capacity: int | None = None) -> None:
        self.station = station
        if capacity is not None:
            check_positive(capacity, "capacity")
        self.capacity = capacity
        self._by_category: dict[str, int] = {}

    # -- allocation ---------------------------------------------------------
    def allocate(self, n_bytes: int, category: str = "data") -> None:
        """Reserve ``n_bytes``; raises :class:`DiskFullError` over capacity."""
        check_non_negative(n_bytes, "n_bytes")
        n = int(n_bytes)
        if self.capacity is not None and self.used_bytes + n > self.capacity:
            raise DiskFullError(
                self.station, n, self.capacity - self.used_bytes
            )
        self._by_category[category] = self._by_category.get(category, 0) + n

    def free(self, n_bytes: int, category: str = "data") -> None:
        """Release ``n_bytes`` from ``category`` (never below zero)."""
        check_non_negative(n_bytes, "n_bytes")
        current = self._by_category.get(category, 0)
        n = int(n_bytes)
        if n > current:
            raise ValueError(
                f"station {self.station!r}: freeing {n} B from "
                f"{category!r} which holds only {current} B"
            )
        remaining = current - n
        if remaining:
            self._by_category[category] = remaining
        else:
            self._by_category.pop(category, None)

    def transfer(self, n_bytes: int, src_category: str, dst_category: str) -> None:
        """Reclassify bytes (e.g. buffer -> persistent on promotion)."""
        self.free(n_bytes, src_category)
        # Cannot raise DiskFullError: the bytes were already counted.
        self._by_category[dst_category] = (
            self._by_category.get(dst_category, 0) + int(n_bytes)
        )

    # -- inspection -----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(self._by_category.values())

    @property
    def available_bytes(self) -> int | None:
        if self.capacity is None:
            return None
        return self.capacity - self.used_bytes

    def used_in(self, category: str) -> int:
        return self._by_category.get(category, 0)

    def categories(self) -> dict[str, int]:
        return dict(self._by_category)
