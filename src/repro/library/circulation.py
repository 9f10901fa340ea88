"""Check-out / check-in of lecture notes.

"Students can check out and check in these Web pages.  However, in
general, there is no limitation of the number of Web pages to be
checked out."  The desk therefore never refuses a loan for quota
reasons; it validates only that the document exists in the catalog,
that check-ins match open loans and that every time is finite.  Every
event is logged — the log is the raw material for
:mod:`repro.library.assessment`.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from repro.library.catalog import VirtualLibrary

__all__ = ["CirculationAction", "CirculationEvent", "Loan", "CirculationDesk"]


class CirculationAction(enum.Enum):
    CHECK_OUT = "check_out"
    CHECK_IN = "check_in"


class CirculationEvent(NamedTuple):
    """One logged circulation action."""

    time: float
    student: str
    doc_id: str
    action: CirculationAction


class Loan(NamedTuple):
    """An open check-out."""

    student: str
    doc_id: str
    checked_out_at: float


class CirculationDesk:
    """The library's loan ledger."""

    def __init__(self, library: VirtualLibrary) -> None:
        self.library = library
        self._open: dict[tuple[str, str], Loan] = {}
        self.log: list[CirculationEvent] = []

    # ------------------------------------------------------------------
    def check_out(self, student: str, doc_id: str, time: float) -> Loan:
        """Lend ``doc_id`` to ``student`` (no quota, per the paper)."""
        _check_time(time)
        if doc_id not in self.library:
            raise LookupError(f"document {doc_id!r} is not in the library")
        key = (student, doc_id)
        if key in self._open:
            raise ValueError(
                f"{student} already has {doc_id!r} checked out"
            )
        loan = Loan(student=student, doc_id=doc_id, checked_out_at=time)
        self._open[key] = loan
        self.log.append(
            CirculationEvent(time, student, doc_id, CirculationAction.CHECK_OUT)
        )
        return loan

    def check_in(self, student: str, doc_id: str, time: float) -> float:
        """Return a loan; gives back the held duration.  A refused
        check-in leaves the loan open."""
        _check_time(time)
        key = (student, doc_id)
        loan = self._open.get(key)
        if loan is None:
            raise LookupError(
                f"{student} has no open loan for {doc_id!r}"
            )
        if time < loan.checked_out_at:
            raise ValueError("check-in before check-out")
        del self._open[key]
        self.log.append(
            CirculationEvent(time, student, doc_id, CirculationAction.CHECK_IN)
        )
        return time - loan.checked_out_at

    # ------------------------------------------------------------------
    def open_loans(self, student: str | None = None) -> list[Loan]:
        loans = list(self._open.values())
        if student is not None:
            loans = [loan for loan in loans if loan.student == student]
        return sorted(loans, key=lambda l: (l.student, l.doc_id))

    def has_out(self, student: str, doc_id: str) -> bool:
        return (student, doc_id) in self._open

    @property
    def total_checkouts(self) -> int:
        return sum(
            1
            for event in self.log
            if event.action is CirculationAction.CHECK_OUT
        )


def _check_time(time: float) -> None:
    """A loan time is a finite number: NaN would slip past every
    comparison and infinity would poison the held durations that
    assessment reads from the log."""
    if not math.isfinite(time):
        raise ValueError(f"circulation time must be finite, got {time!r}")
