"""Row-level triggers.

Triggers are the engine hook that :mod:`repro.core.integrity` uses to
implement the paper's referential-integrity diagram: when a source object
(a row) is updated, an AFTER UPDATE trigger raises the alert messages that
tell users which dependent objects need refreshing.

A trigger is a callback registered for one (table, event, timing).
BEFORE triggers run before constraint checks and may veto the mutation by
raising; AFTER triggers observe the applied change.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["TriggerEvent", "TriggerTiming", "TriggerContext", "TriggerRegistry"]


class TriggerEvent(enum.Enum):
    """Which mutation a trigger watches."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class TriggerTiming(enum.Enum):
    """BEFORE triggers may veto; AFTER triggers observe."""

    BEFORE = "before"
    AFTER = "after"


@dataclass(frozen=True, slots=True)
class TriggerContext:
    """What a trigger callback sees.

    ``old_row`` is ``None`` for INSERT; ``new_row`` is ``None`` for
    DELETE.  Rows are copies — mutating them does not alter the table.
    """

    table: str
    event: TriggerEvent
    timing: TriggerTiming
    old_row: dict[str, Any] | None
    new_row: dict[str, Any] | None


TriggerFn = Callable[[TriggerContext], None]


class TriggerRegistry:
    """Registry and dispatcher for row-level triggers."""

    def __init__(self) -> None:
        #: table -> (event, timing) -> [(name, fn)]; a table nobody
        #: registered on costs :meth:`fire` one string-keyed miss.
        self._triggers: dict[
            str, dict[tuple[TriggerEvent, TriggerTiming], list[tuple[str, TriggerFn]]]
        ] = {}

    def register(
        self,
        name: str,
        table: str,
        event: TriggerEvent,
        timing: TriggerTiming,
        fn: TriggerFn,
    ) -> None:
        """Register ``fn``; trigger names must be unique per (table, event,
        timing) so they can be dropped."""
        existing = self._triggers.setdefault(table, {}).setdefault(
            (event, timing), []
        )
        if any(existing_name == name for existing_name, _ in existing):
            raise ValueError(
                f"trigger {name!r} already registered for "
                f"{(table, event, timing)!r}"
            )
        existing.append((name, fn))

    def drop(self, name: str, table: str) -> bool:
        """Remove trigger ``name`` from ``table``; returns True if found."""
        found = False
        slots = self._triggers.get(table, {})
        for key, entries in slots.items():
            kept = [(n, f) for n, f in entries if n != name]
            if len(kept) != len(entries):
                slots[key] = kept
                found = True
        return found

    def fire(
        self,
        table: str,
        event: TriggerEvent,
        timing: TriggerTiming,
        old_row: dict[str, Any] | None,
        new_row: dict[str, Any] | None,
    ) -> None:
        slots = self._triggers.get(table)
        if not slots:
            return
        entries = slots.get((event, timing))
        if not entries:
            return
        context = TriggerContext(
            table=table,
            event=event,
            timing=timing,
            old_row=dict(old_row) if old_row is not None else None,
            new_row=dict(new_row) if new_row is not None else None,
        )
        for _name, fn in entries:
            fn(context)

    def names_for(self, table: str) -> list[str]:
        """All trigger names registered on ``table`` (for introspection)."""
        return sorted({
            name
            for entries in self._triggers.get(table, {}).values()
            for name, _fn in entries
        })
