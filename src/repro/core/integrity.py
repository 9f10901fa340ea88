"""The referential-integrity diagram and update-alert propagation.

The paper (§3): "We maintain a referential integrity diagram.  Each
link in the diagram connects two objects.  If the source object is
updated, the system will trigger a message which alerts the user to
update the destination object.  Each link ... is associated with a
label", carrying a reference multiplicity (``+`` = one or more, ``*`` =
zero or more), and cascades transitively: "if a script SCI is updated,
its corresponding implementations should be updated, which further
triggers the changes of one or more HTML programs, zero or more
multimedia resources, and some control programs."

Alerts are *messages to users*, not automatic writes — the destination
object is updated by its author, so the engine only enqueues
:class:`Alert` records.  The propagation hooks into the relational
engine's AFTER UPDATE triggers.
"""

from __future__ import annotations

import enum
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.rdb import Database, TriggerEvent, TriggerTiming, col

__all__ = ["Multiplicity", "IntegrityLink", "Alert", "IntegrityDiagram", "AlertEngine"]


class Multiplicity(enum.Enum):
    """Reference multiplicity carried in a link label's superscript."""

    ONE = "1"
    ONE_OR_MORE = "+"
    ZERO_OR_MORE = "*"


#: Given the engine and a source row, return (dst_pk, dst_row) pairs.
Resolver = Callable[[Database, dict[str, Any]], list[tuple[tuple, dict[str, Any]]]]


@dataclass(frozen=True, slots=True)
class IntegrityLink:
    """One labeled edge of the diagram (source type -> dependent type)."""

    src_table: str
    dst_table: str
    label: str
    multiplicity: Multiplicity
    resolver: Resolver
    alert_template: str = (
        "{label}: {src_table} {src_key} was updated; "
        "review {dst_table} {dst_key}"
    )

    def render(self, src_key: tuple, dst_key: tuple) -> str:
        return self.alert_template.format(
            label=self.label,
            src_table=self.src_table,
            src_key="/".join(map(str, src_key)),
            dst_table=self.dst_table,
            dst_key="/".join(map(str, dst_key)),
        )


@dataclass(frozen=True, slots=True)
class Alert:
    """One pending "please update the destination object" message."""

    link_label: str
    src_table: str
    src_key: tuple
    dst_table: str
    dst_key: tuple
    message: str
    depth: int  # 1 for direct dependents, 2+ for transitive cascade


def fk_children_resolver(
    dst_table: str, fk_column: str, src_pk_column: str
) -> Resolver:
    """Children of ``dst_table`` whose ``fk_column`` equals the source's
    ``src_pk_column`` value."""

    def resolve(
        db: Database, src_row: dict[str, Any]
    ) -> list[tuple[tuple, dict[str, Any]]]:
        value = src_row[src_pk_column]
        rows = db.select(dst_table, where=col(fk_column) == value)
        schema = db.schema(dst_table)
        return [(schema.primary_key_of(row), row) for row in rows]

    return resolve


def json_list_resolver(dst_table: str, list_column: str, json_key: str | None) -> Resolver:
    """Targets named in a JSON list column of the source row.

    ``json_key`` selects a field of each list element (e.g. ``"path"``
    for FileDescriptor dicts); ``None`` uses the element itself (e.g. a
    BLOB digest string).
    """

    def resolve(
        db: Database, src_row: dict[str, Any]
    ) -> list[tuple[tuple, dict[str, Any]]]:
        out: list[tuple[tuple, dict[str, Any]]] = []
        for element in src_row.get(list_column) or []:
            key_value = element[json_key] if json_key is not None else element
            row = db.get(dst_table, key_value)
            if row is not None:
                out.append(((key_value,), row))
        return out

    return resolve


class IntegrityDiagram:
    """The labeled link graph between object types."""

    def __init__(self) -> None:
        self._links: list[IntegrityLink] = []

    def add_link(self, link: IntegrityLink) -> None:
        self._links.append(link)

    def links_from(self, table: str) -> list[IntegrityLink]:
        return [link for link in self._links if link.src_table == table]

    def links(self) -> list[IntegrityLink]:
        return list(self._links)

    def tables(self) -> set[str]:
        out: set[str] = set()
        for link in self._links:
            out.add(link.src_table)
            out.add(link.dst_table)
        return out

    @classmethod
    def paper_default(cls) -> "IntegrityDiagram":
        """The diagram described in §3 for the course schema.

        Script -> implementations(+) -> HTML files(+), program files(*),
        multimedia(*); implementation -> test records(*) -> bug
        reports(*); implementation -> annotations(*).
        """
        diagram = cls()
        diagram.add_link(IntegrityLink(
            "scripts", "implementations", "realizes",
            Multiplicity.ONE_OR_MORE,
            fk_children_resolver("implementations", "script_name", "script_name"),
        ))
        diagram.add_link(IntegrityLink(
            "implementations", "html_files", "renders",
            Multiplicity.ONE_OR_MORE,
            json_list_resolver("html_files", "html_files", "path"),
        ))
        diagram.add_link(IntegrityLink(
            "implementations", "program_files", "controls",
            Multiplicity.ZERO_OR_MORE,
            json_list_resolver("program_files", "program_files", "path"),
        ))
        diagram.add_link(IntegrityLink(
            "implementations", "blobs", "presents",
            Multiplicity.ZERO_OR_MORE,
            json_list_resolver("blobs", "multimedia", None),
        ))
        diagram.add_link(IntegrityLink(
            "implementations", "test_records", "validated-by",
            Multiplicity.ZERO_OR_MORE,
            fk_children_resolver("test_records", "starting_url", "starting_url"),
        ))
        diagram.add_link(IntegrityLink(
            "test_records", "bug_reports", "reported-in",
            Multiplicity.ZERO_OR_MORE,
            fk_children_resolver(
                "bug_reports", "test_record_name", "test_record_name"
            ),
        ))
        diagram.add_link(IntegrityLink(
            "implementations", "annotations", "annotated-by",
            Multiplicity.ZERO_OR_MORE,
            fk_children_resolver("annotations", "starting_url", "starting_url"),
        ))
        return diagram


class AlertEngine:
    """Watches updates and enqueues transitive integrity alerts."""

    def __init__(
        self,
        db: Database,
        diagram: IntegrityDiagram,
        *,
        max_depth: int = 8,
    ) -> None:
        self.db = db
        self.diagram = diagram
        self.max_depth = max_depth
        self.alerts: list[Alert] = []
        self.cascades: list[int] = []  # alert count per triggering update
        self.resolved = 0
        self._installed: set[str] = set()
        # The engine keeps its triggers as long as it lives, and this
        # object keeps the engine: the trigger reaches it weakly, so the
        # two form no reference cycle and are freed when dropped.
        on_update = weakref.WeakMethod(self._on_update)

        def trigger(ctx) -> None:
            method = on_update()
            if method is not None:
                method(ctx)

        for table in sorted(diagram.tables()):
            if table in db.table_names():
                db.register_trigger(
                    f"__integrity_{table}__",
                    table,
                    TriggerEvent.UPDATE,
                    TriggerTiming.AFTER,
                    trigger,
                )
                self._installed.add(table)

    def _on_update(self, ctx) -> None:
        assert ctx.new_row is not None
        # Updating an object *resolves* any alert pointing at it — its
        # author has done what the alert asked — before the update's own
        # cascade is raised.
        key = self.db.schema(ctx.table).primary_key_of(ctx.new_row)
        self.resolve(ctx.table, key)
        self.propagate(ctx.table, ctx.new_row)

    def resolve(self, dst_table: str, dst_key: tuple) -> int:
        """Clear pending alerts targeting one object; returns the count."""
        before = len(self.alerts)
        self.alerts = [
            alert
            for alert in self.alerts
            if not (alert.dst_table == dst_table and alert.dst_key == dst_key)
        ]
        resolved = before - len(self.alerts)
        self.resolved += resolved
        return resolved

    def acknowledge(self, alert: Alert) -> bool:
        """Dismiss one specific alert (reviewed, no change needed)."""
        try:
            self.alerts.remove(alert)
        except ValueError:
            return False
        self.resolved += 1
        return True

    def propagate(self, table: str, row: dict[str, Any]) -> list[Alert]:
        """BFS the diagram from one updated object, enqueueing alerts.

        Each (table, key) is alerted at most once per propagation.
        Returns (and also stores) the alerts of this cascade.
        """
        schema = self.db.schema(table)
        src_key = schema.primary_key_of(row)
        cascade: list[Alert] = []
        seen: set[tuple[str, tuple]] = {(table, src_key)}
        queue: deque[tuple[str, tuple, dict[str, Any], int]] = deque(
            [(table, src_key, row, 0)]
        )
        while queue:
            cur_table, cur_key, cur_row, depth = queue.popleft()
            if depth >= self.max_depth:
                continue
            for link in self.diagram.links_from(cur_table):
                for dst_key, dst_row in link.resolver(self.db, cur_row):
                    node = (link.dst_table, dst_key)
                    if node in seen:
                        continue
                    seen.add(node)
                    alert = Alert(
                        link_label=link.label,
                        src_table=cur_table,
                        src_key=cur_key,
                        dst_table=link.dst_table,
                        dst_key=dst_key,
                        message=link.render(cur_key, dst_key),
                        depth=depth + 1,
                    )
                    cascade.append(alert)
                    queue.append((link.dst_table, dst_key, dst_row, depth + 1))
        self.alerts.extend(cascade)
        self.cascades.append(len(cascade))
        return cascade

    def drain(self) -> list[Alert]:
        """Take (and clear) all pending alerts."""
        out, self.alerts = self.alerts, []
        return out

    def pending_for(self, dst_table: str) -> list[Alert]:
        return [a for a in self.alerts if a.dst_table == dst_table]
