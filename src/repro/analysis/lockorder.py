"""The dynamic lock-order race detector (sanitizer-style).

Attached to a :class:`repro.core.locking.LockManager`, the detector
observes every grant and maintains a **global lock-order graph**: an
edge ``A -> B`` means some session acquired ``B`` while holding ``A``.
Two properties are checked *at acquire time*:

* **Potential deadlock** — adding an edge closes a cycle in the graph
  (session 1 locked X then Y, session 2 locked Y then X).  The sessions
  need not overlap in time: like a lock-order sanitizer, the detector
  flags schedules that *could* interleave into a deadlock, not just ones
  that did.

* **Lock-hierarchy violation** — a session acquires an object while
  already holding one of its *descendants* in the
  :class:`~repro.core.locking.ObjectTree`.  The paper's protocol
  acquires top-down (database → script → implementation → files);
  bottom-up acquisition is the classic inversion that deadlocks against
  a top-down peer.  In ``strict`` mode the violating acquire raises
  :class:`~repro.core.locking.LockHierarchyError` and the lock is *not*
  granted; otherwise a finding is recorded and execution continues.

Findings reuse the shared :class:`repro.analysis.findings.Finding`
model, so the lint's text/JSON reporters render them unchanged.  Edges
persist across releases on purpose — ordering discipline is a global
property of the program, not of one moment's lock table.

Opt in per manager::

    detector = attach_detector(manager)           # record findings
    detector = attach_detector(manager, strict=True)  # and raise

or process-wide by exporting ``REPRO_LOCK_DETECTOR=1`` (or ``strict``)
before the first :class:`LockManager` is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity
from repro.analysis.reporters import render_json, render_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.locking import LockManager, LockMode

__all__ = [
    "LockOrderDetector",
    "attach_detector",
    "detach_detector",
    "detector_for",
]

LOCK_ORDER_PATH = "<lock-order>"


@dataclass
class _Edge:
    """One observed ordering ``src held while dst acquired``."""

    count: int = 0
    users: set[str] = field(default_factory=set)


class LockOrderDetector:
    """Observer for one LockManager; see the module docstring."""

    def __init__(self, manager: "LockManager", *, strict: bool = False) -> None:
        self.manager = manager
        self.strict = strict
        self.findings: list[Finding] = []
        self._edges: dict[str, dict[str, _Edge]] = {}
        self._reported_cycles: set[frozenset[str]] = set()
        self._reported_hierarchy: set[tuple[str, str, str]] = set()

    # -- LockObserver protocol -----------------------------------------
    def on_acquire(
        self, user: str, object_id: str, mode: "LockMode", *,
        already_held: bool,
    ) -> None:
        if already_held:
            # Reentrant re-acquire or upgrade: ordering already recorded.
            return
        held = [h for h in self.manager.held_by(user) if h != object_id]
        for held_object in held:
            edge = self._edges.setdefault(held_object, {}).setdefault(
                object_id, _Edge()
            )
            edge.count += 1
            edge.users.add(user)
        self._check_cycles(user, object_id, held)
        self._check_hierarchy(user, object_id, mode, held)

    def on_release(self, user: str, object_id: str) -> None:
        # Edges survive releases: lock-order discipline is global.
        return

    # -- checks --------------------------------------------------------
    def _check_cycles(
        self, user: str, object_id: str, held: list[str]
    ) -> None:
        for held_object in held:
            cycle = self._path(object_id, held_object)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in self._reported_cycles:
                continue
            self._reported_cycles.add(key)
            loop = " -> ".join([*cycle, cycle[0]])
            users = sorted(
                {
                    u
                    for src, dst in zip(cycle, [*cycle[1:], cycle[0]])
                    for u in self._edges.get(src, {}).get(dst, _Edge()).users
                }
            )
            self.findings.append(
                Finding(
                    rule="lock-order-cycle",
                    message=(
                        f"potential deadlock: lock-order cycle {loop} "
                        f"(sessions {', '.join(users)}); these schedules can "
                        "interleave into a deadly embrace"
                    ),
                    path=LOCK_ORDER_PATH,
                    severity=Severity.ERROR,
                    source="detector",
                    detail={"cycle": cycle, "sessions": users},
                )
            )

    def _check_hierarchy(
        self, user: str, object_id: str, mode: "LockMode", held: list[str]
    ) -> None:
        from repro.core.locking import LockHierarchyError

        tree = self.manager.tree
        for held_object in held:
            # relation(held, requested) == "ancestor" means the requested
            # object sits above the held one: child locked first.
            if tree.relation(held_object, object_id) != "ancestor":
                continue
            held_mode = self.manager.holders(held_object).get(user, mode)
            if self.strict:
                raise LockHierarchyError(
                    user, object_id, mode, held_object, held_mode
                )
            key = (user, object_id, held_object)
            if key in self._reported_hierarchy:
                continue
            self._reported_hierarchy.add(key)
            self.findings.append(
                Finding(
                    rule="lock-hierarchy",
                    message=(
                        f"hierarchy violation: {user} acquired ancestor "
                        f"{object_id!r} while holding descendant "
                        f"{held_object!r}; the paper's protocol locks "
                        "top-down (database -> script -> implementation)"
                    ),
                    path=LOCK_ORDER_PATH,
                    severity=Severity.ERROR,
                    source="detector",
                    detail={
                        "session": user,
                        "ancestor": object_id,
                        "descendant": held_object,
                    },
                )
            )

    def _path(self, start: str, goal: str) -> list[str] | None:
        """Nodes from ``start`` to ``goal`` along recorded edges, if any.

        Callers pass the object being acquired as ``start`` and a
        currently-held object as ``goal``; the just-recorded edge
        ``goal -> start`` closes the loop, so the returned path is the
        cycle itself.
        """
        if start == goal:
            return [start]
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, trail = stack.pop()
            for neighbour in sorted(self._edges.get(node, ())):
                if neighbour == goal:
                    return trail + [neighbour]
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append((neighbour, trail + [neighbour]))
        return None

    # -- reporting ------------------------------------------------------
    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._edges.values())

    def edges(self) -> dict[str, dict[str, int]]:
        """The lock-order graph as plain counts (introspection/tests)."""
        return {
            src: {dst: edge.count for dst, edge in dsts.items()}
            for src, dsts in self._edges.items()
        }

    def report(self, fmt: str = "text") -> str:
        if fmt == "json":
            return render_json(self.findings)
        return render_text(self.findings)

    def clear(self) -> None:
        """Drop findings and the recorded graph (tests, new scenarios)."""
        self.findings.clear()
        self._edges.clear()
        self._reported_cycles.clear()
        self._reported_hierarchy.clear()


def attach_detector(
    manager: "LockManager", *, strict: bool = False
) -> LockOrderDetector:
    """Create a detector for ``manager`` and register it as an observer.

    Idempotent per manager: a second call returns the existing detector
    (updating its ``strict`` flag).
    """
    existing = detector_for(manager)
    if existing is not None:
        existing.strict = strict
        return existing
    detector = LockOrderDetector(manager, strict=strict)
    manager.add_observer(detector)
    return detector


def detector_for(manager: "LockManager") -> LockOrderDetector | None:
    """The detector attached to ``manager``, if any."""
    for observer in getattr(manager, "_observers", ()):
        if isinstance(observer, LockOrderDetector):
            return observer
    return None


def detach_detector(manager: "LockManager") -> LockOrderDetector | None:
    """Remove (and return) the detector attached to ``manager``."""
    detector = detector_for(manager)
    if detector is not None:
        manager.remove_observer(detector)
    return detector
