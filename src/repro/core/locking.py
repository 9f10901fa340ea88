"""The object-locking compatibility table for collaborative editing.

The paper (§3): "if a container has a read lock by a user, its
components (and itself) can have the read access by another user, but
not the write access.  However, the parent objects of the container can
have both read and write access by another user.  Of course, the
accesses are prohibited in the current container object [when write
locked].  Locking tables are implemented in the instructor workstation.
With the table, the system can control which instructor is changing a
Web document.  Therefore, collaborative work is feasible."

Semantics implemented (and exposed as an explicit compatibility matrix):

* ``READ`` on X by A  →  B may READ anywhere; B may WRITE only objects
  that are **not** in X's subtree (X itself included in the subtree).
  Ancestors of X remain fully writable.
* ``WRITE`` on X by A →  B may neither READ nor WRITE anything in X's
  subtree; ancestors of X remain fully accessible.
* Locks are reentrant for their owner, and an owner may upgrade
  READ→WRITE when no other holder conflicts.

Note a deliberate asymmetry inherited from the paper: the table is
*permissive upward* — because "the parent objects of the container can
have both read and write access by another user", a WRITE on an ancestor
may be granted while another user already holds a READ on a descendant.
A strict multiple-granularity protocol would use intention locks to
forbid that; the paper's table does not, and this implementation follows
the paper.

Objects live in an :class:`ObjectTree` (database → script →
implementation → files/annotations/test records), the container
hierarchy the compatibility rules quantify over.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Iterator, Protocol

from repro.obs.instrument import OBS, Instrument, family

__all__ = [
    "LockMode",
    "LockConflictError",
    "LockHierarchyError",
    "LockObserver",
    "ObjectTree",
    "HeldLock",
    "LockManager",
    "COMPATIBILITY",
]

#: Environment variable that opts every new LockManager into the dynamic
#: lock-order detector ("1"/"on" records findings; "strict" also raises
#: LockHierarchyError at the violating acquire).
DETECTOR_ENV_VAR = "REPRO_LOCK_DETECTOR"

ACQUIRED = Instrument("counter", "lock.acquired")
CONFLICTS = Instrument("counter", "lock.conflicts")
RELEASED = Instrument("counter", "lock.released")
UPGRADES = Instrument("counter", "lock.upgrades")
ACQUIRE_SECONDS = Instrument("histogram", "lock.acquire_seconds")
family(ACQUIRED, CONFLICTS, RELEASED, UPGRADES, ACQUIRE_SECONDS)


class LockMode(enum.Enum):
    """Lock strength: shared READ or exclusive WRITE."""

    READ = "read"
    WRITE = "write"


#: The compatibility table, keyed by (held mode, requested mode,
#: relation of requested object to held object).  Relations: "self",
#: "descendant" (requested inside held subtree), "ancestor" (requested
#: above the held object), "unrelated".
COMPATIBILITY: dict[tuple[LockMode, LockMode, str], bool] = {
    # held READ on X:
    (LockMode.READ, LockMode.READ, "self"): True,
    (LockMode.READ, LockMode.READ, "descendant"): True,
    (LockMode.READ, LockMode.READ, "ancestor"): True,
    (LockMode.READ, LockMode.READ, "unrelated"): True,
    (LockMode.READ, LockMode.WRITE, "self"): False,
    (LockMode.READ, LockMode.WRITE, "descendant"): False,
    (LockMode.READ, LockMode.WRITE, "ancestor"): True,
    (LockMode.READ, LockMode.WRITE, "unrelated"): True,
    # held WRITE on X:
    (LockMode.WRITE, LockMode.READ, "self"): False,
    (LockMode.WRITE, LockMode.READ, "descendant"): False,
    (LockMode.WRITE, LockMode.READ, "ancestor"): True,
    (LockMode.WRITE, LockMode.READ, "unrelated"): True,
    (LockMode.WRITE, LockMode.WRITE, "self"): False,
    (LockMode.WRITE, LockMode.WRITE, "descendant"): False,
    (LockMode.WRITE, LockMode.WRITE, "ancestor"): True,
    (LockMode.WRITE, LockMode.WRITE, "unrelated"): True,
}


class LockConflictError(RuntimeError):
    """A lock request conflicted with a lock held by another user."""

    def __init__(
        self, user: str, object_id: str, mode: "LockMode", holder: str,
        held_object: str, held_mode: "LockMode",
    ) -> None:
        super().__init__(
            f"{user} cannot {mode.value}-lock {object_id!r}: {holder} holds "
            f"a {held_mode.value} lock on {held_object!r}"
        )
        self.user = user
        self.object_id = object_id
        self.mode = mode
        self.holder = holder
        self.held_object = held_object
        self.held_mode = held_mode


class LockHierarchyError(LockConflictError):
    """A session locked a child SCI before its ancestor.

    The paper's lock tables assume top-down acquisition (database →
    script → implementation → files); acquiring an ancestor *after* a
    descendant inverts that order and, combined with another session
    doing the opposite, deadlocks.  Raised by the dynamic lock-order
    detector in strict mode; typed (rather than a generic
    ``RuntimeError``) so callers can distinguish a protocol violation
    from an ordinary compatibility conflict.
    """

    def __init__(
        self, user: str, object_id: str, mode: "LockMode",
        held_descendant: str, held_mode: "LockMode",
    ) -> None:
        # Bypass LockConflictError.__init__: the message shape differs
        # (same session on both sides), but the attributes stay parallel.
        RuntimeError.__init__(
            self,
            f"lock-hierarchy violation: {user} acquired ancestor "
            f"{object_id!r} ({mode.value}) while already holding descendant "
            f"{held_descendant!r} ({held_mode.value}); acquire top-down",
        )
        self.user = user
        self.object_id = object_id
        self.mode = mode
        self.holder = user
        self.held_object = held_descendant
        self.held_mode = held_mode


class LockObserver(Protocol):
    """What the lock-order detector (or any tracer) implements."""

    def on_acquire(
        self, user: str, object_id: str, mode: "LockMode", *,
        already_held: bool,
    ) -> None: ...

    def on_release(self, user: str, object_id: str) -> None: ...


class ObjectTree:
    """The container hierarchy the locking rules quantify over."""

    def __init__(self, root: str = "root") -> None:
        self.root = root
        self._parent: dict[str, str] = {}
        self._children: dict[str, list[str]] = {root: []}

    def add(self, object_id: str, parent: str) -> None:
        """Insert ``object_id`` under ``parent`` (which must exist)."""
        if object_id in self._children:
            raise ValueError(f"object {object_id!r} already in the tree")
        if parent not in self._children:
            raise LookupError(f"unknown parent {parent!r}")
        self._parent[object_id] = parent
        self._children[parent].append(object_id)
        self._children[object_id] = []

    def remove(self, object_id: str) -> None:
        """Remove a leaf object from the tree."""
        if object_id == self.root:
            raise ValueError("cannot remove the root")
        if self._children.get(object_id):
            raise ValueError(f"object {object_id!r} still has children")
        parent = self._parent.pop(object_id)
        self._children[parent].remove(object_id)
        del self._children[object_id]

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._children

    def parent(self, object_id: str) -> str | None:
        return self._parent.get(object_id)

    def children(self, object_id: str) -> list[str]:
        return list(self._children.get(object_id, ()))

    def ancestors(self, object_id: str) -> Iterator[str]:
        """Ancestors from the immediate parent up to the root."""
        current = self._parent.get(object_id)
        while current is not None:
            yield current
            current = self._parent.get(current)

    def relation(self, held: str, requested: str) -> str:
        """Relation of ``requested`` to ``held``: self / descendant /
        ancestor / unrelated."""
        if held == requested:
            return "self"
        if held in set(self.ancestors(requested)):
            return "descendant"  # requested lies inside held's subtree
        if requested in set(self.ancestors(held)):
            return "ancestor"
        return "unrelated"


@dataclass(frozen=True, slots=True)
class HeldLock:
    user: str
    object_id: str
    mode: LockMode


@dataclass
class LockStats:
    acquired: int = 0
    conflicts: int = 0
    released: int = 0
    upgrades: int = 0
    by_user: dict[str, int] = field(default_factory=dict)


class LockManager:
    """Grants and releases hierarchical locks per the compatibility table."""

    def __init__(self, tree: ObjectTree) -> None:
        self.tree = tree
        self._locks: dict[str, dict[str, LockMode]] = {}  # object -> user -> mode
        self._held_order: dict[str, list[str]] = {}  # user -> objects, in
        # acquisition order (what the lock-order detector reasons over)
        self._observers: list[LockObserver] = []
        self.stats = LockStats()
        detector_mode = os.environ.get(DETECTOR_ENV_VAR, "").strip().lower()
        if detector_mode in {"1", "on", "true", "strict"}:
            # Imported lazily: core must not depend on the analysis
            # subsystem unless the detector was explicitly opted into.
            from repro.analysis.lockorder import attach_detector

            attach_detector(self, strict=detector_mode == "strict")

    # ------------------------------------------------------------------
    def add_observer(self, observer: LockObserver) -> None:
        """Attach a tracer notified on every grant and release."""
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: LockObserver) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    def try_acquire(self, user: str, object_id: str, mode: LockMode) -> bool:
        """Acquire if compatible; False (and a counted conflict) if not."""
        try:
            self.acquire(user, object_id, mode)
            return True
        except LockConflictError:
            return False

    def acquire(self, user: str, object_id: str, mode: LockMode) -> HeldLock:
        """Acquire or raise :class:`LockConflictError`.

        Reentrant per user; a READ holder may upgrade to WRITE when no
        other user's lock conflicts.
        """
        if not OBS.enabled:
            return self._acquire(user, object_id, mode)
        upgrades_before = self.stats.upgrades
        start = OBS.clock()
        try:
            held = self._acquire(user, object_id, mode)
        except LockConflictError:
            CONFLICTS[()].inc()
            raise
        finally:
            ACQUIRE_SECONDS[()].observe(OBS.clock() - start)
        ACQUIRED[()].inc()
        if self.stats.upgrades != upgrades_before:
            UPGRADES[()].inc()
        return held

    def _acquire(self, user: str, object_id: str, mode: LockMode) -> HeldLock:
        if object_id not in self.tree:
            raise LookupError(f"unknown object {object_id!r}")
        conflict = self._find_conflict(user, object_id, mode)
        if conflict is not None:
            self.stats.conflicts += 1
            held_object, holder, held_mode = conflict
            raise LockConflictError(
                user, object_id, mode, holder, held_object, held_mode
            )
        previous = self._locks.get(object_id, {}).get(user)
        # Observers run before the grant: a strict lock-order detector
        # may veto (raise LockHierarchyError), leaving state untouched.
        for observer in list(self._observers):
            observer.on_acquire(
                user, object_id, mode, already_held=previous is not None
            )
        holders = self._locks.setdefault(object_id, {})
        if previous is LockMode.READ and mode is LockMode.WRITE:
            self.stats.upgrades += 1
        holders[user] = self._stronger(previous, mode)
        if previous is None:
            self._held_order.setdefault(user, []).append(object_id)
        self.stats.acquired += 1
        self.stats.by_user[user] = self.stats.by_user.get(user, 0) + 1
        return HeldLock(user, object_id, holders[user])

    def release(self, user: str, object_id: str) -> bool:
        """Release ``user``'s lock on ``object_id``; False if not held."""
        holders = self._locks.get(object_id)
        if not holders or user not in holders:
            return False
        del holders[user]
        if not holders:
            del self._locks[object_id]
        order = self._held_order.get(user)
        if order is not None:
            order.remove(object_id)
            if not order:
                del self._held_order[user]
        self.stats.released += 1
        if OBS.enabled:
            RELEASED[()].inc()
        for observer in list(self._observers):
            observer.on_release(user, object_id)
        return True

    def release_all(self, user: str) -> int:
        """Release every lock ``user`` holds; returns the count."""
        count = 0
        for object_id in [o for o, h in self._locks.items() if user in h]:
            if self.release(user, object_id):
                count += 1
        return count

    # ------------------------------------------------------------------
    def _find_conflict(
        self, user: str, object_id: str, mode: LockMode
    ) -> tuple[str, str, LockMode] | None:
        """First (held_object, holder, held_mode) that denies the request."""
        for held_object, holders in self._locks.items():
            relation = self.tree.relation(held_object, object_id)
            for holder, held_mode in holders.items():
                if holder == user:
                    continue
                if not COMPATIBILITY[(held_mode, mode, relation)]:
                    return (held_object, holder, held_mode)
        return None

    def can_acquire(self, user: str, object_id: str, mode: LockMode) -> bool:
        """Check without acquiring (no conflict counted)."""
        if object_id not in self.tree:
            raise LookupError(f"unknown object {object_id!r}")
        return self._find_conflict(user, object_id, mode) is None

    # ------------------------------------------------------------------
    def holders(self, object_id: str) -> dict[str, LockMode]:
        return dict(self._locks.get(object_id, {}))

    def held_by(self, user: str) -> tuple[str, ...]:
        """Object ids ``user`` currently holds, in acquisition order.

        The lock-order detector reasons over this sequence; reentrant
        re-acquires and upgrades do not change a lock's position.
        """
        return tuple(self._held_order.get(user, ()))

    def locks_of(self, user: str) -> list[HeldLock]:
        return [
            HeldLock(user, object_id, holders[user])
            for object_id, holders in self._locks.items()
            if user in holders
        ]

    @staticmethod
    def _stronger(a: LockMode | None, b: LockMode) -> LockMode:
        if a is LockMode.WRITE or b is LockMode.WRITE:
            return LockMode.WRITE
        return LockMode.READ
