"""Self-healing of the full m-ary distribution tree.

When a station is confirmed dead its whole subtree is orphaned: the
paper's forwarding scheme only ever talks parent-to-child, so every
descendant silently stops receiving.  The repair is the paper's own
machinery run backwards: remove the dead stations from the broadcast
vector (later members shift forward, preserving the linear join order),
and the closed-form child/parent formulas of
:mod:`repro.distribution.mtree` re-derive every parent for free — no
pointer surgery, no coordination protocol.  The
:class:`RepairReport` records exactly which survivors changed parents
(the stations the recovery layer must re-feed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.distribution.mtree import MAryTree
from repro.distribution.vector import BroadcastVector
from repro.obs.instrument import OBS, Instrument
from repro.util.validation import check_positive

__all__ = ["Reparenting", "RepairReport", "TreeRepairer"]

REPAIRS = Instrument("counter", "fault.repairs")


@dataclass(frozen=True, slots=True)
class Reparenting:
    """One surviving station whose parent changed during a repair."""

    station: str
    old_parent: str | None
    new_parent: str | None


@dataclass
class RepairReport:
    """Outcome of one tree repair."""

    time: float
    #: dead stations actually removed, with their old 1-based positions
    removed: dict[str, int] = field(default_factory=dict)
    #: survivors that sat below a dead station in the old tree
    orphaned: list[str] = field(default_factory=list)
    #: survivors whose parent differs between the old and new tree
    reparented: list[Reparenting] = field(default_factory=list)
    #: the repaired tree (None when the vector emptied out)
    tree: MAryTree | None = None

    @property
    def survivor_count(self) -> int:
        return 0 if self.tree is None else self.tree.n


class TreeRepairer:
    """Removes confirmed-dead stations and re-derives the m-ary tree.

    One repairer serves one broadcast vector; ``m`` is the arity the
    repaired trees are derived with (usually the arity the interrupted
    broadcast was using).
    """

    def __init__(self, vector: BroadcastVector, m: int) -> None:
        check_positive(m, "m")
        self.vector = vector
        self.m = int(m)
        self.repairs: list[RepairReport] = []

    def repair(self, dead: Iterable[str]) -> RepairReport:
        """Drop ``dead`` members from the vector; return what changed.

        Stations not currently in the vector are ignored (they may have
        been removed by an earlier repair).  Idempotent: repairing an
        empty or already-removed set returns a no-op report with the
        current tree.
        """
        now = self.vector.network.sim.now
        report = RepairReport(time=now)
        members = set(self.vector.members())
        # dict.fromkeys: drop duplicate names while keeping first-seen order
        to_remove = [s for s in dict.fromkeys(dead) if s in members]

        old_tree = self.vector.tree(self.m) if len(self.vector) else None
        if old_tree is not None and to_remove:
            dead_set = set(to_remove)
            orphans: set[str] = set()
            for station in to_remove:
                position = self.vector.position_of(station)
                report.removed[station] = position
                for node in old_tree.subtree(position):
                    name = old_tree.name_of(node)
                    if name not in dead_set:
                        orphans.add(name)
            report.orphaned = sorted(
                orphans, key=self.vector.position_of
            )
            for station in to_remove:
                self.vector.leave(station)

        if len(self.vector):
            report.tree = self.vector.tree(self.m)
        if old_tree is not None and report.tree is not None:
            for name in report.tree.names:
                old_parent = (
                    old_tree.parent_name(name) if name in old_tree else None
                )
                new_parent = report.tree.parent_name(name)
                if old_parent != new_parent:
                    report.reparented.append(Reparenting(
                        station=name,
                        old_parent=old_parent,
                        new_parent=new_parent,
                    ))
        self.repairs.append(report)
        if OBS.enabled:
            REPAIRS[()].inc()
        return report

    # ------------------------------------------------------------------
    # Invariant checks (used by tests and recovery assertions)
    # ------------------------------------------------------------------
    @staticmethod
    def verify_tree(tree: MAryTree) -> None:
        """Assert the paper's structural invariants on a repaired tree.

        Every edge must satisfy the mutual-inverse child/parent formulas,
        every station must reach the root (connected), and parents must
        strictly precede children in the linear order (acyclic).  Raises
        ``AssertionError`` with a precise message on violation.
        """
        from repro.distribution.mtree import child_position, parent_position

        for k in range(2, tree.n + 1):
            parent = parent_position(k, tree.m)
            assert 1 <= parent < k, (
                f"parent of {k} is {parent}, not strictly earlier"
            )
            children = [
                child_position(parent, i, tree.m)
                for i in range(1, tree.m + 1)
            ]
            assert k in children, (
                f"{k} is not among its parent {parent}'s children {children}"
            )
        for k in range(1, tree.n + 1):
            path = tree.path_to_root(k)
            assert path[-1] == 1, f"{k} does not reach the root: {path}"
            assert len(set(path)) == len(path), f"cycle on path {path}"
