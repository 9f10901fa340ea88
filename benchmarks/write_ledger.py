#!/usr/bin/env python3
"""What a written row costs: the write-path ledger behind DESIGN §6.

Loads an in-memory class administrator's own tables (students,
courses, enrollments, stations) and takes the single-row statements apart
per op kind, then the two write ops E22's tier sends by primary key:

* ``insert`` — ``enroll``: a two-column primary key and two foreign keys;
* ``update`` — a station changed by ``update(where=user_id == …)``;
* ``delete`` — an enrollment dropped by ``delete(where=…)``;
* ``update_pk`` — ``register_station`` on a user who has a station: the
  tier op, whose one statement is ``update_pk``;
* ``record_grade`` — the tier op: two keyed probes (``get`` on the
  course, then on the enrollment) and the transcript ``insert``.

**µs per stage** calls each piece the statement is made of directly,
over the same rows, in the order the engine runs them (validate →
not-null/CHECK → unique probe → FK probe → triggers → heap + index
maintenance → undo record → journal encode → ``_write``); the statement
itself is then timed whole, through ``Database``, against a journal
whose fsync hook does nothing, and what the stages do not add up to is
the statement scope and the glue between them (for a tier op, the op's
own code too).  The modelled flush is E22's constant.  Timings are
reported, never gated.

**Calls per statement** counts Python-level function calls (``call``
events under ``sys.setprofile``; generator resumptions count, C
functions do not) for one single-row statement or tier op.  The count
repeats exactly, so ``--check`` (the CI ``benchmark-smoke`` step, with
``--smoke``) fails when a kind exceeds :data:`COMMITTED_CALLS` by more
than 10 % — a tier op that went back to a planned select would.

Usage:  python benchmarks/write_ledger.py [--smoke] [--json PATH] [--check]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # for benchmarks.e22, which adds src/ itself
#: ``--check`` ceiling: Python-level calls per single-row statement or
#: tier op, any table size.  With its probes as cached selects
#: ``record_grade`` made 112 calls when both hit the result cache, 226
#: when both missed (181 at full size: the course hits, the enrollment
#: misses); ``register_station`` (a select, then ``update(where=…)``)
#: 153-156.  A planner that checks every WHERE column and describes
#: only the path it chose moved ``update`` 89 → 92 and ``delete`` 115 →
#: 113.  Lower a figure when a change takes calls off.
COMMITTED_CALLS = {
    "insert": 51, "update": 92, "delete": 113, "update_pk": 55,
    "record_grade": 77,
}
CHECK_SLACK = 0.10
ROUNDS = 5
#: The kinds that run a tier op's handler, and the op.
TIER_OPS = {"update_pk": "register_station", "record_grade": "record_grade"}
KINDS = ("insert", "update", "delete", *TIER_OPS)


def _per_call_us(run: Callable[[], None], calls: int) -> float:
    started = time.perf_counter()
    run()
    return (time.perf_counter() - started) / calls * 1e6


def _best(stage: Callable[[], None], calls: int,
          reset: Callable[[], None] | None = None) -> float:
    """Fastest of :data:`ROUNDS` timed passes (``reset`` runs untimed
    after each, putting back what a mutating stage changed)."""
    readings = []
    for _ in range(ROUNDS):
        readings.append(_per_call_us(stage, calls))
        if reset is not None:
            reset()
    return min(readings)


def over(items: list[Any], fn: Callable[..., Any]) -> Callable[[], None]:
    """A pass calling ``fn(*item)`` for every item."""
    def run() -> None:
        for item in items:
            fn(*item)
    return run


class Fixture:
    """The loaded tables, a journal that never reaches a device, and the
    statements of each kind (fresh keys for inserts, loaded ones for
    updates and deletes)."""

    def __init__(self, students: int, scratch: Path) -> None:
        from repro.rdb import col
        from repro.rdb.wal import Journal, SyncPolicy
        from repro.tiers import ClassAdministrator, Request, Role

        self.col = col
        self.admin = ClassAdministrator()
        self.db = db = self.admin.admin_db
        ids = [f"s{n:05d}" for n in range(students)]
        courses = [f"c{n:03d}" for n in range(40)]
        db.insert_many("students", [{"student_id": s, "name": s} for s in ids])
        db.insert_many("courses", [
            {"course_number": c, "title": c, "instructor": "shih"} for c in courses
        ])
        db.insert_many("enrollments", [
            {"student_id": s, "course_number": courses[(n + k) % 40]}
            for n, s in enumerate(ids) for k in range(3)
        ])
        db.insert_many("stations", [
            {"user_id": s, "station": "ws-0", "address": "10.0.0.1"} for s in ids
        ])
        self.journal = Journal(
            scratch / "ledger.wal",
            sync=SyncPolicy(mode="commit", fsync=lambda fd: None),
        )
        db.attach_journal(self.journal)
        self.fresh = [
            {"student_id": s, "course_number": courses[(n + 7) % 40]}
            for n, s in enumerate(ids)
        ]
        self.station_changes = [
            (s, {"station": f"ws-{n}", "address": "10.0.0.2"})
            for n, s in enumerate(ids)
        ]
        self.loaded = [
            {"student_id": s, "course_number": courses[n % 40]}
            for n, s in enumerate(ids)
        ]
        # The tier ops' arguments, as dispatch hands them to a handler.
        self.requests = {
            "update_pk": [
                (Request("register_station", None, c), u, Role.STUDENT)
                for u, c in self.station_changes
            ],
            "record_grade": [
                (Request("record_grade", None, {**v, "grade": 3.0}), "shih",
                 Role.INSTRUCTOR)
                for v in self.loaded
            ],
        }

    def statements(self, kind: str) -> list[Callable[[], Any]]:
        db, col = self.db, self.col
        if kind == "insert":
            return [lambda v=v: db.insert("enrollments", v) for v in self.fresh]
        if kind == "update":
            return [
                lambda u=u, c=c: db.update("stations", c, where=col("user_id") == u)
                for u, c in self.station_changes
            ]
        if kind in TIER_OPS:
            op = getattr(self.admin, self.admin._HANDLERS[TIER_OPS[kind]])
            return [lambda r=r: op(*r) for r in self.requests[kind]]
        return [
            lambda v=v: db.delete(
                "enrollments",
                where=(col("student_id") == v["student_id"])
                & (col("course_number") == v["course_number"]),
            )
            for v in self.loaded
        ]

    def undo(self, kind: str) -> None:
        """Put the tables back as loaded after a pass of ``kind``."""
        db = self.db
        if kind == "insert":
            for v in self.fresh:
                db.delete_pk("enrollments", (v["student_id"], v["course_number"]))
        elif kind in ("update", "update_pk"):
            db.update("stations", {"station": "ws-0", "address": "10.0.0.1"})
        elif kind == "record_grade":
            db.delete("transcripts")
        else:
            db.insert_many("enrollments", [
                v for v in self.loaded
                if not db.exists("enrollments", (v["student_id"], v["course_number"]))
            ])


def stage_table(fx: Fixture, kind: str) -> list[tuple[str, float]]:
    """``(stage, µs per row)`` for one op kind, engine order; the
    ``update_pk`` op finds its row by key, then runs an update's stages."""
    if kind == "record_grade":
        return grade_stages(fx)
    from repro.rdb.query import target_rowids
    from repro.rdb.transaction import UndoRecord
    from repro.rdb.triggers import TriggerEvent, TriggerTiming
    from repro.rdb.wal import _frame, encode_row

    db, col = fx.db, fx.col
    checker, triggers, txn = db._checker, db._triggers, db._txn
    keyed, kind = kind == "update_pk", "update" if kind == "update_pk" else kind
    event = TriggerEvent(kind)
    name = "stations" if kind == "update" else "enrollments"
    table = db.table(name)
    schema = table.schema
    out: list[tuple[str, float]] = []

    def add(label: str, stage: Callable[[], None], calls: int,
            reset: Callable[[], None] | None = None) -> None:
        out.append((label, _best(stage, calls, reset)))

    if kind == "insert":
        values = [(v,) for v in fx.fresh]
        rows = [(table, schema.normalize_row(v)) for v in fx.fresh]
        old_new = [(None, row) for _t, row in rows]
        add("validate (normalize_row)", over(values, schema.normalize_row), len(rows))
    elif keyed:
        keys = [((u,),) for u, _c in fx.station_changes]
        add("find target (primary key)", over(keys, table.rowid_for_pk), len(keys))
        rowids = [table.rowid_for_pk(*k) for k in keys]
        olds = [table.get(rid) for rid in rowids]
    else:
        if kind == "update":
            wheres = [(table, col("user_id") == u) for u, _c in fx.station_changes]
        else:
            wheres = [
                (table, (col("student_id") == v["student_id"])
                 & (col("course_number") == v["course_number"]))
                for v in fx.loaded
            ]
        add("select targets (planner)", over(wheres, target_rowids), len(wheres))
        rowids = [target_rowids(*w)[0] for w in wheres]
        olds = [table.get(rid) for rid in rowids]
    if kind == "update":
        changes = [(c,) for _u, c in fx.station_changes]
        add("validate (changes)", over(changes, schema.normalize_changes), len(changes))
        news = [{**old, **c} for old, (c,) in zip(olds, changes)]
        rows = [(table, new) for new in news]
        old_new = list(zip(olds, news))
    elif kind == "delete":
        old_new = [(old, None) for old in olds]
    if kind != "delete":
        add("not-null + CHECK", over(
            rows, lambda t, r: (checker.check_not_null(t, r), checker.check_checks(t, r))
        ), len(rows))
        if kind == "insert":
            add("unique probe", over(rows, checker.check_unique), len(rows))
        else:
            probes = [(table, new, rid) for new, rid in zip(news, rowids)]
            add("unique probe", over(
                probes, lambda t, r, rid: checker.check_unique(t, r, ignore_rowid=rid)
            ), len(rows))
        add("FK probe (parents)", over(rows, checker.check_foreign_keys), len(rows))
    else:
        add("FK probe (children)", over(
            [(name, old) for old in olds], checker.referencing_children
        ), len(olds))
    add("triggers (before + after)", over(old_new, lambda old, new: (
        triggers.fire(name, event, TriggerTiming.BEFORE, old, new),
        triggers.fire(name, event, TriggerTiming.AFTER, old, new),
    )), len(old_new))
    # The raw mutation, put back untimed after each pass.
    if kind == "insert":
        made: list[int] = []
        add("heap + index maintenance",
            lambda: made.extend(table.apply_insert(r) for _t, r in rows), len(rows),
            lambda: [table.apply_delete(made.pop()) for _ in range(len(made))])
        undo_args = [("insert", table, n, None) for n in range(len(rows))]
    elif kind == "update":
        add("heap + index maintenance", over(
            list(zip(rowids, news)), table.apply_update
        ), len(rows), over(list(zip(rowids, olds)), table.apply_update))
        undo_args = [("update", table, rid, old) for rid, old in zip(rowids, olds)]
    else:
        add("heap + index maintenance", over([(r,) for r in rowids], table.apply_delete),
            len(rowids), over(list(zip(rowids, olds)), table.apply_restore))
        undo_args = [("delete", table, rid, old) for rid, old in zip(rowids, olds)]
    active = txn.begin()
    add("undo record", over(undo_args, lambda k, t, rid, old: txn.record(
        UndoRecord(k, t, rid, dict(old) if old is not None else None)
    )), len(undo_args), active.undo_log.clear)
    active.undo_log.clear()
    txn.rollback()
    # Journal: the op as the engine buffers it, then append = encode +
    # frame + _write; _write alone is timed with the frame prebuilt.
    pk_of = schema.primary_key_of
    if kind == "insert":
        build = [(lambda r=r: ["insert", name, encode_row(r)]) for _t, r in rows]
    elif kind == "update":
        build = [
            (lambda o=old, c=c: ["update", name, list(pk_of(o)), encode_row(c)])
            for old, (c,) in zip(olds, changes)
        ]
    else:
        build = [(lambda o=old: ["delete", name, list(pk_of(o))]) for old in olds]
    journal = fx.journal
    add("journal encode (op + frame)", over(
        [(b,) for b in build], lambda b: journal.append(1, [b()])
    ), len(build))
    frames = [_frame(0, json.dumps({"txn": 1, "ops": [b()]}).encode()) for b in build]
    write_us = _best(over(
        [(f,) for f in frames], lambda f: journal._write(journal.last_lsn + 1, f)
    ), len(frames))
    out[-1] = (out[-1][0], max(0.0, out[-1][1] - write_us))
    out.append(("_write (write + flush)", write_us))
    return out


def grade_stages(fx: Fixture) -> list[tuple[str, float]]:
    """``record_grade``'s three statements, each timed whole."""
    db = fx.db
    grades = [r[0].params for r in fx.requests["record_grade"]]
    return [
        ("get course (instructor check)", _best(over(
            [("courses", (g["course_number"],)) for g in grades], db.get
        ), len(grades))),
        ("get enrollment", _best(over(
            [("enrollments", (g["student_id"], g["course_number"]))
             for g in grades], db.get
        ), len(grades))),
        ("insert transcript (statement)", _best(over(
            [("transcripts", g) for g in grades], db.insert
        ), len(grades), lambda: db.delete("transcripts"))),
    ]


def statement_us(fx: Fixture, kind: str) -> float:
    statements = fx.statements(kind)

    def run() -> None:
        for statement in statements:
            statement()

    return _best(run, len(statements), lambda: fx.undo(kind))


def calls_per_statement(fx: Fixture, kind: str, sample: int = 20) -> float:
    """Python-level calls one statement makes (the sample's mean; it is
    the same integer for every statement of a kind)."""
    statements = fx.statements(kind)[:sample]
    for statement in fx.statements(kind)[sample:sample + 3]:
        statement()  # the compiled-filter store has seen the shape
    count = 0

    def profiler(_frame: Any, event: str, _arg: Any) -> None:
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        for statement in statements:
            statement()
    finally:
        sys.setprofile(None)
    fx.undo(kind)
    # Each lambda wrapping a statement is itself one call.
    return count / len(statements) - 1


def report(ledger: dict[str, Any]) -> str:
    lines = []
    for kind, entry in ledger["kinds"].items():
        lines.append(
            f"{kind}: {entry['statement_us']:.1f} us per statement + "
            f"{ledger['modelled_flush_us']:.0f} us modelled flush, "
            f"{entry['calls']:g} Python-level calls"
        )
        for label, micros in entry["stages"]:
            lines.append(f"  {label:<34}{micros:>8.2f}")
        lines.append(f"  {'statement scope + glue':<34}{entry['glue_us']:>8.2f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="300 students instead of 3,000")
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument("--check", action="store_true",
                        help="fail on calls per statement over the committed "
                             "figure by more than 10 %%")
    args = parser.parse_args(argv)
    from benchmarks.e22.harness import FSYNC_MODEL_S

    ledger: dict[str, Any] = {
        "students": 300 if args.smoke else 3000,
        "modelled_flush_us": FSYNC_MODEL_S * 1e6, "kinds": {},
    }
    with tempfile.TemporaryDirectory(prefix="write-ledger-") as scratch:
        fx = Fixture(ledger["students"], Path(scratch))
        for kind in KINDS:
            stages = stage_table(fx, kind)
            whole = statement_us(fx, kind)
            ledger["kinds"][kind] = {
                "stages": stages, "statement_us": whole,
                "glue_us": whole - sum(us for _label, us in stages),
                "calls": calls_per_statement(fx, kind),
            }
        fx.journal.close()
    print(report(ledger))
    if args.json is not None:
        args.json.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    if not args.check:
        return 0
    status = 0
    for kind, entry in ledger["kinds"].items():
        ceiling = COMMITTED_CALLS[kind] * (1 + CHECK_SLACK)
        if entry["calls"] > ceiling:
            print(f"FAIL {kind}: {entry['calls']:g} calls per statement > "
                  f"{ceiling:g} (committed figure + {CHECK_SLACK:.0%})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
