"""The crash audit: acknowledged ⇒ durable, checked on a torn image.

Killing the process would leave the operating system's cache intact, so
the audit discards what was not flushed itself: it copies the data
directory, cuts the journal copy back to the length the injected fsync
hook recorded at the last sync before a seeded cut point, appends a torn
partial frame (the crash caught the next append half-way), restarts a
fresh server on the copy and compares every administration table with
the oracle's model replayed up to the cut.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.rdb.wal import MAGIC
from repro.tiers.protocol import Request
from repro.tiers.server import ClassAdministrator

from benchmarks.e22.dataset import TierModel, TierPlan, server_rows

__all__ = ["AuditResult", "crash_audit", "user_bytes"]

WAL_NAME = "class_admin.wal"
#: Shorter than a frame header, so it can only parse as a torn tail.
TORN_BYTES = 11
#: Writes on each side of the cut that are also read back through tier ops.
READ_BACK = 50


@dataclass(frozen=True)
class AuditResult:
    """What the restart from the crash image showed."""

    cut: int  # acknowledged writes kept (those at index < cut)
    recover_s: float
    records_recovered: int
    acked_lost: int  # acknowledged before the cut, missing after restart
    phantoms: int  # rows from after the cut that are visible
    readback_wrong: int  # tier-op read-backs that disagree with the model

    @property
    def clean(self) -> bool:
        return not (self.acked_lost or self.phantoms or self.readback_wrong)


def user_bytes(params: dict[str, Any]) -> int:
    """Bytes of user-supplied parameter values in one write."""
    total = 0
    for value in params.values():
        if isinstance(value, (list, tuple)):
            total += sum(len(str(item)) for item in value)
        else:
            total += len(str(value))
    return total


def _replay(plan: TierPlan, writes: list[Any]) -> TierModel:
    model = TierModel(plan)
    for op in writes:
        # _expect_* applies the write; the reply it returns is not needed.
        getattr(model, f"_expect_{op.name}")(op.user, op.params)
    return model


def crash_audit(
    plan: TierPlan,
    data_dir: Path,
    acked: list[tuple[Any, int]],
    sync_lengths: list[int],
    rng: random.Random,
    scratch: Path,
) -> AuditResult:
    """Crash at a seeded point among ``acked`` and audit the restart.

    ``acked`` pairs each acknowledged write with the number of fsyncs
    that had completed when its reply arrived; ``sync_lengths[i]`` is
    the journal length after fsync ``i``.  The crash keeps the first
    ``cut`` acknowledged writes and catches the next append half-way.
    """
    if not acked:
        raise ValueError("crash audit needs at least one acknowledged write")
    cut = rng.randrange(len(acked) // 2, len(acked)) or 1
    durable = sync_lengths[acked[cut - 1][1] - 1]
    image = scratch / "crash-image"
    shutil.rmtree(image, ignore_errors=True)
    shutil.copytree(data_dir, image)
    wal = image / WAL_NAME
    original = wal.read_bytes()
    torn = original[durable:durable + TORN_BYTES] or MAGIC + b"\x07"
    wal.write_bytes(original[:durable] + torn)

    started = time.perf_counter()
    restarted = ClassAdministrator(data_dir=image, sync_policy="none")
    recover_s = time.perf_counter() - started
    try:
        kept = [op for op, _ in acked[:cut]]
        dropped = [op for op, _ in acked[cut:]]
        expected = _replay(plan, kept).table_rows()
        found = server_rows(restarted)
        kept_stations = {
            op.user: op for op in kept if op.name == "register_station"
        }
        # A station registered twice shows only its last registration.
        visible = [
            op for op in kept
            if op.name != "register_station" or kept_stations[op.user] is op
        ]
        hidden = [
            op for op in dropped
            if op.name != "register_station" or op.user not in kept_stations
        ]
        wrong = _read_back(restarted, visible[-READ_BACK:], present=True)
        wrong += _read_back(restarted, hidden[:READ_BACK], present=False)
        stats = restarted.recovery_stats
        return AuditResult(
            cut=cut,
            recover_s=recover_s,
            records_recovered=stats.records_recovered if stats else 0,
            acked_lost=sum(len(expected[t] - found[t]) for t in expected),
            phantoms=sum(len(found[t] - expected[t]) for t in expected),
            readback_wrong=wrong,
        )
    finally:
        if restarted.journal is not None:
            restarted.journal.close()
        shutil.rmtree(image, ignore_errors=True)


def _read_back(
    server: ClassAdministrator, writes: list[Any], *, present: bool
) -> int:
    """Ask the restarted server, through tier ops, whether each write is
    visible; returns how many answers differ from ``present``."""
    login = server.handle(Request(
        "login", None, {"user": "auditor", "role": "administrator"}
    ))
    session = login.unwrap()["session_id"]

    def ask(op: str, **params: Any) -> Any:
        return server.handle(Request(op, session, params)).unwrap()

    wrong = 0
    for op in writes:
        p = op.params
        if op.name == "admit_student":
            reply = server.handle(Request(
                "login", None, {"user": p["student_id"], "role": "student"}
            ))
            visible = reply.ok
        elif op.name == "enroll":
            visible = p["student_id"] in ask(
                "roster", course_number=p["course_number"]
            )
        elif op.name == "record_grade":
            visible = any(
                row["course_number"] == p["course_number"]
                and row["grade"] == float(p["grade"])
                for row in ask("transcript", student_id=p["student_id"])
            )
        elif op.name == "publish_course_document":
            visible = any(
                hit["doc_id"] == p["doc_id"]
                for hit in ask("search_library", course=p["course_number"])
            )
        else:  # register_station has no tier read; ask the connection
            rows = server.connection.cursor().select("stations").fetchall()
            visible = any(
                row["user_id"] == op.user and row["station"] == p["station"]
                and row["address"] == p["address"]
                for row in rows
            )
        wrong += visible != present
    return wrong
