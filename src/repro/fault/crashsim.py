"""The crash-matrix kit: failpoints, a ledgered workload, one sweep driver.

Where the rest of :mod:`repro.fault` kills *stations* mid-broadcast,
this module kills a *storage engine* mid-write.  The contract is two
sentences: **100 % of what was acknowledged before the crash is
recovered, and recovery is not impacted by the exact time of the
failure** — so every matrix cuts a write stream at every frame boundary
and every ``stride``-th byte and makes the same assertions at each.

* :class:`FailpointFile` kills a live write stream at an exact byte;
* :class:`CrashWorkload` is the deterministic workload plus its ack
  ledger, :func:`crash_ddl` its secondary indexes, :func:`audit` the
  state-equality + :func:`verify_database` check on what recovers;
* :func:`run_scenario` is the one sweep loop; a scenario names its
  :class:`CutStream` s and judges one :class:`CrashCase`.  The
  single-engine scenario (E17, the **committed-prefix guarantee**) is
  :func:`run_crash_matrix`; the follower (E18) and 2PC (E20) scenarios
  live beside the systems they crash, in
  :mod:`repro.replication.chaos` and :mod:`repro.sharding.crash2pc`.

Everything is seeded and offset-driven — a failing ``(stream, offset)``
is a one-line reproduction.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NamedTuple

from repro.rdb import (
    Action,
    Column,
    ColumnType,
    Database,
    ForeignKey,
    JournalCorruptError,
    Schema,
)
from repro.rdb.index import HashIndex, SortedIndex
from repro.rdb.wal import Journal, read_frames
from repro.util.rng import make_rng

__all__ = [
    "SimulatedCrashError",
    "FailpointFile",
    "CRASH_SCHEMAS",
    "AckedTxn",
    "CrashWorkload",
    "CutStream",
    "CrashCase",
    "CrashReport",
    "crash_ddl",
    "build_crash_db",
    "run_crash_workload",
    "recover_crash_db",
    "verify_database",
    "posting_problems",
    "audit",
    "database_state",
    "crash_points",
    "frame_boundaries",
    "run_scenario",
    "run_crash_matrix",
    "iter_live_crashes",
]

T = ColumnType

#: ``{table: {pk: row}}`` — what :func:`database_state` returns
State = dict[str, dict[tuple, dict[str, Any]]]

#: Parent table with a unique secondary key and extra indexed columns.
DOCS = Schema(
    name="crash_docs",
    columns=(
        Column("doc_id", T.INT, nullable=False),
        Column("title", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False, default=1),
        Column("body", T.TEXT),
    ),
    primary_key=("doc_id",),
    unique=(("title",),),
)

#: Child table whose FK cascades on delete.  The workload only ever
#: points a ref at the doc inserted in the *same* transaction, so
#: salvage-skipping any single journal record can never strand a ref.
REFS = Schema(
    name="crash_refs",
    columns=(
        Column("ref_id", T.INT, nullable=False),
        Column("doc_id", T.INT),
        Column("anchor", T.TEXT, nullable=False, default=""),
    ),
    primary_key=("ref_id",),
    foreign_keys=(
        ForeignKey(("doc_id",), "crash_docs", ("doc_id",),
                   on_delete=Action.CASCADE),
    ),
)

CRASH_SCHEMAS = (DOCS, REFS)


def crash_ddl(db: Database) -> None:
    """The workload's secondary indexes — issued at build time and
    re-issued (backfilling from rows) by every recovery path."""
    db.create_hash_index("crash_docs", "docs_by_version", ("version",))
    db.create_sorted_index("crash_docs", "docs_by_id", "doc_id")
    db.create_sorted_index("crash_refs", "refs_by_id", "ref_id")


class SimulatedCrashError(RuntimeError):
    """Raised by :class:`FailpointFile` when its armed failpoint fires."""


class FailpointFile:
    """A binary file wrapper that kills the write stream at a byte offset.

    Counts cumulative bytes ever written to the underlying file (its
    size at wrap time plus everything written through the wrapper).
    Once a write would carry the total past ``crash_at``:

    * ``truncate`` mode writes only the prefix that fits, flushes it,
      and raises :class:`SimulatedCrashError` — the classic torn write;
    * ``garble`` mode additionally writes the byte *at* the failpoint
      with one bit flipped first — a misdirected/corrupted sector.

    Every later write also raises, mimicking a dead process.  Reads are
    not intercepted; recovery reopens the path with a plain file.
    """

    def __init__(
        self, fh: BinaryIO, crash_at: int, *, mode: str = "truncate"
    ) -> None:
        if mode not in ("truncate", "garble"):
            raise ValueError(f"unknown failpoint mode {mode!r}")
        if crash_at < 0:
            raise ValueError("crash_at must be >= 0")
        self._fh = fh
        self.crash_at = crash_at
        self.mode = mode
        self.crashed = False
        self.written = os.fstat(fh.fileno()).st_size

    def write(self, data: bytes) -> int:
        """Write ``data``, or die at the failpoint."""
        if self.crashed:
            raise SimulatedCrashError(
                f"write after crash at byte {self.crash_at}"
            )
        remaining = self.crash_at - self.written
        if len(data) <= remaining:
            self._fh.write(data)
            self.written += len(data)
            return len(data)
        prefix = bytes(data[:remaining])
        if self.mode == "garble" and remaining < len(data):
            prefix += bytes([data[remaining] ^ 0x40])
        self._fh.write(prefix)
        self._fh.flush()
        self.written += len(prefix)
        self.crashed = True
        raise SimulatedCrashError(f"failpoint fired at byte {self.crash_at}")

    def flush(self) -> None:
        """Flush the intact prefix."""
        self._fh.flush()

    def fileno(self) -> int:
        """Underlying descriptor (lets fsync-based sync policies work)."""
        return self._fh.fileno()

    def tell(self) -> int:
        """Position in the underlying file."""
        return self._fh.tell()

    def close(self) -> None:
        """Close the underlying file."""
        self._fh.close()

    @property
    def closed(self) -> bool:
        """Whether the underlying file is closed."""
        return self._fh.closed


# ---------------------------------------------------------------------------
# Workload and ack ledger
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AckedTxn:
    """One acknowledged transaction: its LSN, durable byte extent in the
    journal, and the full expected database state right after it."""

    lsn: int
    start_offset: int
    end_offset: int
    state: State


def build_crash_db(name: str = "crashdb",
                   journal: Journal | None = None) -> Database:
    """A database over :data:`CRASH_SCHEMAS` with :func:`crash_ddl`
    applied, journaling to ``journal`` when one is given."""
    db = Database(name)
    for schema in CRASH_SCHEMAS:
        db.create_table(schema)
    crash_ddl(db)
    if journal is not None:
        db.attach_journal(journal)
    return db


def database_state(db: Database) -> State:
    """``{table: {pk: row}}`` deep-enough copy for state comparison."""
    state: State = {}
    for name in db.table_names():
        table = db.table(name)
        state[name] = {
            table.schema.primary_key_of(row): dict(row)
            for row in table.rows()
        }
    return state


def apply_workload_txn(db: Database, k: int, rng: Any) -> None:
    """Apply transaction ``k`` of the deterministic mixed workload.

    Each transaction inserts one doc (variable-size body so record sizes
    vary), usually a ref pointing at *that* doc, and sometimes updates
    or cascade-deletes an earlier doc.
    """
    with db.transaction():
        db.insert("crash_docs", {
            "doc_id": k,
            "title": f"doc-{k:05d}",
            "version": 1,
            "body": "x" * int(rng.integers(0, 120)),
        })
        if rng.random() < 0.7:
            db.insert("crash_refs", {
                "ref_id": k, "doc_id": k, "anchor": f"a{k}",
            })
        alive = [row["doc_id"] for row in db.select("crash_docs")]
        if len(alive) > 3 and rng.random() < 0.4:
            victim = alive[int(rng.integers(0, len(alive) - 1))]
            if rng.random() < 0.5:
                db.update_pk("crash_docs", victim, {
                    "version": int(rng.integers(2, 9)),
                })
            else:
                db.delete_pk("crash_docs", victim)


class CrashWorkload:
    """The deterministic workload on a fresh database journaling to
    ``journal_path`` under ``sync=commit``, and the ledger of what it
    acknowledged.

    Acked ⇒ durable, so ``acks`` is the ground truth every matrix
    judges a recovery against — by byte offset (:meth:`state_at`) on
    the workload's own journal, by LSN (:meth:`state_at_lsn`) on a
    follower's.
    """

    def __init__(
        self, journal_path: str | Path, *, seed: int = 0,
        name: str = "crashdb",
        file_wrapper: Callable[[BinaryIO], Any] | None = None,
    ) -> None:
        self.journal = Journal(journal_path, sync="commit",
                               file_wrapper=file_wrapper)
        self.journal_path = self.journal.path
        self.db = build_crash_db(name, journal=self.journal)
        self.rng = make_rng(seed, "crashsim-workload")
        self.acks: list[AckedTxn] = []
        self._initial = database_state(self.db)

    @property
    def data(self) -> bytes:
        """The journal's bytes as they are on disk right now."""
        return self.journal_path.read_bytes()

    def run(self, txns: int) -> None:
        """Apply the next ``txns`` transactions, ledgering each ack.  A
        crash propagates; ``acks`` then holds exactly what was
        acknowledged before it."""
        for _ in range(txns):
            start = self.journal.tell()
            apply_workload_txn(self.db, len(self.acks) + 1, self.rng)
            self.acks.append(AckedTxn(
                lsn=self.journal.last_lsn,
                start_offset=start,
                end_offset=self.journal.tell(),
                state=database_state(self.db),
            ))

    def state_at(self, offset: int) -> State:
        """Expected state after crashing at byte ``offset``: the state of
        the last transaction fully durable at or before it."""
        state = self._initial
        for ack in self.acks:
            if ack.end_offset <= offset:
                state = ack.state
        return state

    def state_at_lsn(self, lsn: int) -> State | None:
        """Acked state exactly at ``lsn`` (0 = before the first
        transaction); None when no transaction was acked at that LSN."""
        if lsn == 0:
            return self._initial
        return next((a.state for a in self.acks if a.lsn == lsn), None)

    def damaged_ack(self, offset: int) -> AckedTxn | None:
        """The transaction whose journal record covers byte ``offset``."""
        for ack in self.acks:
            if ack.start_offset <= offset < ack.end_offset:
                return ack
        return None


def run_crash_workload(
    workdir: str | Path, *, txns: int = 40, seed: int = 0
) -> CrashWorkload:
    """Run the golden workload into ``workdir/golden.wal``, close the
    journal, return the ledger."""
    workload = CrashWorkload(Path(workdir) / "golden.wal", seed=seed)
    workload.run(txns)
    workload.journal.close()
    return workload


def recover_crash_db(
    journal_path: str | Path, *, salvage: bool = False
) -> Database:
    """Recover a workload database from ``journal_path`` and re-issue
    :func:`crash_ddl`."""
    db = Database.recover(
        "crashdb", CRASH_SCHEMAS, journal_path=str(journal_path),
        salvage=salvage,
    )
    crash_ddl(db)
    return db


# ---------------------------------------------------------------------------
# Recovery verifier
# ---------------------------------------------------------------------------
def verify_database(db: Database) -> list[str]:
    """Exhaustively check every integrity invariant of ``db``.

    Returns a list of human-readable violations (empty ⇒ consistent):
    duplicate primary keys, unique-constraint breaks, dangling foreign
    keys, hash/sorted secondary indexes that disagree with the heap, and
    postings out of shape (:func:`posting_problems`).
    """
    problems: list[str] = []
    for name in db.table_names():
        table = db.table(name)
        schema = table.schema
        rows = list(table.items())
        seen_pks: set[tuple] = set()
        for _rowid, row in rows:
            pk = schema.primary_key_of(row)
            if pk in seen_pks:
                problems.append(f"{name}: duplicate primary key {pk!r}")
            seen_pks.add(pk)
        for columns in schema.unique:
            seen: set[tuple] = set()
            for _rowid, row in rows:
                key = tuple(row[c] for c in columns)
                if any(v is None for v in key):
                    continue
                if key in seen:
                    problems.append(
                        f"{name}: duplicate unique key {key!r} "
                        f"on ({', '.join(columns)})"
                    )
                seen.add(key)
        for fk in schema.foreign_keys:
            parent = db.table(fk.parent_table)
            parent_keys = {
                tuple(prow[c] for c in fk.parent_columns)
                for prow in parent.rows()
            }
            for _rowid, row in rows:
                key = tuple(row[c] for c in fk.columns)
                if any(v is None for v in key):
                    continue
                if key not in parent_keys:
                    problems.append(
                        f"{name}: dangling FK {key!r} -> {fk.parent_table}"
                    )
        for index in table.indexes.hash_indexes:
            expected: dict[tuple, set[int]] = {}
            for rowid, row in rows:
                key = tuple(row[c] for c in index.columns)
                expected.setdefault(key, set()).add(rowid)
            if len(index) != sum(len(ids) for ids in expected.values()):
                problems.append(
                    f"{name}.{index.name}: {len(index)} entries, heap has "
                    f"{sum(len(ids) for ids in expected.values())}"
                )
            for key, rowids in expected.items():
                if set(index.lookup(key)) != rowids:
                    problems.append(
                        f"{name}.{index.name}: key {key!r} maps to "
                        f"{sorted(index.lookup(key))}, heap says "
                        f"{sorted(rowids)}"
                    )
        for index in table.indexes.sorted_indexes:
            filed: dict[Any, list[int]] = {}
            for rowid, row in rows:
                if row[index.column] is not None:
                    filed.setdefault(row[index.column], []).append(rowid)
            for key, rowids in filed.items():
                got = sorted(index.range(key, key))
                if got != sorted(rowids):
                    problems.append(
                        f"{name}.{index.name}: key {key!r} maps to {got}, "
                        f"heap says {sorted(rowids)}"
                    )
            heap_entries = sum(map(len, filed.values()))
            if len(index) != heap_entries:
                problems.append(
                    f"{name}.{index.name}: {len(index)} entries, heap has "
                    f"{heap_entries}"
                )
        for index in (*table.indexes.hash_indexes,
                      *table.indexes.sorted_indexes):
            problems.extend(posting_problems(f"{name}.{index.name}", index))
    return problems


def posting_problems(where: str, index: HashIndex | SortedIndex) -> list[str]:
    """The postings' representation: a hash key holds a bare row id or
    a strictly ascending list of two or more; a sorted index's keys are
    strictly ascending and each holds a non-empty, strictly ascending
    list; ``len`` and ``distinct_keys`` are the postings' totals."""
    problems: list[str] = []
    is_hash = isinstance(index, HashIndex)
    entries = keys = 0
    previous: Any = None
    for key, held in index.postings():
        if not is_hash and keys and not previous < key:
            problems.append(f"{where}: key {key!r} follows {previous!r}")
        keys += 1
        previous = key
        if is_hash and type(held) is int:
            entries += 1
            continue
        if (
            type(held) is not list
            or len(held) < (2 if is_hash else 1)
            or any(type(rowid) is not int for rowid in held)
            or any(a >= b for a, b in zip(held, held[1:]))
        ):
            shape = ("a bare row id or a strictly ascending list of two or "
                     "more" if is_hash else "a non-empty, strictly ascending "
                     "list")
            problems.append(f"{where}: key {key!r} holds {held!r}, not {shape}")
        entries += len(held) if type(held) is list else 1
    if len(index) != entries or index.distinct_keys() != keys:
        problems.append(
            f"{where}: counts {len(index)} entries under "
            f"{index.distinct_keys()} keys, postings hold {entries} under "
            f"{keys}"
        )
    return problems


def audit(db: Database, expected: State | None) -> list[str]:
    """The check every matrix makes of a recovered database: its state
    equals ``expected`` and :func:`verify_database` finds nothing."""
    if database_state(db) != expected:
        return ["recovered state diverges from the expected acked state"]
    return verify_database(db)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
def crash_points(
    size: int, boundaries: Iterable[int], *, stride: int = 64
) -> list[int]:
    """Every record boundary plus every ``stride``-byte offset up to and
    including ``size`` (the no-crash control point)."""
    points = {b for b in boundaries if 0 <= b <= size}
    points.update(range(0, size, max(1, stride)))
    points.add(size)
    return sorted(points)


def frame_boundaries(path: str | Path) -> list[int]:
    """Byte offsets of a journal's frame ends (0 plus each cumulative
    frame end)."""
    bounds = [0]
    for frame in read_frames(path):
        bounds.append(bounds[-1] + len(frame.data))
    return bounds


class CutStream(NamedTuple):
    """One write stream a scenario sweeps, sized by its golden run."""

    name: str
    size: int
    boundaries: list[int]
    stride: int
    kind: str = "truncate"  # what the cut does there; or "garble"


@dataclass(slots=True)
class CrashCase:
    """One ``(stream, offset)`` kill point.  The driver fills in where,
    the scenario what happened there, the driver the verdict."""

    stream: str
    offset: int
    kind: str  # "truncate" | "garble"
    #: the case's own directory — a failing point's files stay there
    dir: Path
    ok: bool = True
    #: whether the cut actually took effect (EOF offsets are controls)
    crashed: bool = False
    detail: str = ""
    #: scenario-specific observations (``recovered_lsn``, ``acked``,
    #: ``matched``, torn-tail counts, ...)
    facts: dict[str, Any] = field(default_factory=dict)

    def failpoint(self, fh: BinaryIO) -> FailpointFile:
        """``file_wrapper`` arming this case's cut on ``fh``."""
        return FailpointFile(fh, self.offset, mode=self.kind)

    def drive(self, workload: Callable[[], Any],
              *also: type[BaseException]) -> None:
        """Run ``workload`` into the cut; dying of the failpoint (or of
        ``also``, its knock-on errors) marks the case crashed."""
        try:
            workload()
        except (SimulatedCrashError, *also):
            self.crashed = True


@dataclass
class CrashReport:
    """Every case of one sweep."""

    label: str
    cases: list[CrashCase] = field(default_factory=list)

    @property
    def failures(self) -> list[CrashCase]:
        """The cases whose invariant did not hold."""
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        """True when every kill point recovered correctly."""
        return not self.failures

    @property
    def fired(self) -> int:
        """How many cuts took effect (the rest are no-crash controls)."""
        return sum(1 for c in self.cases if c.crashed)

    def total(self, fact: str) -> int:
        """Sum of a numeric fact over all cases (absent counts as 0)."""
        return sum(c.facts.get(fact, 0) for c in self.cases)

    def summary(self) -> str:
        """One-line human summary."""
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (f"{self.label}: {len(self.cases)} points "
                f"({self.fired} fired), {status}")

    def as_json(self) -> str:
        """Serialize the verdict and every failing case for CI artifacts."""
        return json.dumps({
            "label": self.label, "points": len(self.cases),
            "fired": self.fired, "ok": self.ok,
            "failures": [asdict(c) for c in self.failures],
        }, indent=2, default=str)


def run_scenario(
    workdir: str | Path,
    label: str,
    streams: Iterable[CutStream],
    run_case: Callable[[CrashCase, ExitStack], Iterable[str]],
) -> CrashReport:
    """Sweep ``streams`` over their :func:`crash_points` lattice.

    ``run_case(case, closing)`` is the scenario: build a fresh system
    under ``case.dir`` with ``case.failpoint`` armed, ``case.drive`` the
    workload into the cut, recover cold, and return (or yield) every
    problem with what came back — none means the case passes.  Whatever
    it opens it registers on ``closing``, which the driver unwinds after
    the verdict, pass or fail.  Recovery raising is itself a failure.
    """
    report = CrashReport(label)
    for stream in streams:
        for offset in crash_points(stream.size, stream.boundaries,
                                   stride=stream.stride):
            case = CrashCase(
                stream.name, offset, stream.kind,
                Path(workdir) / f"case-{len(report.cases) + 1:04d}",
            )
            case.dir.mkdir(parents=True, exist_ok=True)
            with ExitStack() as closing:
                try:
                    problems = list(run_case(case, closing))
                except Exception as exc:  # at no point may recovery fail
                    problems = [f"case raised {exc!r}"]
            case.ok, case.detail = not problems, "; ".join(problems)
            report.cases.append(case)
    return report


# ---------------------------------------------------------------------------
# The single-engine scenario (E17)
# ---------------------------------------------------------------------------
def _engine_case(
    golden: CrashWorkload, data: bytes, case: CrashCase
) -> Iterator[str]:
    """Cut the golden journal's bytes at ``case.offset`` and recover."""
    path = case.dir / "case.wal"
    if case.kind == "truncate":
        # Strict recovery must succeed and reproduce exactly the last
        # transaction acked at or before the cut.
        path.write_bytes(data[:case.offset])
        case.crashed = case.offset < len(data)
        db = recover_crash_db(path)
        yield from audit(db, golden.state_at(case.offset))
        assert db.recovery_stats is not None
        case.facts["torn_tails"] = db.recovery_stats.torn_tails
        case.facts["records_recovered"] = \
            db.recovery_stats.records_recovered
        return
    # Flip one bit: strict recovery must detect mid-file corruption
    # (damage inside the final record is a torn tail, which it may
    # tolerate); salvage recovery must keep everything but the damaged
    # record and stay consistent.
    garbled = bytearray(data)
    garbled[case.offset] ^= 0x40
    path.write_bytes(garbled)
    case.crashed = True
    damaged = golden.damaged_ack(case.offset)
    try:
        recover_crash_db(path)
        if damaged is not None and damaged is not golden.acks[-1]:
            yield "strict recovery accepted mid-file corruption silently"
            return
    except JournalCorruptError:
        case.facts["corruption_detected"] = 1
    db = recover_crash_db(path, salvage=True)
    assert db.recovery_stats is not None
    expected = len(golden.acks) - (1 if damaged else 0)
    if db.recovery_stats.records_recovered != expected:
        yield (f"salvage recovered {db.recovery_stats.records_recovered} "
               f"records, expected {expected}")
        return
    yield from verify_database(db)


def run_crash_matrix(
    workdir: str | Path,
    *,
    txns: int = 40,
    stride: int = 64,
    garble: bool = True,
    seed: int = 0,
) -> CrashReport:
    """Record a golden workload run, then kill-at-point sweep it.

    Truncation sweep: for every record boundary and every ``stride``-th
    byte (plus the no-crash control at EOF), cut the journal there,
    recover strictly, and assert the committed-prefix guarantee plus
    full constraint/index consistency.  Garble sweep (optional): flip a
    bit at each offset and assert strict detection + salvage survival.
    Facts: ``torn_tails`` and ``records_recovered`` per truncate case,
    ``corruption_detected`` per garble case.
    """
    golden = run_crash_workload(Path(workdir) / "golden", txns=txns,
                                seed=seed)
    data = golden.data
    bounds = frame_boundaries(golden.journal_path)
    streams = [CutStream("journal", len(data), bounds, stride)]
    if garble:
        streams.append(
            CutStream("journal", len(data) - 1, bounds, stride, "garble")
        )
    return run_scenario(
        workdir, "crash matrix", streams,
        lambda case, _closing: _engine_case(golden, data, case),
    )


def iter_live_crashes(
    workdir: str | Path,
    offsets: list[int],
    *,
    txns: int = 20,
    seed: int = 0,
    mode: str = "truncate",
) -> Iterator[tuple[int, list[AckedTxn], Database]]:
    """Run the workload against live :class:`FailpointFile` journals.

    For each offset: arm a failpoint there, run the workload until the
    simulated crash kills it, reopen the journal path cold, recover,
    and yield ``(offset, acked_transactions, recovered_db)`` for the
    caller to assert on.  Exercises the real append/fsync path rather
    than post-hoc byte surgery.
    """
    for offset in offsets:
        workload = CrashWorkload(
            Path(workdir) / f"live-{offset}.wal", seed=seed,
            file_wrapper=lambda fh, _o=offset: FailpointFile(
                fh, _o, mode=mode
            ),
        )
        try:
            workload.run(txns)
        except SimulatedCrashError:
            pass
        workload.journal.close()  # flushes and syncs; writes nothing
        yield offset, workload.acks, recover_crash_db(workload.journal_path)
