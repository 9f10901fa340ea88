"""The four E22 workloads: op streams, front doors and per-reply checks.

Each workload owns one *front door* into the program (README, "Front
doors"), an endless seeded stream of operations that are all expected
to succeed, and the oracle that checks each reply.  Which layer each
workload is meant to load — and which it is meant to leave idle — is
recorded beside it in :data:`WHY` and copied into ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import shutil
import time
from pathlib import Path
from typing import Any, Callable

from repro.admission import AdmissionController
from repro.net import Network, Simulator, Station
from repro.net.link import DuplexLink
from repro.rdb import Expr, SyncPolicy, col
from repro.tiers.cache import QueryCache, TableVersions
from repro.tiers.connection import OpenDatabaseConnection
from repro.tiers.protocol import Request, Response
from repro.tiers.remote import RemoteTierClient, RemoteTierServer

from benchmarks.e22.audit import AuditResult, crash_audit, user_bytes
from benchmarks.e22.dataset import (
    GRADE_SCALE,
    CorpusSizes,
    TierModel,
    TierPlan,
    TierSizes,
    Zipf,
    build_corpus,
    child_rng,
    corpus_rows,
    keyword,
    load_tier,
    make_doc,
    open_sessions,
    plan_tier,
    server_rows,
    student_id,
)

__all__ = [
    "WHY",
    "WORKLOADS",
    "Op",
    "SyncLog",
    "stream_hash",
]

#: One line per workload: why it is in the benchmark.
WHY = {
    "registration_rush": (
        "closed loop of durable single-statement writes over the wire: "
        "rdb.wal (append, fsync) and rdb.engine dominate; library.search idle"
    ),
    "library_browse": (
        "closed loop of searches, cached reads and circulation over the "
        "wire: library.search, cache hits and net/dispatch overhead; no WAL"
    ),
    "catalog_reports": (
        "closed loop of fresh-literal report statements at the database "
        "tier: rdb.query/compile/index dominate; every cache lookup misses"
    ),
    "semester_mix": (
        "open loop at a pinned rate, in process: 80% reads beside 20% "
        "writes on the same tables, admission control and deadlines on"
    ),
}

#: Offered rate of ``semester_mix``, requests per second: ISSUE.md's 350,
#: about 15 % of what the seed commit serves closed-loop on the same op
#: stream here (2 350 per second) — the rate at which the median from due
#: time repeated best (README, "semester_mix").
SEMESTER_MIX_RATE = 350.0
#: Every ``semester_mix`` request must finish this long after it was
#: *due* (ISSUE.md's figure); one issued later than that is shed by the
#: admission controller.
DEADLINE_S = 0.25
#: Sizes of the untimed oracle samples.
SEARCH_SAMPLE = 200
STATEMENT_SAMPLE = 200
#: Entries in every ``QueryCache`` the benchmark installs (the server's
#: own default; stated so the working-set claims can be checked).
CACHE_ENTRIES = 512

REGISTRAR = "registrar"


class Op:
    """One generated operation: who sends what, and its latency class."""

    __slots__ = ("name", "user", "params", "write")

    def __init__(
        self, name: str, user: str, params: dict[str, Any], write: bool
    ) -> None:
        self.name = name
        self.user = user
        self.params = params
        self.write = write

    def canonical(self) -> str:
        return f"{self.name}|{self.user}|{sorted(self.params.items())!r}"


class Deck:
    """Draws operation kinds in exact proportions.

    A deck of 20 cards holds each kind in its stated share (all shares
    are multiples of 5 %); it is dealt in seeded-shuffled order and
    reshuffled when spent.  Every window of 20 operations therefore
    carries the stated mix exactly, and two seeds differ in order, not
    in how many searches or fsyncs a run happened to draw.
    """

    SIZE = 20

    def __init__(self, mix: dict[str, float], rng: random.Random) -> None:
        self.rng = rng
        self.cards = [
            name for name, share in mix.items()
            for _ in range(round(share * self.SIZE))
        ]
        if len(self.cards) != self.SIZE:
            raise ValueError(f"shares must be multiples of 1/{self.SIZE}: {mix}")
        self.hand: list[str] = []

    def draw(self) -> str:
        if not self.hand:
            self.hand = self.cards[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


# ---------------------------------------------------------------------------
# Tier op streams
# ---------------------------------------------------------------------------
class WriteStream:
    """Durable single-statement writes, none of which should fail."""

    MIX = {
        "admit_student": 0.25,
        "enroll": 0.40,
        "record_grade": 0.20,
        "register_station": 0.10,
        "publish_course_document": 0.05,
    }

    def __init__(self, plan: TierPlan, rng: random.Random) -> None:
        self.rng = rng
        self.deck = Deck(self.MIX, rng)
        self.sizes = plan.sizes
        self.students = [sid for sid, _ in plan.students]
        self.courses = [course for course, _t, _i in plan.courses]
        self.instructor_of = {c: i for c, _t, i in plan.courses}
        self.station_users = plan.session_students
        self.enrolled = set(plan.enrollments)
        graded = {(s, c) for s, c, _ in plan.grades}
        self.ungraded = [p for p in plan.enrollments if p not in graded]
        self.next_doc = len(plan.docs)
        self.zipf = Zipf(plan.sizes.vocabulary, 1.0)

    def next(self) -> Op:
        rng = self.rng
        name = self.deck.draw()
        if name == "record_grade" and not self.ungraded:
            name = "enroll"
        if name == "admit_student":
            index = len(self.students)
            self.students.append(student_id(index))
            return Op(name, REGISTRAR, {
                "student_id": self.students[-1], "name": f"Student {index}",
            }, True)
        if name == "enroll":
            while True:
                pair = (rng.choice(self.students), rng.choice(self.courses))
                if pair not in self.enrolled:
                    break
            self.enrolled.add(pair)
            self.ungraded.append(pair)
            return Op(name, REGISTRAR, {
                "student_id": pair[0], "course_number": pair[1],
            }, True)
        if name == "record_grade":
            slot = rng.randrange(len(self.ungraded))
            self.ungraded[slot], self.ungraded[-1] = (
                self.ungraded[-1], self.ungraded[slot]
            )
            sid, course = self.ungraded.pop()
            return Op(name, self.instructor_of[course], {
                "student_id": sid, "course_number": course,
                "grade": rng.choice(GRADE_SCALE),
            }, True)
        if name == "register_station":
            return Op(name, rng.choice(self.station_users), {
                "station": f"ws{rng.randrange(500):03d}",
                "address": f"10.0.{rng.randrange(256)}.{rng.randrange(256)}",
            }, True)
        course = rng.choice(self.courses)
        doc = make_doc(
            self.next_doc, course, self.instructor_of[course],
            self.sizes, self.zipf, rng,
        )
        self.next_doc += 1
        return Op(name, doc.instructor, doc.publish_params(), True)

    def forget(self, op: Op) -> None:
        """``op``, the last one drawn, was refused: later operations must
        not build on it."""
        pair = (op.params.get("student_id"), op.params.get("course_number"))
        if op.name == "admit_student":
            self.students.pop()
        elif op.name == "enroll":
            self.enrolled.discard(pair)
            self.ungraded.pop()
        elif op.name == "record_grade":
            self.ungraded.append(pair)


class ReadStream:
    """Searches, transcript/roster reads and circulation pairs.

    ``hot`` draws transcript keys Zipf(0.8) from the session students (a
    set that fits the query cache); otherwise uniformly from every
    student (a set that does not).
    """

    MIX = {
        "search_keyword": 0.35,
        "search_course": 0.10,
        "search_instructor": 0.05,
        "transcript": 0.20,
        "roster": 0.10,
        "circulation": 0.20,
    }
    SEARCH_LIMIT = 10
    MAX_OPEN_LOANS = 32

    def __init__(
        self, plan: TierPlan, rng: random.Random, *, hot: bool,
        mix: dict[str, float] | None = None,
    ) -> None:
        self.rng = rng
        self.deck = Deck(mix or self.MIX, rng)
        self.hot = hot
        self.all_students = [sid for sid, _ in plan.students]
        self.session_students = plan.session_students
        self.courses = [course for course, _t, _i in plan.courses]
        self.instructors = plan.instructors
        self.doc_ids = [doc.doc_id for doc in plan.docs]
        self.vocabulary = Zipf(plan.sizes.vocabulary, 1.0)
        self.hot_students = Zipf(len(self.session_students), 0.8)
        self.hot_courses = Zipf(len(self.courses), 0.8)
        self.open_loans: list[tuple[str, str]] = []
        self.clock = 0.0

    def next(self) -> Op:
        rng = self.rng
        name = self.deck.draw()
        if name == "search_keyword":
            return self._search(keywords=keyword(self.vocabulary.draw(rng)))
        if name == "search_course":
            return self._search(course=rng.choice(self.courses))
        if name == "search_instructor":
            return self._search(instructor=rng.choice(self.instructors))
        if name == "transcript":
            if self.hot:
                who = self.session_students[self.hot_students.draw(rng)]
                return Op(name, who, {}, False)
            return Op(name, REGISTRAR, {
                "student_id": rng.choice(self.all_students),
            }, False)
        if name == "roster":
            return Op(name, REGISTRAR, {
                "course_number": self.courses[self.hot_courses.draw(rng)],
            }, False)
        return self._circulation()

    def _search(self, **axis: str) -> Op:
        return Op(
            "search_library", self.rng.choice(self.session_students),
            {**axis, "limit": self.SEARCH_LIMIT}, False,
        )

    def _circulation(self) -> Op:
        rng = self.rng
        self.clock += 1.0
        returning = bool(self.open_loans) and (
            len(self.open_loans) >= self.MAX_OPEN_LOANS or rng.random() < 0.5
        )
        if returning:
            slot = rng.randrange(len(self.open_loans))
            self.open_loans[slot], self.open_loans[-1] = (
                self.open_loans[-1], self.open_loans[slot]
            )
            who, doc_id = self.open_loans.pop()
            return Op(
                "check_in", who, {"doc_id": doc_id, "time": self.clock}, False
            )
        while True:
            loan = (rng.choice(self.session_students), rng.choice(self.doc_ids))
            if loan not in self.open_loans:
                break
        self.open_loans.append(loan)
        return Op(
            "check_out", loan[0], {"doc_id": loan[1], "time": self.clock},
            False,
        )

    def forget(self, op: Op) -> None:
        """``op``, the last one drawn, was refused (see
        :meth:`WriteStream.forget`)."""
        if op.name == "check_out":
            self.open_loans.pop()
        elif op.name == "check_in":
            self.open_loans.append((op.user, op.params["doc_id"]))


class MixStream:
    """80 % reads (cold transcripts) beside 20 % :class:`WriteStream`,
    interleaved on the same tables.

    The read mix leans further toward transcripts than ``library_browse``
    does: with 20 % writes, that mix would put the overall median on the
    boundary between the cheap reads and the keyword searches, where a
    percentile moves with every small shift in queueing (README).
    """

    MIX = {"read": 0.80, "write": 0.20}
    READ_MIX = {
        "search_keyword": 0.20,
        "search_course": 0.10,
        "search_instructor": 0.05,
        "transcript": 0.35,
        "roster": 0.10,
        "circulation": 0.20,
    }

    def __init__(self, plan: TierPlan, seed: int) -> None:
        self.deck = Deck(self.MIX, child_rng(seed, "mix"))
        self.reads = ReadStream(
            plan, child_rng(seed, "mix-reads"), hot=False, mix=self.READ_MIX
        )
        self.writes = WriteStream(plan, child_rng(seed, "mix-writes"))

    def next(self) -> Op:
        if self.deck.draw() == "write":
            return self.writes.next()
        return self.reads.next()

    def forget(self, op: Op) -> None:
        (self.writes if op.write else self.reads).forget(op)


def stream_hash(stream: Any, count: int) -> str:
    """SHA-256 over the first ``count`` generated operations."""
    digest = hashlib.sha256()
    for _ in range(count):
        digest.update(stream.next().canonical().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The fsync hook
# ---------------------------------------------------------------------------
class SyncLog:
    """The injected ``SyncPolicy.fsync``: a real ``os.fsync`` that also
    notes how long the device took and the journal's length once the
    sync returned — the bytes a crash at that instant could not take
    back."""

    def __init__(self) -> None:
        self.lengths: list[int] = []
        self.device_s = 0.0

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def __call__(self, fd: int) -> None:
        begin = time.perf_counter()
        self.fsync(fd)
        self.device_s += time.perf_counter() - begin
        self.lengths.append(os.fstat(fd).st_size)


class SkippingClock:
    """``time.monotonic`` plus a skew: the admission controller's clock,
    which the open loop sets to the instant its next request starts —
    skipping the idle time before it is due, and leaving out the
    harness's own work since the last reply."""

    def __init__(self) -> None:
        self.skew = 0.0

    def __call__(self) -> float:
        return time.monotonic() + self.skew

    def set(self, instant: float) -> None:
        self.skew = instant - time.monotonic()


# ---------------------------------------------------------------------------
# Tier workloads
# ---------------------------------------------------------------------------
class TierWorkload:
    """Shared by the three workloads that drive a class administrator."""

    name = ""
    wire = True
    open_loop = False
    admission = False
    #: untimed operations before the first measured one (caches fill)
    warmup_ops = 1000
    #: ``peak_rss_mb`` is read when this many measured replies have
    #: arrived — about half of what the seed commit serves in a run, so
    #: a faster program is not charged for the rows it had time to add
    rss_ops = 15000
    #: set-ups timed per end-to-end run; ``setup_s`` is their median
    setup_repeats = 3

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.plan = plan_tier(seed, TierSizes().scaled(scale))
        self._setups = 0
        self.data_dir: Path | None = None

    # -- set-up (timed by the harness) ---------------------------------------
    def setup(self, tick: Callable[[], None] | None = None) -> None:
        """Data build + checkpoint + reopen + sessions + front door;
        ``tick`` is called between the load's requests."""
        self._setups += 1
        self.data_dir = self.workdir / f"{self.name}-{self._setups}"
        self.sync_log = SyncLog()
        self.clock = SkippingClock()
        self.controller = (
            AdmissionController(clock=self.clock) if self.admission else None
        )
        self.server = load_tier(
            self.plan, self.data_dir, tick=tick,
            sync_policy=SyncPolicy(mode="commit", fsync=self.sync_log),
            admission=self.controller,
        )
        self.sessions = open_sessions(self.server, self.plan)
        self.network: Network | None = None
        if self.wire:
            self.network = Network(Simulator())
            for station in ("registry", "workstation"):
                self.network.add(
                    Station(station, DuplexLink.symmetric_mbps(10.0))
                )
            RemoteTierServer(self.network, "registry", self.server)
            # One stub per station: a second RemoteTierClient on the same
            # station would take over its reply routing (README).
            self.client = RemoteTierClient(
                self.network, "workstation", "registry"
            )

    def discard(self) -> None:
        """Close, delete and let go of one set-up, so the next one is
        timed (and its memory counted) on its own."""
        if self.server.journal is not None:
            self.server.journal.close()
        assert self.data_dir is not None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        del self.server, self.sessions, self.network, self.controller
        if self.wire:
            del self.client

    def prepare(self) -> None:
        """Untimed: the oracle's model and the op stream."""
        self.model = TierModel(self.plan)
        self.stream = self.make_stream()
        #: acknowledged writes: (op, fsyncs completed when acknowledged)
        self.acked: list[tuple[Op, int]] = []

    def make_stream(self) -> Any:
        raise NotImplementedError

    # -- one operation -------------------------------------------------------
    def next_op(self) -> Op:
        return self.stream.next()

    def execute(self, op: Op, deadline: float | None = None) -> Response:
        if self.wire:
            self.client.session_id = self.sessions[op.user]
            return self.client.call_sync(op.name, **op.params)
        return self.server.handle(Request(
            op.name, self.sessions[op.user], op.params, deadline=deadline,
        ))

    def check(self, op: Op, reply: Response) -> bool:
        ok = self.model.check(op.name, op.user, op.params, reply)
        if ok and op.write:
            self.acked.append((op, len(self.sync_log.lengths)))
        return ok

    def forget(self, op: Op) -> None:
        """The server refused ``op`` (open loop only): un-draw it."""
        self.stream.forget(op)

    # -- untimed verification ------------------------------------------------
    def crash_audit(
        self, rng: random.Random, scratch: Path
    ) -> AuditResult | None:
        """The crash audit, when this workload acknowledged any write."""
        if not self.acked:
            return None
        assert self.data_dir is not None
        return crash_audit(
            self.plan, self.data_dir, self.acked, self.sync_log.lengths,
            rng, scratch,
        )

    def oracle_sample(self, rng: random.Random) -> tuple[int, int, float]:
        """Seeded searches against a brute-force pass over the model's
        catalog: ``(checked, wrong, documents scored per document
        returned)`` — the last from re-running each with ``limit=None``."""
        stream = ReadStream(self.plan, rng, hot=True)
        searches = (
            op for op in iter(stream.next, None) if op.name == "search_library"
        )
        wrong = candidates = returned = 0
        for op in itertools.islice(searches, SEARCH_SAMPLE):
            reply = self.execute(op)
            wrong += not (
                reply.ok
                and reply.data == self.model.brute_force_search(op.params)
            )
            axes = {k: v for k, v in op.params.items() if k != "limit"}
            candidates += len(self.server.library.search(**axes))
            returned += len(reply.data or ())
        return SEARCH_SAMPLE, wrong, candidates / returned if returned else 0.0

    def table_diff(self) -> int:
        """Rows by which the server's tables differ from the model's."""
        expected = self.model.table_rows()
        found = server_rows(self.server)
        return sum(len(expected[t] ^ found[t]) for t in expected)

    def plan_shapes(self, rng: random.Random) -> list[tuple[str, Expr]]:
        """The selects this workload's operations issue, for EXPLAIN."""
        shapes = []
        for _ in range(100):
            sid, course = rng.choice(self.plan.enrollments)
            by_student = col("student_id") == sid
            by_course = col("course_number") == course
            shapes += [
                ("transcripts", by_student),
                ("enrollments", by_course),
                ("enrollments", by_student & by_course),
            ]
        return shapes

    def user_bytes_acked(self) -> int:
        """Bytes of user-supplied values in the writes acknowledged so far."""
        return sum(user_bytes(op.params) for op, _ in self.acked)

    def counters(self) -> dict[str, float]:
        """Raw counters the program keeps, for before/after deltas."""
        server = self.server
        assert server.journal is not None
        out = {
            f"cache.{k}": v for k, v in server.query_cache.stats().items()
        }
        out.update({
            "db.statements": server.admin_db.statements,
            "server.requests": server.requests_served,
            "wal.records": server.journal.records_written,
            "wal.bytes": server.journal.tell(),
            "wal.fsyncs": len(self.sync_log.lengths),
        })
        if self.network is not None:
            stats = self.network.stats()
            out.update({
                "net.events": stats["events"],
                "net.messages": stats["messages"],
                "net.bytes": stats["bytes"],
            })
        if self.controller is not None:
            stats = self.controller.stats()
            out["admission.admitted"] = stats["admitted"]
            out["admission.shed"] = sum(stats["shed"].values())
        return out

    # -- tracing -------------------------------------------------------------
    def span_points(self) -> list[tuple[Any, str, str]]:
        server = self.server
        points: list[tuple[Any, str, str]] = []
        if self.wire:
            assert self.network is not None
            points += [
                (self.client, "call_sync", "client.call_sync"),
                (self.network, "send", "network.send"),
                (self.network.sim, "step", "sim.step"),
            ]
        if self.controller is not None:
            points += [
                (self.controller, "admit", "admission.admit"),
                (self.controller, "complete", "admission.complete"),
            ]
        points += [
            (server, "handle", "administrator.handle"),
            (server.stale_reads, "record", "stale_reads.record"),
            (server.query_cache, "select", "query_cache.select"),
            (server.library, "search", "library.search"),
            (server.desk, "check_out", "desk.check_out"),
            (server.desk, "check_in", "desk.check_in"),
        ]
        points += [
            (server.admin_db, verb, f"admin_db.{verb}")
            for verb in ("insert", "update", "delete", "select")
        ]
        points += [
            (server.journal, "append", "journal.append"),
            (server.journal, "sync", "journal.sync"),
            (self.sync_log, "fsync", "fsync"),
        ]
        return points

    @property
    def database(self) -> Any:
        return self.server.admin_db


class RegistrationRush(TierWorkload):
    name = "registration_rush"

    def make_stream(self) -> Any:
        return WriteStream(self.plan, child_rng(self.seed, "rush"))


class LibraryBrowse(TierWorkload):
    name = "library_browse"
    warmup_ops = 2000  # every hot key seen, so the cache is full

    def make_stream(self) -> Any:
        return ReadStream(self.plan, child_rng(self.seed, "browse"), hot=True)


class SemesterMix(TierWorkload):
    name = "semester_mix"
    wire = False
    open_loop = True
    admission = True
    warmup_ops = 400

    def make_stream(self) -> Any:
        return MixStream(self.plan, self.seed)


# ---------------------------------------------------------------------------
# catalog_reports
# ---------------------------------------------------------------------------
REPORT_ORDER = ("size_kb", "doc_id")
AGGREGATE_SPEC = {"n": ("count", None), "kb": ("sum", "size_kb")}
JOIN_ON = [("course", "course")]


class Statement(Op):
    """One report statement; ``params`` holds its literals."""

    __slots__ = ("where", "where_right", "limit")

    def __init__(
        self, kind: str, params: dict[str, Any], where: Expr,
        where_right: Expr | None = None, limit: int | None = None,
    ) -> None:
        super().__init__(kind, "", params, False)
        self.where = where
        self.where_right = where_right
        self.limit = limit


class ReportStream:
    """Report statements whose literals are drawn fresh each time, so the
    set of distinct statements is far larger than the query cache."""

    MIX = {
        "scan": 0.25, "point": 0.25, "range": 0.20,
        "join": 0.15, "aggregate": 0.15,
    }

    def __init__(self, sizes: CorpusSizes, rng: random.Random) -> None:
        self.sizes = sizes
        self.rng = rng
        self.deck = Deck(self.MIX, rng)

    def next(self) -> Statement:
        rng, sizes = self.rng, self.sizes
        kind = self.deck.draw()
        version = rng.randrange(sizes.versions)
        floor = rng.randrange(sizes.max_size_kb)
        author = f"a{rng.randrange(sizes.authors)}"
        if kind == "scan":
            authors = tuple(
                f"a{a}" for a in sorted(rng.sample(range(sizes.authors), 3))
            )
            return Statement(
                kind, {"version": version, "floor": floor, "authors": authors},
                (col("version") == version) & (col("size_kb") > floor)
                & col("author").isin(authors),
            )
        if kind == "point":
            return Statement(
                kind, {"author": author, "floor": floor},
                (col("author") == author) & (col("size_kb") >= floor),
                limit=20,
            )
        if kind == "range":
            width = 1 + rng.randrange(50)
            return Statement(
                kind, {"low": floor, "high": floor + width},
                col("size_kb").between(floor, floor + width), limit=10,
            )
        if kind == "join":
            dept = f"d{rng.randrange(sizes.depts)}"
            return Statement(
                kind,
                {"version": version, "floor": floor, "author": author,
                 "dept": dept},
                (col("version") == version) & (col("size_kb") > floor)
                & (col("author") == author),
                where_right=col("dept") == dept,
            )
        return Statement(
            kind, {"version": version, "floor": floor},
            (col("version") == version) & (col("size_kb") > floor),
        )


class CatalogReports:
    """Database-tier front door: an ``OpenDatabaseConnection`` with a
    query cache, plus ``Database.join`` / ``Database.aggregate``."""

    name = "catalog_reports"
    open_loop = False
    warmup_ops = 100
    rss_ops = 6000
    #: one 0.12 s bulk insert: more of them cost little and steady the median
    setup_repeats = 9

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.sizes = CorpusSizes().scaled(scale)
        self.docs, self.courses = corpus_rows(seed, self.sizes)

    def setup(self, tick: Callable[[], None] | None = None) -> None:
        # One bulk insert: there is no request to call ``tick`` between.
        self.sync_log = SyncLog()  # no journal here: it stays at zero
        self.db = build_corpus(self.docs, self.courses)
        versions = TableVersions()
        versions.attach(self.db)
        self.cache = QueryCache(versions, max_entries=CACHE_ENTRIES)
        self.connection = OpenDatabaseConnection(self.db, cache=self.cache)

    def discard(self) -> None:
        self.connection.close()
        del self.db, self.cache, self.connection

    def prepare(self) -> None:
        self.stream = ReportStream(self.sizes, child_rng(self.seed, "reports"))
        self.by_course = {row["course"]: row for row in self.courses}

    def next_op(self) -> Statement:
        return self.stream.next()

    def execute(self, op: Statement, deadline: float | None = None) -> Any:
        if op.name == "join":
            return self.db.join(
                "docs", "courses", JOIN_ON,
                where_left=op.where, where_right=op.where_right,
            )
        if op.name == "aggregate":
            return self.db.aggregate(
                "docs", AGGREGATE_SPEC, where=op.where, group_by=["course"]
            )
        order = REPORT_ORDER if op.limit is not None else None
        return self.connection.cursor().select(
            "docs", where=op.where, order_by=order, limit=op.limit
        ).fetchall()

    # -- oracle --------------------------------------------------------------
    def check(self, op: Statement, reply: Any) -> bool:
        """Cheap per-reply check: every returned row satisfies the
        statement and arrives in the stated order (completeness is the
        sampled :meth:`naive` check's job)."""
        if op.name == "join":
            return all(
                op.where.eval(_side(row, "l."))
                and op.where_right.eval(_side(row, "r."))  # type: ignore[union-attr]
                and row["l.course"] == row["r.course"]
                for row in reply
            )
        if op.name == "aggregate":
            keys = [row["course"] for row in reply]
            return keys == sorted(keys) and all(row["n"] >= 1 for row in reply)
        if not all(op.where.eval(row) for row in reply):
            return False
        if op.limit is None:
            return True
        keys = [tuple(row[c] for c in REPORT_ORDER) for row in reply]
        return len(reply) <= op.limit and keys == sorted(keys)

    def naive(self, op: Statement) -> Any:
        """The statement's answer by a naive ``Expr.eval`` scan of the
        generator's own copy of the rows."""
        matching = [row for row in self.docs if op.where.eval(row)]
        if op.name == "join":
            return sorted(
                (
                    {**{f"l.{k}": v for k, v in row.items()},
                     **{f"r.{k}": v
                        for k, v in self.by_course[row["course"]].items()}}
                    for row in matching
                    if op.where_right.eval(self.by_course[row["course"]])  # type: ignore[union-attr]
                ),
                key=lambda row: row["l.doc_id"],
            )
        if op.name == "aggregate":
            groups: dict[str, list[int]] = {}
            for row in matching:
                groups.setdefault(row["course"], []).append(row["size_kb"])
            return [
                {"course": course, "n": len(sizes), "kb": sum(sizes)}
                for course, sizes in sorted(groups.items())
            ]
        if op.limit is None:
            return matching
        matching.sort(key=lambda row: tuple(row[c] for c in REPORT_ORDER))
        return matching[: op.limit]

    def matches_naive(self, op: Statement, reply: Any) -> bool:
        if op.name == "join":
            reply = sorted(reply, key=lambda row: row["l.doc_id"])
        elif op.limit is None and op.name != "aggregate":
            reply = sorted(reply, key=lambda row: row["doc_id"])
        return reply == self.naive(op)

    # -- untimed verification ------------------------------------------------
    def crash_audit(self, rng: random.Random, scratch: Path) -> None:
        return None  # no journal, nothing acknowledged as durable

    def oracle_sample(self, rng: random.Random) -> tuple[int, int, float]:
        """Seeded statements against the naive scan: ``(checked, wrong,
        0.0)`` (no search index here, so no candidates ratio)."""
        stream = ReportStream(self.sizes, rng)
        wrong = 0
        for _ in range(STATEMENT_SAMPLE):
            op = stream.next()
            wrong += not self.matches_naive(op, self.execute(op))
        return STATEMENT_SAMPLE, wrong, 0.0

    def table_diff(self) -> int:
        return abs(len(self.db.table("docs")) - len(self.docs))

    def plan_shapes(self, rng: random.Random) -> list[tuple[str, Expr]]:
        stream = ReportStream(self.sizes, rng)
        return [("docs", stream.next().where) for _ in range(200)]

    def user_bytes_acked(self) -> int:
        return 0

    def counters(self) -> dict[str, float]:
        out = {f"cache.{k}": v for k, v in self.cache.stats().items()}
        out["db.statements"] = self.db.statements
        return out

    # -- tracing -------------------------------------------------------------
    def span_points(self) -> list[tuple[Any, str, str]]:
        return [(self.cache, "select", "query_cache.select")] + [
            (self.db, verb, f"admin_db.{verb}")
            for verb in ("select", "join", "aggregate")
        ]

    @property
    def database(self) -> Any:
        return self.db


def _side(row: dict[str, Any], prefix: str) -> dict[str, Any]:
    return {
        key[len(prefix):]: value
        for key, value in row.items() if key.startswith(prefix)
    }


WORKLOADS = {
    cls.name: cls
    for cls in (RegistrationRush, LibraryBrowse, CatalogReports, SemesterMix)
}

