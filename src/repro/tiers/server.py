"""The class administrator — the middle tier.

"A class administrator performs book keeping of course registration and
network information, which serves as the front end of the virtual
course DBMS."  The server owns:

* the administration tables (students/admissions, courses, enrollments,
  transcripts, station registrations) in its own relational database,
  reached through the ODBC-style connection;
* the virtual library and its circulation desk;
* sessions with role-based authorization per
  :data:`repro.tiers.protocol.OPERATIONS`.

Every client call is a :class:`~repro.tiers.protocol.Request`; the
server never leaks engine objects to clients.
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path
from typing import Any

from repro.admission import (
    AdmissionController,
    OverloadError,
    deadline_scope,
)
from repro.obs.instrument import OBS, Instrument
from repro.library.assessment import assess
from repro.library.catalog import CatalogEntry, VirtualLibrary
from repro.library.circulation import CirculationDesk
from repro.rdb import (
    Action,
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Journal,
    JournalCorruptError,
    RdbError,
    Schema,
    SyncPolicy,
)
from repro.rdb.query import _sort_key
from repro.tiers.cache import QueryCache, TableVersions, copy_reply
from repro.tiers.connection import OpenDatabaseConnection
from repro.tiers.protocol import (
    OPERATIONS,
    REPLICA_SAFE_OPS,
    Request,
    Response,
    Role,
)

__all__ = ["ClassAdministrator"]

REQUEST_SECONDS = Instrument("histogram", "tiers.request_seconds", "op")
REQUESTS = Instrument("counter", "tiers.requests", "op", "status")
STALE_SERVED = Instrument("counter", "admission.stale_served", "op")

#: The reads whose finished reply the tier stores (on its second miss),
#: and the table each derives from: a repeat is one lookup and one copy,
#: and the handler does not run.  A library search is not read through
#: the store: the library view keeps no version of its own.
_STORED_REPLIES: dict[str, tuple[str, ...]] = {
    "transcript": ("transcripts",),
    "roster": ("enrollments",),
}

#: The table a library search derives from, stamped on its reply when
#: one is recorded beside a controller, for degraded serving only.
_SEARCH_TABLES = ("catalog_docs",)

#: Replica-safe reads eligible for degraded (stale-cache) serving while
#: the admission controller sheds; the staleness bound is measured in
#: version bumps of the tables stamped on the stored reply.
_STALE_SERVABLE = frozenset({*_STORED_REPLIES, "search_library"})

#: How many version bumps of those tables a degraded reply may trail by;
#: past it the read sheds honestly instead of lying unboundedly.
STALE_MAX_LAG = 8

#: Param types whose values key a stored reply as they are (no
#: two of them compare equal across types, unlike ``1 == 1.0 == True``).
_PLAIN_KEYS = frozenset({str})
_PLAIN_VALUES = frozenset({str, int, type(None)})

#: What params of the wrong shape (a list for an id, ``None`` for a
#: grade) or out of range (an int too large for a float) raise inside an
#: op: input from outside the program, so it is answered with a failure
#: reply like any other rejected request.
_BAD_PARAMS = (TypeError, AttributeError, OverflowError)


def _is_time(deadline: Any) -> bool:
    """A request deadline is an ``int`` or ``float`` — not a ``bool``,
    not NaN, which would pass every deadline gate and never be shed."""
    return (
        isinstance(deadline, (int, float))
        and not isinstance(deadline, bool)
        and deadline == deadline
    )


T = ColumnType

STUDENTS = Schema(
    name="students",
    columns=(
        Column("student_id", T.TEXT, nullable=False),
        Column("name", T.TEXT, nullable=False),
        Column("admitted", T.BOOL, nullable=False, default=True),
    ),
    primary_key=("student_id",),
)

COURSES = Schema(
    name="courses",
    columns=(
        Column("course_number", T.TEXT, nullable=False),
        Column("title", T.TEXT, nullable=False),
        Column("instructor", T.TEXT, nullable=False),
    ),
    primary_key=("course_number",),
)

ENROLLMENTS = Schema(
    name="enrollments",
    columns=(
        Column("student_id", T.TEXT, nullable=False),
        Column("course_number", T.TEXT, nullable=False),
    ),
    primary_key=("student_id", "course_number"),
    foreign_keys=(
        ForeignKey(("student_id",), "students", ("student_id",),
                   on_delete=Action.CASCADE),
        ForeignKey(("course_number",), "courses", ("course_number",),
                   on_delete=Action.CASCADE),
    ),
)

TRANSCRIPTS = Schema(
    name="transcripts",
    columns=(
        Column("student_id", T.TEXT, nullable=False),
        Column("course_number", T.TEXT, nullable=False),
        Column("grade", T.FLOAT, nullable=False,
               check=lambda v: 0.0 <= v <= 4.0,
               check_label="grade_in_scale"),
    ),
    primary_key=("student_id", "course_number"),
    foreign_keys=(
        ForeignKey(("student_id",), "students", ("student_id",),
                   on_delete=Action.CASCADE),
        ForeignKey(("course_number",), "courses", ("course_number",),
                   on_delete=Action.CASCADE),
    ),
)

#: "book keeping of ... network information"
STATIONS = Schema(
    name="stations",
    columns=(
        Column("user_id", T.TEXT, nullable=False),
        Column("station", T.TEXT, nullable=False),
        Column("address", T.TEXT, nullable=False, default=""),
    ),
    primary_key=("user_id",),
)

#: The library catalog, as a durable administration table.  The
#: in-memory :class:`~repro.library.catalog.VirtualLibrary` (and its
#: search index) is a derived view rebuilt from these rows, so the
#: catalog survives restarts and rides the WAL to read replicas.
CATALOG_DOCS = Schema(
    name="catalog_docs",
    columns=(
        Column("doc_id", T.TEXT, nullable=False),
        Column("title", T.TEXT, nullable=False),
        Column("course_number", T.TEXT, nullable=False),
        Column("instructor", T.TEXT, nullable=False),
        Column("keywords", T.TEXT, nullable=False, default=""),
        Column("starting_url", T.TEXT),
        Column("size_bytes", T.INT, nullable=False, default=0),
    ),
    primary_key=("doc_id",),
)

ADMIN_SCHEMAS = (
    STUDENTS, COURSES, ENROLLMENTS, TRANSCRIPTS, STATIONS, CATALOG_DOCS,
)


class ClassAdministrator:
    """The middle tier: sessions, administration, routing.

    Pass ``data_dir`` to run durably: the administration tables are
    opened from ``<data_dir>/class_admin.snapshot`` plus
    ``class_admin.wal`` on startup, and every committed write is
    journaled under the given ``sync_policy`` (``"commit"`` by default
    — an acknowledged request survives a crash).  Without ``data_dir``
    the server is purely in-memory, exactly as before.
    """

    #: Each request op's handler method, looked up per request: a table
    #: of bound methods stored on the server would tie it into a
    #: reference cycle, outliving its last reference.
    _HANDLERS: dict[str, str] = {
        "admit_student": "_op_admit_student",
        "register_course": "_op_register_course",
        "enroll": "_op_enroll",
        "record_grade": "_op_record_grade",
        "transcript": "_op_transcript",
        "register_station": "_op_register_station",
        "roster": "_op_roster",
        "publish_course_document": "_op_publish",
        "withdraw_course_document": "_op_withdraw",
        "search_library": "_op_search",
        "check_out": "_op_check_out",
        "check_in": "_op_check_in",
        "assessment_report": "_op_assessment",
    }

    def __init__(
        self,
        library: VirtualLibrary | None = None,
        *,
        data_dir: str | os.PathLike[str] | None = None,
        sync_policy: SyncPolicy | str = "commit",
        admission: AdmissionController | None = None,
    ) -> None:
        self._data_dir = Path(data_dir) if data_dir is not None else None
        self._sync_policy = SyncPolicy.parse(sync_policy)
        #: What journal replay observed on startup; None in-memory mode.
        self.recovery_stats = None
        if self._data_dir is None:
            admin_db = Database("class_admin")
            for schema in ADMIN_SCHEMAS:
                admin_db.create_table(schema)
        else:
            admin_db = self._recover_admin_db()
        self._serve_from(admin_db)
        self.library = library if library is not None else VirtualLibrary()
        self.desk = CirculationDesk(self.library)
        #: A read-only replica refuses every op outside
        #: :data:`~repro.tiers.protocol.REPLICA_SAFE_OPS`.
        self.read_only = False
        if self._data_dir is not None:
            # The library is a derived view over catalog_docs; rebuild
            # it from whatever the journal replay restored.
            self.refresh_catalog()
        self._sessions: dict[str, tuple[str, Role]] = {}
        self._session_counter = itertools.count(1)
        #: Optional overload defense; None preserves v1 behaviour.
        self.admission = admission
        self.requests_served = 0
        self.clock = 0.0  # advanced by callers that care about loan times

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def _snapshot_path(self) -> Path:
        assert self._data_dir is not None
        return self._data_dir / "class_admin.snapshot"

    @property
    def _journal_path(self) -> Path:
        assert self._data_dir is not None
        return self._data_dir / "class_admin.wal"

    def _recover_admin_db(self) -> Database:
        """Open the administration database in the data directory
        (:meth:`repro.rdb.Database.open`; DESIGN §10.5).

        The tier's own policy is strict first: corruption *before* the
        final record raises with the file untouched, and only then does
        the server reopen in salvage mode — still coming up, serving the
        surviving data; :meth:`recovery_report` says exactly what was
        lost.
        """
        assert self._data_dir is not None
        self._data_dir.mkdir(parents=True, exist_ok=True)

        def open_db(salvage: bool) -> Database:
            return Database.open(
                "class_admin", ADMIN_SCHEMAS,
                snapshot_path=str(self._snapshot_path),
                journal_path=str(self._journal_path),
                sync=self._sync_policy, salvage=salvage,
            )

        try:
            db = open_db(salvage=False)
        except JournalCorruptError:
            db = open_db(salvage=True)
        self.recovery_stats = db.recovery_stats
        return db

    def checkpoint(self) -> None:
        """Snapshot the administration tables and truncate the journal
        (crash-safe at every step; no-op for an in-memory server)."""
        if self._data_dir is None:
            return
        self.admin_db.snapshot(str(self._snapshot_path))

    @property
    def journal(self) -> Journal | None:
        """The administration database's journal (None in-memory).

        Replication taps this: a :class:`repro.replication.shipper
        .WalShipper` streams exactly the frames this journal appends.
        """
        return self.admin_db.journal

    @property
    def snapshot_path(self) -> Path | None:
        """Where :meth:`checkpoint` stages snapshots (None in-memory)."""
        return self._snapshot_path if self._data_dir is not None else None

    # ------------------------------------------------------------------
    # Replication support
    # ------------------------------------------------------------------
    def refresh_catalog(self) -> int:
        """Rebuild the virtual library from the ``catalog_docs`` table.

        Called after startup recovery and, on read replicas, whenever a
        replicated frame touches the catalog; returns the entry count.
        Keywords are interned: each distinct keyword is one ``str``.
        """
        entries = [
            CatalogEntry(
                doc_id=row["doc_id"],
                title=row["title"],
                course_number=row["course_number"],
                instructor=row["instructor"],
                keywords=tuple(
                    sys.intern(k) for k in row["keywords"].split(",") if k
                ),
                starting_url=row["starting_url"],
                size_bytes=row["size_bytes"],
            )
            for row in self.admin_db.select("catalog_docs")
        ]
        return self.library.reload(entries)

    def _serve_from(self, db: Database) -> None:
        """Point the connection and a fresh, empty store at ``db``."""
        self.admin_db = db
        self.table_versions = TableVersions()
        self.table_versions.attach(db)
        # The one store of finished replies.  Repeated browser reads
        # (rosters, transcripts) are answered with the reply stored on
        # the second miss; any change to the table it derives from moves
        # that table's version and so misses, whichever path made the
        # change.  While a controller sheds, the same entries are served
        # degraded up to STALE_MAX_LAG versions behind.  The connection
        # itself reads and writes uncached.
        self.query_cache = QueryCache(self.table_versions, max_entries=512)
        self.connection = OpenDatabaseConnection(db)

    @property
    def stale_reads(self) -> QueryCache:
        """The store degraded replies are served from while shedding:
        :attr:`query_cache` itself, looked up with lag
        :data:`STALE_MAX_LAG`."""
        return self.query_cache

    def adopt_database(self, db: Database, *, read_only: bool = True) -> None:
        """Serve from an externally managed database (a read replica).

        The replication follower owns ``db`` and mutates it through the
        replay path; its tables' versions move with every applied frame,
        so the adopted connection reads through a cache like any other.
        The library view is rebuilt immediately and again on every
        catalog frame via :meth:`refresh_catalog`.
        """
        self._serve_from(db)
        self.read_only = read_only
        self.refresh_catalog()

    def install_session(self, session_id: str, user: str, role: Role) -> None:
        """Mirror a primary-issued session so this replica honours it.

        Replicas cannot mint sessions (login is a write, and the
        admitted-students check belongs on the primary); the
        :class:`~repro.tiers.replicaset.ReplicaSet` broker calls this on
        every successful login it routes.
        """
        self._sessions[session_id] = (user, role)
        if role is Role.INSTRUCTOR:
            self.library.grant_instructor(user)

    def drop_session(self, session_id: str) -> None:
        """Mirror a logout (see :meth:`install_session`)."""
        self._sessions.pop(session_id, None)

    def sessions(self) -> dict[str, tuple[str, Role]]:
        """Snapshot of live sessions (for mirroring onto new replicas)."""
        return dict(self._sessions)

    def recovery_report(self) -> dict[str, Any]:
        """What startup recovery observed, for operators and tests."""
        if self.recovery_stats is None:
            return {"durable": False}
        report: dict[str, Any] = {"durable": True}
        report.update(self.recovery_stats.as_dict())
        return report

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Admission-gate, then authorize and execute one request.

        With an :class:`~repro.admission.AdmissionController` installed,
        every request clears the quota/queue/deadline gates *before any
        work starts*; a shed request gets a typed overload response (or
        a bounded-staleness cached reply for replica-safe reads) in
        microseconds.  The effective deadline is entered as an ambient
        :func:`~repro.admission.deadline_scope` so every nested fan-out
        (shard RPC, scatter-gather, replica routing) can refuse to work
        for an expired caller.  Without a controller, v1 behaviour —
        except that a request-carried deadline still propagates (a
        request that carries none enters no scope at all).  An op the
        tier does not serve is refused the same way, before admission:
        it spends no queue slot and seeds no service estimate.  So is a
        ``deadline`` that is not a time (see :func:`_is_time`).
        """
        deadline = request.deadline
        if deadline is not None and not _is_time(deadline):
            return Response.failure(
                request, f"deadline must be a number, got {deadline!r}"
            )
        if self.admission is None or request.op not in OPERATIONS:
            if deadline is None:
                return self._timed_handle(request)
            with deadline_scope(deadline):
                return self._timed_handle(request)
        try:
            ticket = self.admission.admit(request)
        except OverloadError as exc:
            stale = self._serve_stale(request, exc)
            if stale is not None:
                return stale
            return Response.overload(
                request, str(exc), retry_after_s=exc.retry_after_s
            )
        try:
            with deadline_scope(ticket.deadline):
                response = self._timed_handle(request)
        finally:
            now = self.admission.clock()
            self.admission.complete(
                ticket, now=now, service_s=now - ticket.admitted_at
            )
        return response

    def _serve_stale(
        self, request: Request, exc: OverloadError
    ) -> Response | None:
        """A degraded (stale-cache) reply while shedding, or None.

        Only replica-safe reads from live sessions qualify, only within
        :data:`STALE_MAX_LAG` versions, and never for an already-expired
        caller (nobody is waiting for that answer).
        """
        if exc.reason == "deadline":
            return None
        if request.op not in _STALE_SERVABLE:
            return None
        session = (
            self._sessions.get(request.session_id)
            if request.session_id
            else None
        )
        if session is None:
            return None
        key = self._read_key(request, session)
        if key is None:
            return None
        hit, data = self.query_cache.lookup(key, STALE_MAX_LAG)
        if not hit:
            return None
        if OBS.enabled:
            STALE_SERVED[request.op].inc()
        return Response.success(
            request, copy_reply(data), degraded="stale-cache"
        )

    @staticmethod
    def _read_key(
        request: Request, session: tuple[str, Role]
    ) -> tuple | None:
        """Key of a stored read: op, the session's ``(user, role)`` and
        its params in any order — everything the reply depends on.

        Params that are plain strings, ints and ``None`` under string
        names — what browsers send — key as the set of their items;
        anything else (floats, lists, objects) goes by sorted ``repr``.
        """
        params = request.params
        try:
            if _PLAIN_VALUES.issuperset(
                map(type, params.values())
            ) and _PLAIN_KEYS.issuperset(map(type, params)):
                keyed: Any = frozenset(params.items())
            else:
                keyed = tuple(
                    sorted((str(k), repr(v)) for k, v in params.items())
                )
        except Exception:
            return None
        return (request.op, session, keyed)

    def _timed_handle(self, request: Request) -> Response:
        """Authorize and execute one request (timed when obs is on)."""
        if not OBS.enabled:
            return self._handle(request)
        clock = OBS.clock
        start = clock()
        response = self._handle(request)
        op = request.op if request.op in OPERATIONS else "unknown"
        REQUEST_SECONDS[op].observe(clock() - start)
        REQUESTS[op, "ok" if response.ok else "error"].inc()
        return response

    def _handle(self, request: Request) -> Response:
        """Authorize and execute one request."""
        self.requests_served += 1
        allowed = OPERATIONS.get(request.op)
        if allowed is None:
            return Response.failure(request, f"unknown operation {request.op!r}")
        if self.read_only and request.op not in REPLICA_SAFE_OPS:
            return Response.failure(
                request,
                f"read-only replica: {request.op!r} must go to the primary",
            )
        if request.op == "login":
            try:
                return self._op_login(request)
            except _BAD_PARAMS as exc:
                return Response.failure(request, f"{type(exc).__name__}: {exc}")
        session = (
            self._sessions.get(request.session_id)
            if request.session_id
            else None
        )
        if session is None:
            return Response.failure(request, "not logged in")
        user, role = session
        if role not in allowed:
            return Response.failure(
                request, f"role {role.value} may not call {request.op!r}"
            )
        if request.op == "logout":
            del self._sessions[request.session_id]  # type: ignore[arg-type]
            return Response.success(request, True)
        handler = getattr(self, self._HANDLERS[request.op])
        stored = _STORED_REPLIES.get(request.op)
        # Only a degraded reply can use a stored search: keep one only
        # beside a controller.
        searched = request.op == "search_library" and self.admission is not None
        key = (
            self._read_key(request, session) if stored or searched else None
        )
        try:
            if stored is not None and key is not None:
                data = self.query_cache.read_through(
                    key, stored, lambda: handler(request, user, role)
                )
            else:
                data = handler(request, user, role)
        except OverloadError as exc:
            # A nested fan-out (shard RPC, replica route, scatter
            # fragment) shed or hit its deadline: surface it as a shed
            # reply, not an anonymous failure — it is retryable.
            return Response.overload(
                request,
                f"{type(exc).__name__}: {exc}",
                retry_after_s=exc.retry_after_s,
            )
        except (
            RdbError, LookupError, ValueError, RuntimeError, *_BAD_PARAMS
        ) as exc:
            return Response.failure(request, f"{type(exc).__name__}: {exc}")
        if searched and key is not None and self.query_cache.admits(key):
            # The stored entry is never the object handed out.
            self.query_cache.record(key, _SEARCH_TABLES, copy_reply(data))
        return Response.success(request, data)

    # ------------------------------------------------------------------
    # Session ops
    # ------------------------------------------------------------------
    def _op_login(self, request: Request) -> Response:
        user = request.params.get("user")
        role_name = request.params.get("role")
        if not user or not role_name:
            return Response.failure(request, "login needs user and role")
        try:
            role = Role(role_name)
        except ValueError:
            return Response.failure(request, f"unknown role {role_name!r}")
        if role is Role.STUDENT:
            row = self.connection.cursor().get("students", (user,)).fetchone()
            if row is None or not row["admitted"]:
                return Response.failure(
                    request, f"student {user!r} is not admitted"
                )
        if role is Role.INSTRUCTOR:
            self.library.grant_instructor(user)
        session_id = f"sess-{next(self._session_counter)}"
        self._sessions[session_id] = (user, role)
        return Response.success(request, {"session_id": session_id})

    # ------------------------------------------------------------------
    # Administration ops
    # ------------------------------------------------------------------
    def _op_admit_student(self, request: Request, _user: str, _role: Role) -> Any:
        params = request.params
        self.connection.cursor().insert(
            "students",
            {
                "student_id": params["student_id"],
                "name": params.get("name", params["student_id"]),
                "admitted": True,
            },
        )
        return {"student_id": params["student_id"]}

    def _op_register_course(self, request: Request, user: str, role: Role) -> Any:
        params = request.params
        instructor = params.get("instructor", user)
        if role is Role.INSTRUCTOR and instructor != user:
            raise ValueError("instructors may only register their own courses")
        self.connection.cursor().insert(
            "courses",
            {
                "course_number": params["course_number"],
                "title": params["title"],
                "instructor": instructor,
            },
        )
        return {"course_number": params["course_number"]}

    def _op_enroll(self, request: Request, user: str, role: Role) -> Any:
        params = request.params
        student = params.get("student_id", user)
        if role is Role.STUDENT and student != user:
            raise ValueError("students may only enroll themselves")
        self.connection.cursor().insert(
            "enrollments",
            {"student_id": student, "course_number": params["course_number"]},
        )
        return {"student_id": student, "course_number": params["course_number"]}

    def _op_record_grade(self, request: Request, user: str, role: Role) -> Any:
        params = request.params
        course = params["course_number"]
        cursor = self.connection.cursor()
        if role is Role.INSTRUCTOR:
            row = cursor.get("courses", (course,)).fetchone()
            if row is None or row["instructor"] != user:
                raise ValueError(
                    f"{user} does not teach {course}; grade denied"
                )
        student = params["student_id"]
        if not cursor.get("enrollments", (student, course)).rowcount:
            raise ValueError(f"student {student!r} is not enrolled in {course}")
        cursor.insert("transcripts", {
            "student_id": student,
            "course_number": course,
            "grade": float(params["grade"]),
        })
        return True

    def _op_transcript(self, request: Request, user: str, role: Role) -> Any:
        student = request.params.get("student_id", user)
        if role is Role.STUDENT and student != user:
            raise ValueError("students may only view their own transcript")
        rows = self.connection.cursor().rows_by_key(
            "transcripts", ("student_id",), (student,)
        ).fetchall()
        rows.sort(key=_sort_key(("course_number",), rows))
        return rows

    def _op_register_station(self, request: Request, user: str, _role: Role) -> Any:
        params = request.params
        station = {
            "station": params["station"],
            "address": params.get("address", ""),
        }
        cursor = self.connection.cursor()
        if not cursor.update_pk("stations", (user,), station).rowcount:
            cursor.insert("stations", {"user_id": user, **station})
        return {"station": params["station"]}

    def _op_roster(self, request: Request, _user: str, _role: Role) -> Any:
        course = request.params["course_number"]
        # student_id is never null: the ids sort as the rows did by it.
        students = self.connection.cursor().rows_by_key(
            "enrollments", ("course_number",), (course,), "student_id"
        ).fetchall()
        students.sort()
        return students

    # ------------------------------------------------------------------
    # Library ops
    # ------------------------------------------------------------------
    def _op_publish(self, request: Request, user: str, _role: Role) -> Any:
        params = request.params
        size = params.get("size_bytes", 0)
        if type(size) is not int or size < 0:
            raise ValueError(
                f"size_bytes must be a non-negative int, got {size!r}"
            )
        entry = CatalogEntry(
            doc_id=params["doc_id"],
            title=params["title"],
            course_number=params["course_number"],
            instructor=user,
            keywords=tuple(params.get("keywords", ())),
            starting_url=params.get("starting_url"),
            size_bytes=size,
        )
        self.library.add_document(user, entry)
        try:
            self.connection.cursor().insert("catalog_docs", {
                "doc_id": entry.doc_id,
                "title": entry.title,
                "course_number": entry.course_number,
                "instructor": entry.instructor,
                "keywords": ",".join(entry.keywords),
                "starting_url": entry.starting_url,
                "size_bytes": entry.size_bytes,
            })
        except (RdbError, *_BAD_PARAMS):
            # Keep the derived view and the table in step.
            self.library.remove_document(user, entry.doc_id)
            raise
        return {"doc_id": entry.doc_id}

    def _op_withdraw(self, request: Request, user: str, _role: Role) -> Any:
        doc_id = request.params["doc_id"]
        removed = self.library.remove_document(user, doc_id)
        if removed:
            self.connection.cursor().delete_pk("catalog_docs", (doc_id,))
        return removed

    def _op_search(self, request: Request, _user: str, _role: Role) -> Any:
        params = request.params
        results = self.library.search(
            keywords=params.get("keywords"),
            instructor=params.get("instructor"),
            course=params.get("course"),
            limit=params.get("limit"),
        )
        return [
            {"doc_id": doc_id, "score": score} for doc_id, score in results
        ]

    def _op_check_out(self, request: Request, user: str, _role: Role) -> Any:
        time = float(request.params.get("time", self.clock))
        loan = self.desk.check_out(user, request.params["doc_id"], time)
        return {"doc_id": loan.doc_id, "checked_out_at": loan.checked_out_at}

    def _op_check_in(self, request: Request, user: str, _role: Role) -> Any:
        time = float(request.params.get("time", self.clock))
        held = self.desk.check_in(user, request.params["doc_id"], time)
        return {"held_seconds": held}

    def _op_assessment(self, request: Request, _user: str, _role: Role) -> Any:
        report = assess(self.desk, self.library)
        return [
            {
                "student": a.student,
                "checkouts": a.checkouts,
                "checkins": a.checkins,
                "distinct_documents": a.distinct_documents,
                "activity_score": a.activity_score,
            }
            for a in report.ranking()
        ]
