"""Differential: the tier's keyed probes against the select-based recipes.

``record_grade``, ``register_station``, ``login`` and
``withdraw_course_document`` check and write rows by primary key
(``Cursor.get`` / ``update_pk`` / ``delete_pk``); ``transcript`` and
``roster`` read the rows under one foreign key (``Cursor.rows_by_key``)
and sort them.  :class:`SelectRecipes` keeps the form they replaced — a
planned, cached ``select`` on the key, ordered by the select, then
``update``/``delete(where=…)`` — as the reference, and a seeded op
stream that walks every failure path (not enrolled, wrong instructor,
first vs repeat station, malformed params, unknown documents) must get
the same replies, leave the same rows and write the same journal and
snapshot bytes through both.  Hypothesis interleaves admits,
enrollments, grades, rollbacks and replicated apply with transcript and
roster reads whose params are well-formed, null, of the wrong type,
unhashable or empty, and the two must answer every read alike.
"""

from __future__ import annotations

import random
from typing import Any

import pytest
from hypothesis import given, settings

from repro.fault.crashsim import database_state
from repro.rdb import Database, RdbError, col
from repro.tiers import (
    ClassAdministrator,
    OpenDatabaseConnection,
    QueryCache,
    Request,
    Response,
    Role,
)
from repro.tiers.protocol import OPERATIONS

from tests.tiers.test_cache_properties import (
    COURSE_IDS,
    STUDENT_IDS,
    TIER_ACTIONS,
    _tier_apply,
)

#: The reads a browser repeats: the only ops that go through the cache.
CACHED_READS = frozenset({"transcript", "roster"})


class SelectRecipes(ClassAdministrator):
    """The six ops as a planned select on the key, read through the
    result cache, then ``update``/``delete(where=…)``."""

    def _serve_from(self, db: Database) -> None:
        super()._serve_from(db)
        self.connection = OpenDatabaseConnection(db, cache=self.query_cache)

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
            cursor = self.connection.cursor().select(
                "students", where=col("student_id") == user
            )
            row = cursor.fetchone()
            if row is None or not row["admitted"]:
                return Response.failure(
                    request, f"student {user!r} is not admitted"
                )
        if role is Role.INSTRUCTOR:
            self.library.grant_instructor(user)
        session_id = f"sess-{next(self._session_counter)}"
        self._sessions[session_id] = (user, role)
        return Response.success(request, {"session_id": session_id})

    def _op_record_grade(self, request: Request, user: str, role: Role) -> Any:
        params = request.params
        course = params["course_number"]
        if role is Role.INSTRUCTOR:
            cursor = self.connection.cursor().select(
                "courses", where=col("course_number") == course
            )
            row = cursor.fetchone()
            if row is None or row["instructor"] != user:
                raise ValueError(
                    f"{user} does not teach {course}; grade denied"
                )
        enrolled = self.connection.cursor().select(
            "enrollments",
            where=(col("student_id") == params["student_id"])
            & (col("course_number") == course),
        )
        if enrolled.fetchone() is None:
            raise ValueError(
                f"student {params['student_id']!r} is not enrolled in {course}"
            )
        self.connection.cursor().insert(
            "transcripts",
            {
                "student_id": params["student_id"],
                "course_number": course,
                "grade": float(params["grade"]),
            },
        )
        return True

    def _op_transcript(self, request: Request, user: str, role: Role) -> Any:
        student = request.params.get("student_id", user)
        if role is Role.STUDENT and student != user:
            raise ValueError("students may only view their own transcript")
        cursor = self.connection.cursor().select(
            "transcripts",
            where=col("student_id") == student,
            order_by="course_number",
        )
        return cursor.fetchall()

    def _op_roster(self, request: Request, _user: str, _role: Role) -> Any:
        course = request.params["course_number"]
        cursor = self.connection.cursor().select(
            "enrollments",
            where=col("course_number") == course,
            order_by="student_id",
        )
        return [row["student_id"] for row in cursor.fetchall()]

    def _op_register_station(self, request: Request, user: str, _role: Role) -> Any:
        params = request.params
        cursor = self.connection.cursor()
        existing = cursor.select(
            "stations", where=col("user_id") == user
        ).fetchone()
        if existing is None:
            cursor.insert(
                "stations",
                {
                    "user_id": user,
                    "station": params["station"],
                    "address": params.get("address", ""),
                },
            )
        else:
            cursor.update(
                "stations",
                {
                    "station": params["station"],
                    "address": params.get("address", ""),
                },
                where=col("user_id") == user,
            )
        return {"station": params["station"]}

    def _op_withdraw(self, request: Request, user: str, _role: Role) -> Any:
        doc_id = request.params["doc_id"]
        removed = self.library.remove_document(user, doc_id)
        if removed:
            self.connection.cursor().delete(
                "catalog_docs", where=col("doc_id") == doc_id
            )
        return removed


STUDENTS = [f"s{n}" for n in range(8)]
COURSES = [f"c{n}" for n in range(5)]
INSTRUCTORS = ["shih", "ma", "lee", "kim"]
DOCS = [f"d{n}" for n in range(4)]
#: Malformed values for any param: wrong type, unhashable, null.
ODD = [None, 5, ["c0"], {"k": "c0"}, True]
#: ... and for the key of a read, also the empty string.
ODD_KEYS = [*ODD, ""]
#: ``register_station`` params, refused and accepted, from a user with
#: no station yet and then from one with a station.
FIRST_THEN_REPEAT = [
    {}, {"station": None}, {"station": "w1", "address": None},
    {"station": ["w1"]}, {"station": "w1", "address": 5},
    {"station": "w1"},
    {}, {"station": None}, {"station": "w2", "address": None},
    {"station": ["w2"]}, {"station": "w2", "address": 5},
    {"station": "w2", "address": "10.0.0.9"},
]


def op_stream(seed: int, count: int) -> list[tuple[Role | None, str, dict]]:
    """``(role, op, params)``: each op is sent from the session the last
    successful login of ``role`` opened (``None`` for a login)."""
    rng = random.Random(seed)

    def maybe_odd(value: Any, share: float = 0.08, odd: list = ODD) -> Any:
        return rng.choice(odd) if rng.random() < share else value

    def params_of(op: str) -> dict[str, Any]:
        if op == "login":
            # Admitted or not, or a value no student id can be; an
            # administrator's user is never checked.
            role = rng.choice(["student", "student", "instructor",
                               "administrator"])
            user = {
                "student": [*STUDENTS, "ghost", ["s0"], {"u": "s1"}],
                "instructor": INSTRUCTORS,
                "administrator": ["registrar", "dean", "clerk", ["registrar"]],
            }[role]
            return {"user": rng.choice(user), "role": role}
        if op == "admit_student":
            return {"student_id": maybe_odd(rng.choice(STUDENTS))}
        if op == "register_course":
            return {"course_number": maybe_odd(rng.choice(COURSES)),
                    "title": "T", "instructor": rng.choice(INSTRUCTORS)}
        if op == "enroll":
            return {"student_id": rng.choice(STUDENTS),
                    "course_number": maybe_odd(rng.choice(COURSES))}
        if op == "record_grade":
            return {"student_id": maybe_odd(rng.choice(STUDENTS)),
                    "course_number": maybe_odd(rng.choice(COURSES)),
                    "grade": maybe_odd(rng.choice([2.0, 3.5, 4.0, 4.5]))}
        if op == "register_station":
            # Malformed often: a user's first station takes the insert.
            params = {"station": maybe_odd(rng.choice(["w1", "w2"]), 0.2)}
            if rng.random() < 0.7:
                params["address"] = maybe_odd(f"10.0.0.{rng.randrange(4)}", 0.2)
            return params
        if op == "publish_course_document":
            return {"doc_id": rng.choice(DOCS), "title": "notes",
                    "course_number": rng.choice(COURSES)}
        if op == "withdraw_course_document":
            return {"doc_id": maybe_odd(rng.choice([*DOCS, "d9"]))}
        if op == "transcript":
            return {"student_id": maybe_odd(rng.choice(STUDENTS), 0.2, ODD_KEYS)}
        # roster
        return {"course_number": maybe_odd(rng.choice(COURSES), 0.2, ODD_KEYS)}

    ops = [
        "admit_student", "register_course", "enroll", "record_grade",
        "record_grade", "register_station", "register_station",
        "publish_course_document", "withdraw_course_document",
        "transcript", "roster", "login",
    ]
    stream: list[tuple[Role | None, str, dict]] = []
    for _ in range(count):
        op = rng.choice(ops)
        params = params_of(op)
        if op == "login":
            stream.append((None, op, params))
            continue
        for name in list(params):
            if rng.random() < 0.02:
                del params[name]  # a missing param
        role = rng.choice(sorted(OPERATIONS[op], key=lambda r: r.value))
        stream.append((role, op, params))
    return stream


def _drive(
    servers: list[ClassAdministrator], stream: list[tuple[Role | None, str, dict]]
) -> list[list[tuple]]:
    """Send every request to every server in turn; returns each one's
    ``(op, ok, data, error)`` replies, asserting on the way that the
    keyed server looked nothing up in its cache outside the reads."""
    replies: list[list[tuple]] = [[] for _ in servers]

    def send(session: str | None, op: str, params: dict) -> Response:
        request = Request(op, session, params)
        for server, log in zip(servers, replies):
            before = server.query_cache.stats()
            response = server.handle(request)
            after = server.query_cache.stats()
            lookups = sum(after[k] - before[k]
                          for k in ("hits", "misses", "bypasses"))
            if type(server) is ClassAdministrator and op not in CACHED_READS:
                assert lookups == 0, (op, params)
            log.append((op, response.ok, response.data, response.error))
        return response

    sessions: dict[Role, str] = {}
    for role, user in ((Role.ADMINISTRATOR, "registrar"),
                       (Role.INSTRUCTOR, "shih")):
        sessions[role] = send(
            None, "login", {"user": user, "role": role.value}
        ).data["session_id"]
    send(sessions[Role.ADMINISTRATOR], "admit_student", {"student_id": "s0"})
    sessions[Role.STUDENT] = send(
        None, "login", {"user": "s0", "role": "student"}
    ).data["session_id"]
    # A user's first station takes the insert, every later one the
    # update: each refused both ways, then accepted both ways.
    for station in FIRST_THEN_REPEAT:
        for session in sessions.values():
            send(session, "register_station", station)
    for role, op, params in stream:
        if role is None:
            reply = send(None, op, params)
            if reply.ok:
                sessions[Role(params["role"])] = reply.data["session_id"]
        else:
            send(sessions[role], op, params)
    return replies


@pytest.mark.parametrize("seed", [3, 17])
def test_keyed_ops_answer_and_write_what_the_select_recipes_did(tmp_path, seed):
    keyed = ClassAdministrator(data_dir=tmp_path / "keyed", sync_policy="none")
    reference = SelectRecipes(
        data_dir=tmp_path / "reference", sync_policy="none"
    )
    stream = op_stream(seed, 1500)
    keyed_replies, reference_replies = _drive([keyed, reference], stream)
    assert keyed_replies == reference_replies
    # The stream reached every path it is meant to.
    errors = " ".join(
        str(error) for _op, ok, _data, error in keyed_replies if not ok
    )
    for path in ("does not teach", "is not enrolled", "is not admitted",
                 "TypeError", "KeyError", "expects str", "may not be null"):
        assert path in errors, path
    stations = [r for r in keyed_replies if r[0] == "register_station" and r[1]]
    assert len(stations) > len(keyed.admin_db.select("stations")) > 0
    assert any(r[0] == "withdraw_course_document" and r[2] is True
               for r in keyed_replies)
    assert database_state(keyed.admin_db) == database_state(reference.admin_db)
    journal = "class_admin.wal"
    assert (tmp_path / "keyed" / journal).read_bytes() \
        == (tmp_path / "reference" / journal).read_bytes()
    keyed.checkpoint()
    reference.checkpoint()
    for name in ("class_admin.snapshot", journal):
        assert (tmp_path / "keyed" / name).read_bytes() \
            == (tmp_path / "reference" / name).read_bytes(), name
    # The reference pays a cache lookup per probe; the keyed server none.
    assert reference.query_cache.stats()["misses"] \
        > keyed.query_cache.stats()["misses"]


#: Every read key a browser could send: well-formed, absent, null, of
#: the wrong type, unhashable, empty.
READ_KEYS = [*STUDENT_IDS, *COURSE_IDS, "ghost", *ODD_KEYS]


@settings(max_examples=60, deadline=None)
@given(actions=TIER_ACTIONS)
def test_keyed_reads_answer_what_the_select_recipes_did(actions):
    servers = [ClassAdministrator(), SelectRecipes()]
    for server in servers:
        # One slot: a read of another key than the last runs its handler.
        server.query_cache = QueryCache(server.table_versions, max_entries=1)

    def call(session, op, **params):
        return [server.handle(Request(op, session, params))
                for server in servers]

    def same(replies):
        keyed, reference = ((r.ok, r.data, r.error) for r in replies)
        assert keyed == reference
        return replies[0]

    admin = same(call(None, "login", user="registrar",
                      role="administrator")).data["session_id"]
    for course in COURSE_IDS:
        same(call(admin, "register_course", course_number=course,
                  title="T", instructor="shih"))
    same(call(admin, "admit_student", student_id="s0"))
    student = same(call(None, "login", user="s0",
                        role="student")).data["session_id"]
    answered = 0
    for action in actions:
        for server in servers:
            try:
                _tier_apply(server, admin, action)
            except RdbError:
                pass  # no open transaction, apply inside one, ...
        assert database_state(servers[0].admin_db) \
            == database_state(servers[1].admin_db)
        for key in READ_KEYS:
            answered += same(call(admin, "transcript", student_id=key)).ok
            answered += same(call(admin, "roster", course_number=key)).ok
            same(call(student, "transcript", student_id=key))
        same(call(admin, "roster"))  # a missing param
        answered += same(call(student, "transcript")).ok
    assert answered >= len(actions) * len(READ_KEYS)
