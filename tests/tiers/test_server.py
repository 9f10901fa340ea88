"""Tests for the class administrator middle tier."""

import pytest

from repro.tiers import ClassAdministrator, Request, Role


@pytest.fixture
def server() -> ClassAdministrator:
    return ClassAdministrator()


def _login(server, user, role) -> str:
    response = server.handle(Request(
        op="login", session_id=None, params={"user": user, "role": role},
    ))
    return response.unwrap()["session_id"]


def _call(server, session, op, **params):
    return server.handle(Request(op=op, session_id=session, params=params))


@pytest.fixture
def admin_session(server) -> str:
    return _login(server, "registrar", "administrator")


@pytest.fixture
def instructor_session(server) -> str:
    return _login(server, "shih", "instructor")


class TestRequestMetrics:
    def test_requests_counted_by_op_and_status(self, server,
                                               metrics_registry):
        _login(server, "registrar", "administrator")
        denied = server.handle(Request(op="login", session_id=None,
                                       params={"user": "x"}))
        assert not denied.ok
        snap = metrics_registry.snapshot()
        ok_key = ("tiers.requests", (("op", "login"), ("status", "ok")))
        err_key = ("tiers.requests", (("op", "login"), ("status", "error")))
        assert snap.counters[ok_key] == 1
        assert snap.counters[err_key] == 1
        # Each handled request was timed exactly once.
        latency = ("tiers.request_seconds", (("op", "login"),))
        assert snap.histograms[latency].count == 2


    def test_a_transcript_miss_is_observed_as_its_index_probe(
            self, server, admin_session, metrics_registry):
        shih = _login(server, "shih", "instructor")
        _call(server, admin_session, "admit_student", student_id="alice")
        for course in ("c2", "c1"):
            _call(server, shih, "register_course", course_number=course,
                  title="T")
            _call(server, admin_session, "enroll", student_id="alice",
                  course_number=course)
            _call(server, shih, "record_grade", student_id="alice",
                  course_number=course, grade=3.0).unwrap()
        table = (("table", "transcripts"),)
        points = {
            "returned": ("rdb.rows_returned", table),
            "scanned": ("rdb.rows_scanned", table),
            "planned": ("rdb.plan", (("path", "index:__fk_0__"), *table)),
        }

        def counts():
            counters = metrics_registry.snapshot().counters
            return {name: counters.get(key, 0) for name, key in points.items()}

        # A first miss stores nothing; measure the second, which stores.
        _call(server, admin_session, "transcript", student_id="alice")
        before = counts()
        rows = _call(server, admin_session, "transcript",
                     student_id="alice").unwrap()
        assert [row["course_number"] for row in rows] == ["c1", "c2"]
        missed = counts()
        assert missed == {"returned": before["returned"] + 2,
                          "scanned": before["scanned"] + 2,
                          "planned": before["planned"] + 1}
        # The repeat is the stored reply: no rows are read.
        _call(server, admin_session, "transcript", student_id="alice")
        assert counts() == missed


class TestSessions:
    def test_login_creates_session(self, server):
        session = _login(server, "registrar", "administrator")
        assert session.startswith("sess-")

    def test_login_requires_user_and_role(self, server):
        response = server.handle(Request(op="login", session_id=None,
                                         params={"user": "x"}))
        assert not response.ok

    def test_unknown_role(self, server):
        response = server.handle(Request(
            op="login", session_id=None,
            params={"user": "x", "role": "superuser"},
        ))
        assert not response.ok

    def test_student_login_requires_admission(self, server, admin_session):
        denied = server.handle(Request(
            op="login", session_id=None,
            params={"user": "alice", "role": "student"},
        ))
        assert not denied.ok and "not admitted" in denied.error
        _call(server, admin_session, "admit_student", student_id="alice")
        allowed = server.handle(Request(
            op="login", session_id=None,
            params={"user": "alice", "role": "student"},
        ))
        assert allowed.ok

    def test_request_without_session_rejected(self, server):
        response = _call(server, None, "transcript")
        assert not response.ok and "not logged in" in response.error

    def test_logout_invalidates_session(self, server, admin_session):
        _call(server, admin_session, "logout")
        response = _call(server, admin_session, "transcript")
        assert not response.ok

    def test_unknown_operation(self, server, admin_session):
        response = _call(server, admin_session, "fly_to_moon")
        assert not response.ok and "unknown operation" in response.error


class TestMalformedParams:
    """Params are input from outside the program: a value of the wrong
    shape is a failure reply, never an exception out of ``handle``."""

    @pytest.mark.parametrize("op, params, error", [
        ("record_grade",
         {"student_id": "alice", "course_number": "c1", "grade": None},
         "TypeError: float()"),
        ("record_grade",
         {"student_id": "alice", "course_number": "c1", "grade": [3]},
         "TypeError: float()"),
        ("admit_student", {"student_id": ["x"]},
         "TypeError: column 'student_id' expects str"),
        ("search_library", {"keywords": 5},
         "AttributeError: 'int' object has no attribute 'lower'"),
        ("search_library", {"course": ["c1"]},
         "AttributeError: 'list' object has no attribute 'lower'"),
    ], ids=["grade-none", "grade-list", "student-id-list", "keywords-int",
            "course-number-list"])
    def test_op_handler_answers_with_a_failure(
            self, server, admin_session, op, params, error):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, admin_session, "register_course",
              course_number="c1", title="T", instructor="shih")
        _call(server, admin_session, "enroll",
              student_id="alice", course_number="c1")
        response = _call(server, admin_session, op, **params)
        assert not response.ok and not response.shed
        assert response.error.startswith(error)
        # ... and the server keeps serving.
        assert _call(server, admin_session, "roster",
                     course_number="c1").unwrap() == ["alice"]

    def test_login_answers_with_a_failure(self, server):
        response = server.handle(Request(
            op="login", session_id=None,
            params={"user": ["u"], "role": "student"},
        ))
        assert not response.ok
        assert response.error == "student ['u'] is not admitted"

    def test_unhashable_key_of_a_read_matches_no_row(
            self, server, admin_session):
        """``WHERE key = <a list>`` is false for every row, whichever
        access path the planner takes: the engine answers an empty
        roster, it does not raise out of an index probe."""
        response = _call(server, admin_session, "roster",
                         course_number=["c1"])
        assert response.ok and response.data == []


#: Numeric params past what a float holds: each op must answer them
#: with a failure reply, not raise out of ``handle`` (``float(10**400)``
#: and ``int(float("inf"))`` raise ``OverflowError``).
OUT_OF_RANGE = [
    ("check_out", {"doc_id": "d1", "time": 10**400}, "OverflowError"),
    ("check_in", {"doc_id": "d1", "time": 10**400}, "OverflowError"),
    ("record_grade",
     {"student_id": "alice", "course_number": "c1", "grade": 10**400},
     "OverflowError"),
    ("publish_course_document",
     {"doc_id": "d2", "title": "T", "course_number": "c1",
      "size_bytes": float("inf")},
     "ValueError: size_bytes must be a non-negative int"),
]
OUT_OF_RANGE_IDS = ["check-out", "check-in", "record-grade", "publish"]


def seed_out_of_range(call):
    """Admit and enroll alice, publish d1 and lend it to her; returns
    the session each :data:`OUT_OF_RANGE` op is sent from.  ``call(session,
    op, **params)`` sends one request and returns its reply."""
    admin = call(None, "login", user="registrar",
                 role="administrator").data["session_id"]
    shih = call(None, "login", user="shih",
                role="instructor").data["session_id"]
    call(admin, "admit_student", student_id="alice")
    call(shih, "register_course", course_number="c1", title="T")
    call(admin, "enroll", student_id="alice", course_number="c1")
    call(shih, "publish_course_document", doc_id="d1", title="T",
         course_number="c1")
    alice = call(None, "login", user="alice",
                 role="student").data["session_id"]
    assert call(alice, "check_out", doc_id="d1", time=0.0).ok
    return {"check_out": alice, "check_in": alice, "record_grade": shih,
            "publish_course_document": shih}


class TestOutOfRangeParams:
    @pytest.mark.parametrize("op, params, error", OUT_OF_RANGE,
                             ids=OUT_OF_RANGE_IDS)
    def test_answered_with_a_failure(self, server, op, params, error):
        def call(session, op, **params):
            return server.handle(Request(op, session, params))

        sessions = seed_out_of_range(call)
        if op == "check_out":
            call(sessions[op], "check_in", doc_id="d1", time=1.0)
        response = call(sessions[op], op, **params)
        assert not response.ok and not response.shed
        assert response.error.startswith(error), response.error
        assert len(server.desk.log) == (2 if op == "check_out" else 1)
        assert server.connection.cursor().select("transcripts").rowcount == 0
        assert "d2" not in server.library

    @pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_times_are_refused(self, server, time):
        def call(session, op, **params):
            return server.handle(Request(op, session, params))

        alice = seed_out_of_range(call)["check_in"]
        refused = call(alice, "check_in", doc_id="d1", time=time)
        assert not refused.ok and "must be finite" in refused.error
        assert call(alice, "check_in", doc_id="d1",
                    time=5.0).unwrap() == {"held_seconds": 5.0}
        refused = call(alice, "check_out", doc_id="d1", time=time)
        assert not refused.ok and "must be finite" in refused.error
        assert not server.desk.has_out("alice", "d1")
        assert [event.time for event in server.desk.log] == [0.0, 5.0]


class TestAuthorization:
    def test_student_cannot_admit(self, server, admin_session):
        _call(server, admin_session, "admit_student", student_id="alice")
        student = _login(server, "alice", "student")
        response = _call(server, student, "admit_student", student_id="bob")
        assert not response.ok and "may not call" in response.error

    def test_instructor_cannot_register_others_courses(
        self, server, instructor_session
    ):
        response = _call(
            server, instructor_session, "register_course",
            course_number="X1", title="T", instructor="someone_else",
        )
        assert not response.ok

    def test_student_sees_only_own_transcript(self, server, admin_session):
        for student in ("alice", "bob"):
            _call(server, admin_session, "admit_student", student_id=student)
        alice = _login(server, "alice", "student")
        response = _call(server, alice, "transcript", student_id="bob")
        assert not response.ok

    def test_instructor_grades_only_own_courses(
        self, server, admin_session, instructor_session
    ):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, admin_session, "register_course",
              course_number="MM1", title="T", instructor="ma")
        _call(server, admin_session, "enroll",
              student_id="alice", course_number="MM1")
        response = _call(server, instructor_session, "record_grade",
                         student_id="alice", course_number="MM1", grade=4.0)
        assert not response.ok and "does not teach" in response.error


class TestAdministration:
    def test_enroll_requires_admitted_student_and_course(
        self, server, admin_session
    ):
        response = _call(server, admin_session, "enroll",
                         student_id="ghost", course_number="none")
        assert not response.ok  # FK violation surfaces as failure

    def test_grade_requires_enrollment(
        self, server, admin_session, instructor_session
    ):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, instructor_session, "register_course",
              course_number="CS1", title="T")
        response = _call(server, instructor_session, "record_grade",
                         student_id="alice", course_number="CS1", grade=4.0)
        assert not response.ok and "not enrolled" in response.error

    def test_full_transcript_flow(
        self, server, admin_session, instructor_session
    ):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, instructor_session, "register_course",
              course_number="CS1", title="T")
        _call(server, admin_session, "enroll",
              student_id="alice", course_number="CS1")
        _call(server, instructor_session, "record_grade",
              student_id="alice", course_number="CS1", grade=3.5)
        transcript = _call(server, admin_session, "transcript",
                           student_id="alice").unwrap()
        assert transcript == [
            {"student_id": "alice", "course_number": "CS1", "grade": 3.5}
        ]

    def test_roster(self, server, admin_session, instructor_session):
        _call(server, instructor_session, "register_course",
              course_number="CS1", title="T")
        for student in ("bob", "alice"):
            _call(server, admin_session, "admit_student", student_id=student)
            _call(server, admin_session, "enroll",
                  student_id=student, course_number="CS1")
        roster = _call(server, instructor_session, "roster",
                       course_number="CS1").unwrap()
        assert roster == ["alice", "bob"]

    def test_station_registration_upserts(self, server, admin_session):
        _call(server, admin_session, "register_station", station="w1")
        _call(server, admin_session, "register_station", station="w2",
              address="10.0.0.2")
        cursor = server.connection.cursor().select("stations")
        rows = cursor.fetchall()
        assert len(rows) == 1 and rows[0]["station"] == "w2"


class TestLibraryOps:
    def test_publish_search_checkout_flow(self, server, admin_session,
                                          instructor_session):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, instructor_session, "publish_course_document",
              doc_id="d1", title="Multimedia Lecture", course_number="MM1",
              keywords=["video"])
        alice = _login(server, "alice", "student")
        hits = _call(server, alice, "search_library",
                     keywords="video").unwrap()
        assert [h["doc_id"] for h in hits] == ["d1"]
        _call(server, alice, "check_out", doc_id="d1", time=0.0)
        held = _call(server, alice, "check_in",
                     doc_id="d1", time=30.0).unwrap()
        assert held["held_seconds"] == 30.0

    def test_refused_check_in_keeps_the_loan(self, server, admin_session,
                                             instructor_session):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, instructor_session, "publish_course_document",
              doc_id="d1", title="T", course_number="C")
        alice = _login(server, "alice", "student")
        _call(server, alice, "check_out", doc_id="d1", time=10.0)
        early = _call(server, alice, "check_in", doc_id="d1", time=5.0)
        assert not early.ok and "check-in before check-out" in early.error
        assert server.desk.has_out("alice", "d1")
        held = _call(server, alice, "check_in", doc_id="d1", time=40.0)
        assert held.unwrap() == {"held_seconds": 30.0}

    def test_publish_refused_by_the_index_leaves_no_catalog_entry(
            self, server, instructor_session):
        # keywords=[1] fails tokenizing inside the search index: the
        # catalog must not keep the entry, so the corrected retry is a
        # first publish, not "already published".
        refused = _call(server, instructor_session, "publish_course_document",
                        doc_id="d1", title="T", course_number="C",
                        keywords=[1])
        assert not refused.ok and "AttributeError" in refused.error
        assert "d1" not in server.library
        retry = _call(server, instructor_session, "publish_course_document",
                      doc_id="d1", title="T", course_number="C",
                      keywords=["video"])
        assert retry.unwrap() == {"doc_id": "d1"}
        hits = _call(server, instructor_session, "search_library",
                     keywords="video").unwrap()
        assert [h["doc_id"] for h in hits] == ["d1"]

    @pytest.mark.parametrize("limit", [-1, "10"])
    def test_malformed_search_limit_is_a_failure_reply(
            self, server, instructor_session, limit):
        # Params arrive off the wire unvalidated: a bad limit must come
        # back as a failure reply naming the validation that refused it
        # (not the TypeError a str limit would raise in a slice), and -1
        # must not be served as "all but the last hit".
        _call(server, instructor_session, "publish_course_document",
              doc_id="d1", title="T", course_number="C")
        response = _call(server, instructor_session, "search_library",
                         course="C", limit=limit)
        assert not response.ok
        assert "ValueError" in response.error

    def test_publish_refused_by_the_table_leaves_no_library_entry(
            self, server, instructor_session):
        # doc_id=5 passes the derived view (any hashable keys it) and is
        # refused by the column check: the view must be rolled back.
        response = _call(server, instructor_session,
                         "publish_course_document",
                         doc_id=5, title="T", course_number="C")
        assert not response.ok and "TypeError" in response.error
        assert 5 not in server.library
        assert _call(server, instructor_session, "search_library",
                     course="C").unwrap() == []

    @pytest.mark.parametrize("size", [3.9, True, -5, "10", None,
                                      float("inf"), float("nan")])
    def test_publish_refuses_a_size_that_is_not_a_byte_count(
            self, server, instructor_session, size):
        response = _call(server, instructor_session,
                         "publish_course_document", doc_id="d1", title="T",
                         course_number="C", size_bytes=size)
        assert not response.ok
        assert "size_bytes must be a non-negative int" in response.error
        assert "d1" not in server.library
        assert server.connection.cursor().select("catalog_docs").rowcount == 0

    @pytest.mark.parametrize("params, stored", [
        ({}, 0), ({"size_bytes": 0}, 0), ({"size_bytes": 4096}, 4096),
    ])
    def test_publish_stores_a_byte_count_as_given(
            self, server, instructor_session, params, stored):
        _call(server, instructor_session, "publish_course_document",
              doc_id="d1", title="T", course_number="C", **params).unwrap()
        (row,) = server.connection.cursor().select("catalog_docs").fetchall()
        assert row["size_bytes"] == stored
        assert server.library.get("d1").size_bytes == stored

    def test_withdraw(self, server, instructor_session):
        _call(server, instructor_session, "publish_course_document",
              doc_id="d1", title="T", course_number="C")
        assert _call(server, instructor_session,
                     "withdraw_course_document", doc_id="d1").unwrap() is True

    def test_assessment_report(self, server, admin_session,
                               instructor_session):
        _call(server, admin_session, "admit_student", student_id="alice")
        _call(server, instructor_session, "publish_course_document",
              doc_id="d1", title="T", course_number="C")
        alice = _login(server, "alice", "student")
        _call(server, alice, "check_out", doc_id="d1", time=0.0)
        report = _call(server, instructor_session,
                       "assessment_report").unwrap()
        assert report[0]["student"] == "alice"
        assert report[0]["checkouts"] == 1

    def test_requests_counted(self, server, admin_session):
        before = server.requests_served
        _call(server, admin_session, "transcript")
        assert server.requests_served == before + 1


class TestDurableServer:
    """Restart-with-data-directory behaviour (satellite of the WAL v2
    durability work): acked admin writes survive crashes, damaged
    journals come up in salvage mode, metrics report what happened."""

    def _populate(self, server):
        session = _login(server, "registrar", "administrator")
        _call(server, session, "admit_student", student_id="alice",
              name="Alice")
        _call(server, session, "register_course", course_number="cs101",
              title="Intro", instructor="shih")
        _call(server, session, "enroll", student_id="alice",
              course_number="cs101")

    def _crash(self, server):
        """Drop the server without closing the journal cleanly."""
        server.admin_db._journal._fh.close()

    def test_restart_replays_acked_writes(self, tmp_path):
        first = ClassAdministrator(data_dir=tmp_path)
        self._populate(first)
        self._crash(first)
        second = ClassAdministrator(data_dir=tmp_path)
        report = second.recovery_report()
        assert report["durable"] is True
        assert report["records_recovered"] == 3
        assert report["salvaged"] is False
        session = _login(second, "registrar", "administrator")
        roster = _call(second, session, "roster", course_number="cs101")
        assert roster.unwrap() == ["alice"]

    def test_in_memory_server_reports_not_durable(self):
        server = ClassAdministrator()
        assert server.recovery_report() == {"durable": False}
        server.checkpoint()  # no-op, must not raise

    def test_checkpoint_then_restart_skips_replay(self, tmp_path):
        first = ClassAdministrator(data_dir=tmp_path)
        self._populate(first)
        first.checkpoint()
        self._crash(first)
        second = ClassAdministrator(data_dir=tmp_path)
        report = second.recovery_report()
        assert report["records_recovered"] == 0  # all rows via snapshot
        assert report["watermark"] == 3
        session = _login(second, "registrar", "administrator")
        assert _call(second, session, "roster",
                     course_number="cs101").unwrap() == ["alice"]

    def test_torn_tail_restart_serves_committed_prefix(self, tmp_path):
        first = ClassAdministrator(data_dir=tmp_path)
        self._populate(first)
        self._crash(first)
        wal = tmp_path / "class_admin.wal"
        wal.write_bytes(wal.read_bytes()[:-9])  # crash mid-append
        second = ClassAdministrator(data_dir=tmp_path)
        report = second.recovery_report()
        assert report["torn_tails"] == 1
        assert report["records_recovered"] == 2  # enroll lost, rest kept
        session = _login(second, "registrar", "administrator")
        assert _call(second, session, "roster",
                     course_number="cs101").unwrap() == []
        students = second.connection.cursor().select("students").fetchall()
        assert [r["student_id"] for r in students] == ["alice"]

    def test_torn_tail_is_tallied_once(self, tmp_path, metrics_registry):
        """One scan opens the journal, so there is one tally of what it
        found — and the trim it ends with leaves nothing to find next
        time."""
        first = ClassAdministrator(data_dir=tmp_path)
        self._populate(first)
        self._crash(first)
        wal = tmp_path / "class_admin.wal"
        wal.write_bytes(wal.read_bytes() + b"WJ2\x00torn")
        second = ClassAdministrator(data_dir=tmp_path)
        report = second.recovery_report()
        assert (report["torn_tails"], report["bytes_skipped"]) == (1, 8)
        assert report["records_recovered"] == 3
        snap = metrics_registry.snapshot()
        assert snap.counter_total("wal.torn_tails") == 1
        self._crash(second)
        third = ClassAdministrator(data_dir=tmp_path).recovery_report()
        assert (third["torn_tails"], third["bytes_skipped"]) == (0, 0)

    def test_checksum_corrupt_journal_salvaged_and_served(self, tmp_path):
        first = ClassAdministrator(data_dir=tmp_path)
        self._populate(first)
        self._crash(first)
        wal = tmp_path / "class_admin.wal"
        data = bytearray(wal.read_bytes())
        data[20] ^= 0xFF  # damage the first record; later records intact
        wal.write_bytes(bytes(data))
        second = ClassAdministrator(data_dir=tmp_path)
        report = second.recovery_report()
        assert report["salvaged"] is True
        assert report["checksum_failures"] >= 1
        assert report["records_recovered"] == 2
        # The admit_student record was lost; salvage is best-effort, so
        # the surviving records (course, enrollment) replay and reads
        # keep working.
        session = _login(second, "registrar", "administrator")
        roster = _call(second, session, "roster", course_number="cs101")
        assert roster.unwrap() == ["alice"]
        assert second.connection.cursor().select(
            "students").fetchall() == []
        # Salvage compacted the journal: a third start is strict-clean.
        self._crash(second)
        third = ClassAdministrator(data_dir=tmp_path)
        assert third.recovery_report()["salvaged"] is False

    def test_recovery_metrics_reported_through_obs(self, tmp_path,
                                                   metrics_registry):
        first = ClassAdministrator(data_dir=tmp_path)
        self._populate(first)
        self._crash(first)
        ClassAdministrator(data_dir=tmp_path)
        snap = metrics_registry.snapshot()
        assert snap.counter_total("wal.records_recovered") == 3
        # Durable commits under sync=commit fsync once per request write.
        assert snap.counter_total("wal.sync_batches") >= 3
