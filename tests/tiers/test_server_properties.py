"""Property: no params, however malformed, escape ``handle()``.

Params are input from outside the program.  For every operation in
:data:`~repro.tiers.protocol.OPERATIONS`, called from a session whose
role may call it, with values of any JSON-ish shape under the op's real
parameter names (any subset of them, so missing ones are covered too):
``handle()`` returns a :class:`~repro.tiers.Response`, and a request it
answers with a failure has changed no table.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fault.crashsim import database_state
from repro.tiers import ClassAdministrator, Request, Response
from repro.tiers.protocol import OPERATIONS, Role

#: The names each op handler reads from ``request.params``.
PARAMS = {
    "login": ("user", "role"),
    "logout": (),
    "admit_student": ("student_id", "name"),
    "register_course": ("course_number", "title", "instructor"),
    "enroll": ("student_id", "course_number"),
    "record_grade": ("student_id", "course_number", "grade"),
    "transcript": ("student_id",),
    "register_station": ("station", "address"),
    "roster": ("course_number",),
    "publish_course_document": (
        "doc_id", "title", "course_number", "keywords", "starting_url",
        "size_bytes",
    ),
    "withdraw_course_document": ("doc_id",),
    "search_library": ("keywords", "instructor", "course", "limit"),
    "check_out": ("doc_id", "time"),
    "check_in": ("doc_id", "time"),
    "assessment_report": (),
}

#: Well-formed values first, so a draw often gets past the early checks
#: and the malformed value lands deep in the handler.
SCALARS = st.one_of(
    st.sampled_from(["alice", "shih", "c1", "d1", "student", "notes"]),
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
)


@st.composite
def calls(draw):
    op = draw(st.sampled_from(sorted(OPERATIONS)))
    role = draw(st.sampled_from(sorted(OPERATIONS[op], key=lambda r: r.value)))
    params = draw(st.dictionaries(st.sampled_from(PARAMS[op]), VALUES)
                  if PARAMS[op] else st.just({}))
    return op, role, params


def _server() -> tuple[ClassAdministrator, dict[Role, str]]:
    """One admitted, enrolled student; one course with one document."""
    server = ClassAdministrator()

    def call(session, op, **params):
        return server.handle(Request(op, session, params)).unwrap()

    def login(user, role):
        return call(None, "login", user=user, role=role.value)["session_id"]

    registrar = login("registrar", Role.ADMINISTRATOR)
    shih = login("shih", Role.INSTRUCTOR)
    call(registrar, "admit_student", student_id="alice")
    call(shih, "register_course", course_number="c1", title="Intro")
    call(registrar, "enroll", student_id="alice", course_number="c1")
    call(shih, "publish_course_document",
         doc_id="d1", title="Intro notes", course_number="c1")
    return server, {
        Role.ADMINISTRATOR: registrar,
        Role.INSTRUCTOR: shih,
        Role.STUDENT: login("alice", Role.STUDENT),
    }


def test_params_table_covers_every_operation():
    assert set(PARAMS) == set(OPERATIONS)


@settings(max_examples=300, deadline=None)
@given(calls())
def test_handle_always_answers_and_a_failure_changes_no_table(call):
    op, role, params = call
    server, sessions = _server()
    before = database_state(server.admin_db)
    response = server.handle(Request(
        op, None if op == "login" else sessions[role], params))
    assert isinstance(response, Response)
    assert response.request_id is not None
    if not response.ok:
        assert response.error
        assert database_state(server.admin_db) == before
