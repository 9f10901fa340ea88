"""The request path's value objects: immutable tuple-backed records.

Every value built per request — the network's :class:`Message`, the
tier protocol's :class:`Request` / :class:`Response`, the library's
per-result records, the shard protocol's call and reply and the
admission controller's ticket — is a ``typing.NamedTuple``.  These tests pin what callers may rely on:
field names, order and defaults, immutability, the id sequences and
the ``Name(field=...)`` repr; and that no tier reply carries such a
record, which ``payload_size`` would size as a tuple.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.admission import AdmissionTicket
from repro.library.circulation import CirculationAction, CirculationEvent, Loan
from repro.library.search import SearchResult
from repro.net.messages import Message, next_msg_id
from repro.sharding.cluster import ShardCall, ShardReply
from repro.tiers import ClassAdministrator
from repro.tiers.protocol import OPERATIONS, Request, Response

from tests.conftest import build_network

#: class, its fields in order, the fewest arguments that build one, and
#: the value every other field then takes
CONTRACT = [
    (Message,
     ("src", "dst", "kind", "payload", "size_bytes", "msg_id", "sent_at",
      "deadline"),
     dict(src="a", dst="b", kind="k", payload=None, size_bytes=0, msg_id=7),
     dict(sent_at=0.0, deadline=None)),
    (Request,
     ("op", "session_id", "params", "request_id", "deadline", "priority",
      "tenant"),
     dict(op="login", session_id=None),
     dict(params={}, deadline=None, priority=None, tenant=None)),
    (Response,
     ("request_id", "ok", "data", "error", "shed", "retry_after_s",
      "degraded"),
     dict(request_id=1, ok=True),
     dict(data=None, error=None, shed=False, retry_after_s=None,
          degraded=None)),
    (SearchResult, ("doc_id", "score"), dict(doc_id="d1", score=1.0), {}),
    (Loan, ("student", "doc_id", "checked_out_at"),
     dict(student="alice", doc_id="d1", checked_out_at=2.0), {}),
    (CirculationEvent, ("time", "student", "doc_id", "action"),
     dict(time=2.0, student="alice", doc_id="d1",
          action=CirculationAction.CHECK_OUT), {}),
    (ShardCall, ("request_id", "method", "args", "kwargs", "deadline"),
     dict(request_id=1, method="get"),
     dict(args=(), kwargs={}, deadline=None)),
    (ShardReply, ("request_id", "ok", "data", "error"),
     dict(request_id=1, ok=True), dict(data=None, error=None)),
    (AdmissionTicket,
     ("op", "priority", "tenant", "admitted_at", "deadline", "estimate_s"),
     dict(op="roster", priority="interactive", tenant="default",
          admitted_at=1.0, deadline=2.0, estimate_s=0.002), {}),
]
CONTRACT_IDS = [cls.__name__ for cls, *_ in CONTRACT]


@pytest.mark.parametrize("cls, fields, given, defaults", CONTRACT,
                         ids=CONTRACT_IDS)
class TestValueContract:
    def test_tuple_backed_with_pinned_fields_and_defaults(
        self, cls, fields, given, defaults
    ):
        value = cls(**given)
        assert isinstance(value, tuple) and not dataclasses.is_dataclass(cls)
        assert cls._fields == fields
        for name, expected in {**given, **defaults}.items():
            assert getattr(value, name) == expected, name
            assert type(getattr(value, name)) is type(expected), name
        assert cls(*value) == value  # positional and keyword agree

    def test_assignment_raises_attribute_error(
        self, cls, fields, given, defaults
    ):
        value = cls(**given)
        before = tuple(value)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert tuple(value) == before

    def test_repr_names_every_field(self, cls, fields, given, defaults):
        value = cls(**given)
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{cls.__name__}({shown})"

    def test_mutable_defaults_are_fresh(self, cls, fields, given, defaults):
        for name, expected in defaults.items():
            if isinstance(expected, dict):
                assert getattr(cls(**given), name) is not getattr(
                    cls(**given), name
                )


class TestIds:
    def test_request_ids_are_consecutive_from_one_sequence(self):
        first = Request("login", None)
        explicit = Request("login", None, request_id=10**9)
        second = Request("login", None)
        assert explicit.request_id == 10**9
        assert second.request_id == first.request_id + 1

    def test_message_ids_are_consecutive_from_one_sequence(self):
        net = build_network(3)
        first = net.send("s1", "s2", "k", None, 10)
        second = net.send("s2", "s3", "k", None, 10)
        assert second.msg_id == first.msg_id + 1
        assert next_msg_id() == second.msg_id + 1

    def test_send_still_refuses_a_negative_size(self):
        net = build_network(2)
        sent = net.total_messages
        with pytest.raises(ValueError, match="size_bytes must be >= 0"):
            net.send("s1", "s2", "k", None, -1)
        assert net.total_messages == sent


class TestResponseFactories:
    def test_each_factory_equals_its_keyword_built_response(self):
        request = Request("roster", "sess-1")
        rid = request.request_id
        assert Response.success(request, [1]) == Response(
            request_id=rid, ok=True, data=[1])
        assert Response.success(
            request, [1], degraded="stale-cache"
        ) == Response(request_id=rid, ok=True, data=[1],
                      degraded="stale-cache")
        assert Response.failure(request, "denied") == Response(
            request_id=rid, ok=False, error="denied")
        assert Response.overload(
            request, "queue full", retry_after_s=0.5
        ) == Response(request_id=rid, ok=False, error="queue full",
                      shed=True, retry_after_s=0.5)

    def test_replace_keeps_the_type(self):
        response = Response.success(Request("roster", None), [])
        lagged = response._replace(degraded="lagged-replica")
        assert type(lagged) is Response and lagged.degraded == "lagged-replica"
        assert response.degraded is None


def _records(data):
    """Every tuple-backed record anywhere inside ``data``."""
    stack, found = [data], []
    while stack:
        item = stack.pop()
        if isinstance(item, tuple) and hasattr(type(item), "_fields"):
            found.append(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
    return found


def test_no_tier_reply_carries_a_tuple_backed_record():
    """``payload_size`` sizes a tuple member by member: a record leaf in
    a reply would change the bytes the link model charges."""
    server = ClassAdministrator()
    replies = {}

    def call(session, op, **params):
        response = server.handle(Request(op, session, params))
        assert response.ok, (op, response.error)
        replies[op] = response
        return response.data

    admin = call(None, "login", user="registrar",
                 role="administrator")["session_id"]
    shih = call(None, "login", user="shih", role="instructor")["session_id"]
    call(admin, "admit_student", student_id="alice", name="Alice")
    call(shih, "register_course", course_number="c1", title="Multimedia")
    call(admin, "enroll", student_id="alice", course_number="c1")
    call(shih, "record_grade", student_id="alice", course_number="c1",
         grade=3.5)
    call(shih, "publish_course_document", doc_id="d1",
         title="Multimedia notes", course_number="c1", keywords=["video"])
    call(shih, "publish_course_document", doc_id="d2",
         title="Multimedia notes", course_number="c1", keywords=["video"])
    alice = call(None, "login", user="alice", role="student")["session_id"]
    call(alice, "register_station", station="ws1", address="10.0.0.1")
    call(alice, "search_library", keywords="video")
    call(alice, "check_out", doc_id="d1", time=1.0)
    call(alice, "check_in", doc_id="d1", time=2.0)
    call(alice, "transcript", student_id="alice")
    call(shih, "roster", course_number="c1")
    call(shih, "assessment_report")
    call(shih, "withdraw_course_document", doc_id="d2")
    call(alice, "logout")

    assert set(replies) == set(OPERATIONS)
    assert len(replies["search_library"].data) == 2
    assert replies["transcript"].data and replies["assessment_report"].data
    for op, response in replies.items():
        assert _records(response.data) == [], op
