"""Differential tests for ``repro.net.messages.payload_size``.

The function feeds the link model, so its counts are part of the
simulator's virtual time: the two recursive functions it replaced — the
tier protocol's reply sizer ``_payload_size`` and the shard protocol's
call sizer ``_wire_size``, before both protocols moved onto one call
path — are kept here verbatim as oracles, and the one-pass version must
agree with them byte for byte.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.messages import payload_size
from repro.tiers import ClassAdministrator, Request
from repro.tiers.protocol import OPERATIONS


# -- the oracles, verbatim from the parent of the rewrite -------------------
def _payload_size(data: Any) -> int:
    """Rough wire size of a response payload."""
    if data is None:
        return 0
    if isinstance(data, (list, tuple)):
        return sum(_payload_size(item) for item in data)
    if isinstance(data, dict):
        return sum(
            len(str(k)) + _payload_size(v) for k, v in data.items()
        )
    return len(str(data))


def _wire_size(value: Any) -> int:
    """Rough modeled byte count of a payload."""
    if value is None:
        return 0
    if isinstance(value, (list, tuple, set)):
        return sum(_wire_size(v) for v in value)
    if isinstance(value, dict):
        return sum(len(str(k)) + _wire_size(v) for k, v in value.items())
    return len(str(value))


# -- payloads ----------------------------------------------------------------
class Loud(str):
    """A ``str`` whose ``str()`` is longer than the value itself."""

    def __str__(self) -> str:
        return super().__str__().upper() + "!!"


class Rows(list):
    """A list subclass (result sets are often one)."""


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # nan and inf print like any other float
    st.text(max_size=12),
    st.binary(max_size=8),
    st.text(max_size=6).map(Loud),
)
keys = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4).map(Loud),
    st.tuples(st.integers(), st.text(max_size=3)),
)


def containers(children: st.SearchStrategy, *, sets: bool) -> st.SearchStrategy:
    shapes = [
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(Rows),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(keys, children, max_size=5).map(OrderedDict),
    ]
    if sets:
        hashable = st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=6),
            st.floats(allow_nan=False),
        )
        shapes += [st.sets(hashable, max_size=5), st.frozensets(hashable, max_size=5)]
    return st.one_of(shapes)


reply_payloads = st.recursive(
    scalars, lambda c: containers(c, sets=False), max_leaves=40
)
rpc_payloads = st.recursive(
    scalars, lambda c: containers(c, sets=True), max_leaves=40
)


@given(reply_payloads)
@settings(max_examples=400, deadline=None)
def test_agrees_with_the_recursive_reply_sizer(payload):
    assert payload_size(payload) == _payload_size(payload)


@given(rpc_payloads)
@settings(max_examples=400, deadline=None)
def test_agrees_with_the_recursive_rpc_sizer(payload):
    assert payload_size(payload) == _wire_size(payload)


@pytest.mark.parametrize("payload, size", [
    (None, 0),
    ("", 0),
    (True, 4),
    (-12, 3),
    (2.5, 3),
    (b"ab", 5),  # b'ab'
    (Loud("ab"), 4),  # AB!!
    (["ab", None, ("c", 1.0)], 6),
    ({"id": "d1", 7: None, Loud("k"): [1, 2]}, 2 + 2 + 1 + 3 + 2),
    ({"rows": Rows([{"a": 1}, {"a": 22}])}, 4 + 1 + 1 + 1 + 2),
    ([[[[[["deep"]]]]]], 4),
])
def test_known_sizes(payload, size):
    assert payload_size(payload) == size == _payload_size(payload)


def test_sets_are_flattened_not_printed():
    """The one place the two oracles disagree: only the RPC sizer
    flattened a set.  No tier reply holds one, and the printed length of
    a set follows the hash order, so the flattening rule is the one kept.
    """
    payload = {"held": {"d1", "d22"}}
    assert payload_size(payload) == _wire_size(payload) == 4 + 2 + 3
    assert _payload_size(payload) == 4 + len(str({"d1", "d22"}))


def test_deeper_than_the_recursion_limit():
    payload: Any = "leaf"
    for _ in range(5000):
        payload = [payload]
    assert payload_size(payload) == 4


def test_every_operation_reply_is_sized_as_before():
    """The concrete reply shapes of all fifteen operations."""
    server = ClassAdministrator()
    replies: dict[str, Any] = {}

    def call(op: str, session: str | None, **params: Any) -> Any:
        response = server.handle(Request(op, session, params))
        assert response.ok, response.error
        replies[op] = response.data
        return response.data

    registrar = call("login", None, user="registrar",
                     role="administrator")["session_id"]
    shih = call("login", None, user="shih", role="instructor")["session_id"]
    for student in ("alice", "bob"):
        call("admit_student", registrar, student_id=student, name=student)
    call("register_course", shih, course_number="CS1", title="Intro")
    for student in ("alice", "bob"):
        call("enroll", registrar, student_id=student, course_number="CS1")
    call("record_grade", shih, student_id="alice", course_number="CS1",
         grade=3.5)
    for doc_id, title in (("d1", "Intro notes"), ("d2", "More notes")):
        call("publish_course_document", shih, doc_id=doc_id, title=title,
             course_number="CS1", keywords=["notes"], size_bytes=100)
    alice = call("login", None, user="alice", role="student")["session_id"]
    call("register_station", alice, station="ws-7", address="10.0.0.7")
    call("transcript", alice)
    call("roster", shih, course_number="CS1")
    call("search_library", alice, keywords="notes", limit=10)
    call("check_out", alice, doc_id="d1", time=5.0)
    call("check_in", alice, doc_id="d1", time=9.5)
    call("assessment_report", shih)
    call("withdraw_course_document", shih, doc_id="d2")
    call("logout", alice)

    assert set(replies) == set(OPERATIONS)
    for op, data in replies.items():
        assert payload_size(data) == _payload_size(data) == _wire_size(data), op
    # The shapes are not all trivially empty.
    assert payload_size(replies["search_library"]) > 0
    assert payload_size(replies["roster"]) == len("alice") + len("bob")
    assert payload_size(replies["assessment_report"]) > 40
