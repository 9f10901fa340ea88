"""Tests for the protocol objects and the operation registry."""

import pytest

from repro.tiers.protocol import OPERATIONS, Request, Response, Role


class TestOperationsRegistry:
    def test_every_operation_has_at_least_one_role(self):
        assert all(roles for roles in OPERATIONS.values())

    def test_roles_are_role_instances(self):
        for roles in OPERATIONS.values():
            assert all(isinstance(role, Role) for role in roles)

    def test_session_ops_open_to_all(self):
        assert OPERATIONS["login"] == frozenset(Role)
        assert OPERATIONS["logout"] == frozenset(Role)

    def test_privileged_ops_exclude_students(self):
        for op in ("admit_student", "record_grade", "assessment_report",
                   "publish_course_document", "roster"):
            assert Role.STUDENT not in OPERATIONS[op], op

    def test_student_ops_present(self):
        assert Role.STUDENT in OPERATIONS["check_out"]
        assert Role.STUDENT in OPERATIONS["enroll"]
        assert Role.STUDENT in OPERATIONS["search_library"]

    def test_paper_perspectives_all_usable(self):
        """Each of the paper's three user types can do something."""
        for role in Role:
            assert any(role in roles for roles in OPERATIONS.values())


class TestRequestResponse:
    def test_request_ids_unique(self):
        a = Request("login", None)
        b = Request("login", None)
        assert a.request_id != b.request_id

    def test_wire_size_floor(self):
        assert Request("op", None).wire_size >= 64

    def test_success_factory(self):
        request = Request("op", None)
        response = Response.success(request, {"x": 1})
        assert response.ok and response.request_id == request.request_id
        assert response.unwrap() == {"x": 1}

    def test_failure_factory_and_unwrap(self):
        request = Request("op", None)
        response = Response.failure(request, "denied")
        assert not response.ok
        with pytest.raises(RuntimeError, match="denied"):
            response.unwrap()

    def test_requests_immutable(self):
        request = Request("op", None)
        with pytest.raises(AttributeError):
            request.op = "other"


class TestOverloadResponses:
    def test_overload_factory_marks_shed(self):
        request = Request("op", None)
        response = Response.overload(request, "queue full",
                                     retry_after_s=0.25)
        assert not response.ok and response.shed
        assert response.retry_after_s == 0.25
        with pytest.raises(RuntimeError, match="queue full"):
            response.unwrap()

    def test_plain_failure_is_not_shed(self):
        response = Response.failure(Request("op", None), "denied")
        assert not response.shed and response.retry_after_s is None

    def test_degraded_marker_on_success(self):
        request = Request("op", None)
        response = Response.success(request, [1], degraded="stale-cache")
        assert response.ok and response.degraded == "stale-cache"
        assert response.unwrap() == [1]

    def test_fresh_success_has_no_degraded_marker(self):
        assert Response.success(Request("op", None), 1).degraded is None
