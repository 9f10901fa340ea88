"""Tests for check-out / check-in circulation."""

import pytest

from repro.library import CatalogEntry, CirculationDesk, VirtualLibrary
from repro.library.circulation import CirculationAction


@pytest.fixture
def desk() -> CirculationDesk:
    library = VirtualLibrary(instructors={"shih"})
    for doc in ("l1", "l2", "l3"):
        library.add_document("shih", CatalogEntry(
            doc_id=doc, title=doc, course_number="CS101", instructor="shih",
        ))
    return CirculationDesk(library)


class TestCheckOut:
    def test_basic_loan(self, desk):
        loan = desk.check_out("alice", "l1", time=10.0)
        assert loan.checked_out_at == 10.0
        assert desk.has_out("alice", "l1")

    def test_no_quota_limit(self, desk):
        """Paper: 'no limitation of the number of Web pages checked out'."""
        for doc in ("l1", "l2", "l3"):
            desk.check_out("alice", doc, time=0.0)
        assert len(desk.open_loans("alice")) == 3

    def test_unknown_document_rejected(self, desk):
        with pytest.raises(LookupError):
            desk.check_out("alice", "ghost", time=0.0)

    def test_double_checkout_same_doc_rejected(self, desk):
        desk.check_out("alice", "l1", time=0.0)
        with pytest.raises(ValueError, match="already has"):
            desk.check_out("alice", "l1", time=1.0)

    def test_different_students_same_doc_ok(self, desk):
        desk.check_out("alice", "l1", time=0.0)
        desk.check_out("bob", "l1", time=0.0)
        assert len(desk.open_loans()) == 2


class TestCheckIn:
    def test_returns_held_duration(self, desk):
        desk.check_out("alice", "l1", time=10.0)
        held = desk.check_in("alice", "l1", time=70.0)
        assert held == 60.0
        assert not desk.has_out("alice", "l1")

    def test_checkin_without_loan_rejected(self, desk):
        with pytest.raises(LookupError):
            desk.check_in("alice", "l1", time=0.0)

    def test_checkin_before_checkout_rejected(self, desk):
        desk.check_out("alice", "l1", time=10.0)
        with pytest.raises(ValueError):
            desk.check_in("alice", "l1", time=5.0)
        # The refusal leaves the loan open and logs nothing.
        assert desk.has_out("alice", "l1")
        assert len(desk.log) == 1
        assert desk.check_in("alice", "l1", time=25.0) == 15.0
        assert not desk.has_out("alice", "l1")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_times_refused(self, desk, bad):
        # NaN compares false, so it would slip past "check-in before
        # check-out" and log a NaN hold; infinities poison assessment.
        with pytest.raises(ValueError, match="must be finite"):
            desk.check_out("alice", "l1", time=bad)
        assert not desk.has_out("alice", "l1") and desk.log == []
        desk.check_out("alice", "l1", time=10.0)
        with pytest.raises(ValueError, match="must be finite"):
            desk.check_in("alice", "l1", time=bad)
        assert desk.has_out("alice", "l1") and len(desk.log) == 1
        assert desk.check_in("alice", "l1", time=25.0) == 15.0

    def test_re_checkout_after_checkin(self, desk):
        desk.check_out("alice", "l1", time=0.0)
        desk.check_in("alice", "l1", time=10.0)
        desk.check_out("alice", "l1", time=20.0)
        assert desk.has_out("alice", "l1")


class TestLog:
    def test_every_action_logged(self, desk):
        desk.check_out("alice", "l1", time=0.0)
        desk.check_in("alice", "l1", time=5.0)
        desk.check_out("bob", "l2", time=6.0)
        actions = [(e.student, e.action) for e in desk.log]
        assert actions == [
            ("alice", CirculationAction.CHECK_OUT),
            ("alice", CirculationAction.CHECK_IN),
            ("bob", CirculationAction.CHECK_OUT),
        ]

    def test_total_checkouts(self, desk):
        desk.check_out("alice", "l1", time=0.0)
        desk.check_out("bob", "l1", time=0.0)
        desk.check_in("alice", "l1", time=1.0)
        assert desk.total_checkouts == 2

    def test_open_loans_sorted(self, desk):
        desk.check_out("bob", "l2", time=0.0)
        desk.check_out("alice", "l1", time=0.0)
        loans = desk.open_loans()
        assert [(l.student, l.doc_id) for l in loans] == [
            ("alice", "l1"), ("bob", "l2"),
        ]
