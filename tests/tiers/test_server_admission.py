"""Tests for admission control and graceful degradation at the server."""

import time

import pytest

from repro.admission import (
    AdmissionController,
    ClockBox,
    TenantQuotas,
)
from repro.tiers import ClassAdministrator, Request
from repro.tiers.server import REQUEST_SECONDS, REQUESTS, STALE_MAX_LAG


@pytest.fixture
def clock() -> ClockBox:
    return ClockBox(0.0)


def make_server(clock, **kwargs) -> ClassAdministrator:
    kwargs.setdefault("default_deadline_s", 1.0)
    return ClassAdministrator(
        admission=AdmissionController(clock=clock, **kwargs)
    )


def login(server, user="registrar", role="administrator") -> str:
    response = server.handle(Request(
        op="login", session_id=None, params={"user": user, "role": role},
    ))
    return response.unwrap()["session_id"]


def roster(server, session, course="cs101", **extra) -> object:
    return server.handle(Request(
        op="roster", session_id=session,
        params={"course_number": course}, **extra,
    ))


def write_enrollments(server, count, course="zz900") -> None:
    """``count`` committed writes to ``enrollments`` (one version each)."""
    db = server.admin_db
    db.upsert("courses", {"course_number": course, "title": "t",
                          "instructor": "i"})
    start = db.count("enrollments")
    for i in range(start, start + count):
        db.insert("students", {"student_id": f"z{i}", "name": "z"})
        db.insert("enrollments", {"student_id": f"z{i}",
                                  "course_number": course})


class TestAdmissionGate:
    def test_normal_traffic_flows(self, clock):
        server = make_server(clock)
        session = login(server)
        response = roster(server, session)
        assert response.ok and not response.shed

    def test_expired_request_never_executes(self, clock):
        server = make_server(clock)
        session = login(server)
        served_before = server.requests_served
        clock.now = 10.0
        response = roster(server, session, deadline=5.0)
        assert not response.ok and response.shed
        assert server.requests_served == served_before

    def test_shed_reply_carries_retry_after(self, clock):
        server = make_server(
            clock, quotas=TenantQuotas(rate=1.0, burst=1.0)
        )
        session = login(server)
        roster(server, session, tenant="cs101", deadline=100.0)
        response = roster(server, session, tenant="cs101", deadline=100.0,
                          course="cs102")
        assert response.shed
        assert response.retry_after_s is not None
        assert response.retry_after_s > 0.0

    def test_shed_is_submillisecond(self, clock):
        """Refusing load must cost microseconds — that is the point."""
        server = make_server(clock, max_depth=1)
        session = login(server)
        # Saturate: one slot taken by an artificially long busy horizon.
        server.admission.busy_until = 1e6
        wall0 = time.perf_counter()
        response = roster(server, session, deadline=0.5)
        wall = time.perf_counter() - wall0
        assert response.shed
        assert wall < 1e-3

    def test_queue_slot_released_after_service(self, clock):
        server = make_server(clock)
        session = login(server)
        for _ in range(10):
            assert roster(server, session, deadline=clock.now + 1.0).ok
        assert server.admission.depth == 0

    def test_malformed_params_complete_the_ticket_once(self, clock):
        server = make_server(clock)
        session = login(server)
        completed = []
        complete = server.admission.complete
        server.admission.complete = lambda ticket, **kw: (
            completed.append(ticket), complete(ticket, **kw))
        response = server.handle(Request(
            op="search_library", session_id=session, params={"keywords": 5},
        ))
        assert not response.ok and not response.shed
        assert response.error.startswith("AttributeError")
        assert len(completed) == 1 and server.admission.depth == 0

    def test_without_controller_v1_behaviour(self):
        server = ClassAdministrator()
        session = login(server)
        assert roster(server, session).ok
        assert server.admission is None

    def test_unknown_ops_are_refused_before_admission(
        self, clock, metrics_registry
    ):
        """Ops and priorities straight off the wire must not grow the
        controller's estimates, the registry or any instrument memo."""
        server = make_server(clock)
        for index in range(1_000):
            response = server.handle(Request(
                op=f"bogus{index}", session_id=None, priority=f"p{index}",
            ))
            assert response.error == f"unknown operation 'bogus{index}'"
        stats = server.admission.stats()
        assert stats["admitted"] == 0 and stats["estimates"] == {}
        assert server.admission.depth == 0
        snap = metrics_registry.snapshot()
        unknown = ("tiers.requests", (("op", "unknown"), ("status", "error")))
        assert snap.counters == {unknown: 1_000}
        assert len(metrics_registry) == 2  # + tiers.request_seconds{op=unknown}
        assert len(REQUESTS) == len(REQUEST_SECONDS) == 1

    def test_admitted_is_labelled_with_the_applied_priority(
        self, clock, metrics_registry
    ):
        server = make_server(clock)
        session = login(server)
        for priority in ("interactive", "bulk", "urgent", None):
            assert roster(server, session, priority=priority).ok
        admitted = {
            labels: count
            for (name, labels), count in metrics_registry.snapshot()
            .counters.items() if name == "admission.admitted"
        }
        assert admitted == {
            (("priority", "interactive"),): 4,  # login, and all but bulk
            (("priority", "bulk"),): 1,
        }


class TestStaleServing:
    def test_stale_cache_serves_while_shedding(self, clock):
        server = make_server(clock)
        session = login(server)
        roster(server, session, deadline=100.0)
        fresh = roster(server, session, deadline=100.0)  # stored
        assert fresh.ok and fresh.degraded is None
        # Saturate the controller so the same read sheds ...
        server.admission.busy_until = clock.now + 50.0
        degraded = roster(server, session, deadline=clock.now + 0.5)
        # ... and is served from the bounded-staleness cache instead.
        assert degraded.ok and degraded.degraded == "stale-cache"
        assert degraded.data == fresh.data

    def test_stale_serving_respects_version_bound(self, clock):
        server = make_server(clock)
        session = login(server)
        for _ in range(2):  # stored on the second miss
            roster(server, session, deadline=100.0)
        server.admission.busy_until = clock.now + 50.0
        write_enrollments(server, STALE_MAX_LAG)
        at_the_bound = roster(server, session, deadline=clock.now + 0.5)
        assert at_the_bound.degraded == "stale-cache"
        write_enrollments(server, 1)
        response = roster(server, session, deadline=clock.now + 0.5)
        assert response.shed  # too stale to serve: shed honestly

    def test_no_stale_serve_for_expired_caller(self, clock):
        server = make_server(clock)
        session = login(server)
        for _ in range(2):  # stored on the second miss
            roster(server, session, deadline=100.0)
        clock.now = 200.0
        response = roster(server, session, deadline=150.0)
        assert response.shed  # nobody is waiting for that answer

    def test_no_stale_serve_for_writes(self, clock):
        server = make_server(clock)
        session = login(server)
        server.admission.busy_until = clock.now + 50.0
        response = server.handle(Request(
            op="admit_student", session_id=session,
            params={"student_id": "alice"}, deadline=clock.now + 0.5,
        ))
        assert response.shed  # writes never degrade to stale data

    def test_no_stale_serve_for_dead_session(self, clock):
        server = make_server(clock)
        session = login(server)
        for _ in range(2):  # stored on the second miss
            roster(server, session, deadline=100.0)
        server.handle(Request(op="logout", session_id=session,
                              deadline=clock.now + 10.0))
        server.admission.busy_until = clock.now + 50.0
        response = roster(server, session, deadline=clock.now + 0.5)
        assert response.shed

    def test_stale_served_metric(self, clock, metrics_registry):
        server = make_server(clock)
        session = login(server)
        for _ in range(2):  # stored on the second miss
            roster(server, session, deadline=100.0)
        server.admission.busy_until = clock.now + 50.0
        assert roster(server, session,
                      deadline=clock.now + 0.5).degraded == "stale-cache"
        snap = metrics_registry.snapshot()
        key = ("admission.stale_served", (("op", "roster"),))
        assert snap.counters[key] == 1


class TestTenantIsolation:
    def test_one_tenant_cannot_starve_another(self, clock):
        server = make_server(
            clock, quotas=TenantQuotas(rate=1.0, burst=2.0)
        )
        session = login(server)
        shed = 0
        for i in range(5):
            response = roster(server, session, tenant="cs101",
                              course=f"c{i}", deadline=clock.now + 10.0)
            shed += response.shed
        assert shed == 3  # burst of 2, no refill (virtual clock frozen)
        # The other tenant's bucket is untouched.
        response = roster(server, session, tenant="cs102",
                          deadline=clock.now + 10.0)
        assert response.ok


class TestStaleLedger:
    """Degraded replies come from the one store of finished replies."""

    def test_no_controller_no_ledger(self):
        # Only a degraded reply could use a stored search, so without a
        # controller none is kept; the stored ops are, once each, each
        # read twice.
        server = ClassAdministrator()
        session = login(server)
        for _ in range(2):
            for course in ("cs101", "cs102"):
                assert roster(server, session, course=course).ok
            assert server.handle(Request(
                op="search_library", session_id=session,
                params={"keywords": "notes", "limit": 10},
            )).ok
            assert server.handle(Request(
                op="transcript", session_id=session,
                params={"student_id": "alice"},
            )).ok
        assert sorted(key[0] for key in server.stale_reads._entries) == [
            "roster", "roster", "transcript",
        ]

    def test_controller_installed_later_starts_empty(self, clock):
        # A controller installed later serves what the store already
        # holds, but only within STALE_MAX_LAG versions.
        server = ClassAdministrator()
        session = login(server)
        roster(server, session)
        fresh = roster(server, session)  # stored
        server.admission = AdmissionController(
            clock=clock, default_deadline_s=1.0
        )
        assert len(server.stale_reads) == 1
        server.admission.busy_until = clock.now + 50.0
        write_enrollments(server, STALE_MAX_LAG)
        served = roster(server, session, deadline=clock.now + 0.5)
        assert served.degraded == "stale-cache"
        assert served.data == fresh.data
        write_enrollments(server, 1)
        assert roster(server, session, deadline=clock.now + 0.5).shed
        assert len(server.stale_reads) == 0
        server.admission.busy_until = 0.0
        # Admitted before, so stored again on its first miss.
        assert roster(server, session, deadline=100.0).ok
        assert len(server.stale_reads) == 1

    def test_record_shed_serve_then_evict(self, clock):
        server = make_server(clock)
        session = login(server)
        roster(server, session, deadline=100.0)
        assert len(server.stale_reads) == 0  # a first miss stores nothing
        fresh = roster(server, session, deadline=100.0)
        assert len(server.stale_reads) == 1
        server.admission.busy_until = clock.now + 50.0
        degraded = roster(server, session, deadline=clock.now + 0.5)
        assert degraded.degraded == "stale-cache"
        assert degraded.data == fresh.data
        assert server.stale_reads.stats()["hits"] == 1
        # A different read of the same op has no entry: shed honestly.
        assert roster(server, session, course="cs999",
                      deadline=clock.now + 0.5).shed
        write_enrollments(server, STALE_MAX_LAG + 1)
        assert roster(server, session, deadline=clock.now + 0.5).shed
        stats = server.stale_reads.stats()
        assert stats["too_stale"] == 1 and stats["entries"] == 0

    def test_param_order_does_not_split_an_entry(self, clock):
        server = make_server(clock)
        session = login(server)

        def search(params, deadline):
            return server.handle(Request(
                op="search_library", session_id=session, params=params,
                deadline=deadline,
            ))

        for _ in range(2):  # recorded on the second search
            assert search({"keywords": "notes", "limit": 10}, 100.0).ok
        server.admission.busy_until = clock.now + 50.0
        served = search({"limit": 10, "keywords": "notes"}, clock.now + 0.5)
        assert served.degraded == "stale-cache"
        # ... but a different value is a different read,
        assert search({"limit": 11, "keywords": "notes"},
                      clock.now + 0.5).shed
        # and 10, 10.0 and True are three different limits.
        assert search({"limit": 10.0, "keywords": "notes"},
                      clock.now + 0.5).shed
        assert len(server.stale_reads) == 1

    def test_unhashable_params_key_by_repr(self, clock):
        server = make_server(clock)
        session = login(server)

        def search(params, deadline):
            return server.handle(Request(
                op="search_library", session_id=session, params=params,
                deadline=deadline,
            ))

        # A list is unhashable: the entry is keyed by sorted repr.
        odd = {"keywords": "notes", "limit": 5, "tags": ["a", {"b": 1}]}
        for _ in range(2):  # recorded on the second search
            assert search(odd, 100.0).ok
        assert len(server.stale_reads) == 1
        (key,) = server.stale_reads._entries
        assert key[2] == (
            ("keywords", "'notes'"), ("limit", "5"),
            ("tags", "['a', {'b': 1}]"),
        )
        server.admission.busy_until = clock.now + 50.0
        again = dict(reversed(list(odd.items())))
        assert search(again, clock.now + 0.5).degraded == "stale-cache"
        assert search({**odd, "tags": ["a"]}, clock.now + 0.5).shed

    def test_params_that_cannot_be_keyed_are_not_recorded(self, clock):
        class Unprintable:
            def __repr__(self):
                raise RuntimeError("no repr")

        server = make_server(clock)
        session = login(server)
        for _ in range(2):  # twice: not even the second is recorded
            response = server.handle(Request(
                op="search_library", session_id=session,
                params={"keywords": "notes", "extra": Unprintable()},
                deadline=100.0,
            ))
            assert response.ok and len(server.stale_reads) == 0


class TestOneStore:
    """An admitted read pays for its reply once: one entry, one copy."""

    def test_an_admitted_transcript_leaves_one_entry(self, clock):
        server = make_server(clock)
        session = login(server)
        assert server.stale_reads is server.query_cache
        recorded = []
        record = server.query_cache.record
        server.query_cache.record = lambda *args: (
            recorded.append(args[0]), record(*args))
        for _ in range(3):  # miss, miss (recorded), hit
            assert server.handle(Request(
                op="transcript", session_id=session,
                params={"student_id": "alice"}, deadline=100.0,
            )).ok
        assert len(server.query_cache) == 1 and len(recorded) == 1
        assert server.query_cache.stats()["hits"] == 1

    def test_an_admitted_search_is_recorded_once_and_served_degraded(
        self, clock
    ):
        server = make_server(clock)
        session = login(server)

        def search(deadline):
            return server.handle(Request(
                op="search_library", session_id=session,
                params={"keywords": "notes", "limit": 10}, deadline=deadline,
            ))

        assert search(100.0).ok and len(server.query_cache) == 0
        fresh = search(100.0)  # the second search is recorded
        assert fresh.ok and len(server.query_cache) == 1
        # A fresh search is never answered from the store.
        assert search(100.0).degraded is None
        assert server.query_cache.stats()["hits"] == 0
        server.admission.busy_until = clock.now + 50.0
        degraded = search(clock.now + 0.5)
        assert degraded.degraded == "stale-cache"
        assert degraded.data == fresh.data


class TestLedgerCopies:
    """The ledger's entry is never the object a caller holds."""

    def test_mutating_the_fresh_reply_cannot_reach_a_degraded_one(
        self, clock
    ):
        server = make_server(clock)
        session = login(server)
        server.admin_db.insert("courses", {
            "course_number": "cs101", "title": "t", "instructor": "i",
        })
        server.admin_db.insert("students", {"student_id": "alice",
                                            "name": "alice"})
        server.admin_db.insert("enrollments", {"student_id": "alice",
                                               "course_number": "cs101"})
        roster(server, session, deadline=100.0)
        fresh = roster(server, session, deadline=100.0)  # stored
        assert fresh.data == ["alice"]
        fresh.data.append("mallory")
        server.admission.busy_until = clock.now + 50.0
        degraded = roster(server, session, deadline=clock.now + 0.5)
        assert degraded.degraded == "stale-cache"
        assert degraded.data == ["alice"]
        degraded.data.append("mallory")
        again = roster(server, session, deadline=clock.now + 0.5)
        assert again.degraded == "stale-cache" and again.data == ["alice"]


class TestDeadlineScopeAroundDispatch:
    @staticmethod
    def _sending_server(admission=None):
        """A server whose roster handler sends a message mid-request, as
        a nested fan-out (shard RPC, replica routing) would."""
        from tests.conftest import build_network

        net = build_network(2)
        net.station("s2").on_default(lambda st, m: None)
        server = ClassAdministrator(admission=admission)
        sent = []
        server._op_roster = lambda request, user, role: sent.append(
            net.send("s1", "s2", "fanout", None, 10)
        )
        return server, sent

    def test_send_inside_handle_carries_the_request_deadline(self):
        server, sent = self._sending_server()
        session = login(server)
        assert roster(server, session, deadline=7.5).ok
        # Another course each time: a repeated roster is answered with
        # the stored reply, and the handler does not run.
        # No deadline: no scope, no stamp.
        assert roster(server, session, course="cs102").ok
        assert [m.deadline for m in sent] == [7.5, None]

    def test_send_inside_handle_carries_the_ticket_deadline(self, clock):
        server, sent = self._sending_server(
            AdmissionController(clock=clock, default_deadline_s=1.0)
        )
        session = login(server)
        assert roster(server, session, deadline=7.5).ok
        clock.now = 2.0
        # The controller's default.
        assert roster(server, session, course="cs102").ok
        assert [m.deadline for m in sent] == [7.5, 3.0]

    def test_scope_is_gone_after_dispatch_even_when_the_op_raises(self):
        from repro.admission import current_deadline

        server = ClassAdministrator()
        session = login(server)
        seen = []

        def failing(error):
            def handler(request, user, role):
                seen.append(current_deadline())
                raise error("boom")
            return handler

        # An error the dispatcher turns into a failure reply ...
        server._op_roster = failing(RuntimeError)
        response = roster(server, session, deadline=7.0)
        assert not response.ok and "boom" in response.error
        assert seen == [7.0] and current_deadline() is None
        # ... and one that escapes handle() through the scope.
        server._op_roster = failing(ArithmeticError)
        with pytest.raises(ArithmeticError):
            roster(server, session, deadline=8.0)
        assert seen == [7.0, 8.0] and current_deadline() is None


#: Deadlines off the wire that are not a time: each must be answered
#: with a failure reply before admission, never raised out of handle.
MALFORMED_DEADLINES = ["soon", [1], float("nan"), True]
MALFORMED_DEADLINE_IDS = ["str", "list", "nan", "bool"]


class TestMalformedDeadline:
    @pytest.mark.parametrize("with_controller", [False, True],
                             ids=["plain", "admission"])
    @pytest.mark.parametrize("deadline", MALFORMED_DEADLINES,
                             ids=MALFORMED_DEADLINE_IDS)
    def test_refused_before_admission(self, clock, deadline, with_controller):
        server = make_server(clock) if with_controller else ClassAdministrator()
        session = login(server)
        served = server.requests_served
        response = roster(server, session, deadline=deadline)
        assert not response.ok and not response.shed
        assert response.error == f"deadline must be a number, got {deadline!r}"
        assert server.requests_served == served  # the op never ran
        if with_controller:
            stats = server.admission.stats()
            assert stats["admitted"] == 1  # the login
            assert server.admission.depth == 0
        assert roster(server, session).ok

    @pytest.mark.parametrize("deadline", [7, 7.5, float("inf")],
                             ids=["int", "float", "inf"])
    def test_numbers_are_deadlines(self, clock, deadline):
        server = make_server(clock)
        assert roster(server, login(server), deadline=deadline).ok
