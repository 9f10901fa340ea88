"""Tests for the three-tier protocol over the simulated network."""

import pytest

from repro.admission import (
    AdmissionController,
    DeadlineExceededError,
    deadline_scope,
)
from repro.tiers import (
    ClassAdministrator,
    RemoteTierClient,
    RemoteTierServer,
    Request,
)
from repro.tiers.remote import TIER

from tests.conftest import build_network
from tests.tiers.test_server_admission import (
    MALFORMED_DEADLINE_IDS,
    MALFORMED_DEADLINES,
)
from tests.tiers.test_server import (
    OUT_OF_RANGE,
    OUT_OF_RANGE_IDS,
    seed_out_of_range,
)


@pytest.fixture
def world():
    net = build_network(4)
    server = RemoteTierServer(net, "s1")
    return net, server


class TestRemoteCalls:
    def test_login_over_the_wire(self, world):
        net, server = world
        client = RemoteTierClient(net, "s2", "s1")
        session = client.login("registrar", "administrator")
        assert session.startswith("sess-")
        assert server.requests_received == 1

    def test_request_latency_is_nonzero(self, world):
        net, _server = world
        client = RemoteTierClient(net, "s2", "s1")
        start = net.sim.now
        client.login("registrar", "administrator")
        assert net.sim.now > start  # round trip consumed virtual time

    def test_full_admin_flow_remotely(self, world):
        net, _server = world
        admin = RemoteTierClient(net, "s2", "s1")
        admin.login("registrar", "administrator")
        admin.call_sync("admit_student", student_id="alice")
        instructor = RemoteTierClient(net, "s3", "s1")
        instructor.login("shih", "instructor")
        instructor.call_sync("register_course", course_number="CS1",
                             title="Intro")
        admin.call_sync("enroll", student_id="alice", course_number="CS1")
        instructor.call_sync("record_grade", student_id="alice",
                             course_number="CS1", grade=3.0)
        transcript = admin.call_sync(
            "transcript", student_id="alice"
        ).unwrap()
        assert transcript[0]["grade"] == 3.0

    def test_failure_responses_travel_back(self, world):
        net, _server = world
        client = RemoteTierClient(net, "s2", "s1")
        client.login("registrar", "administrator")
        response = client.call_sync("fly_to_moon")
        assert not response.ok and "unknown operation" in response.error

    def test_async_callback_mode(self, world):
        net, _server = world
        client = RemoteTierClient(net, "s2", "s1")
        responses = []
        client.call("login", {"user": "x", "role": "administrator"},
                    on_response=responses.append)
        assert responses == []  # nothing until the simulator runs
        net.quiesce()
        assert len(responses) == 1 and responses[0].ok

    def test_two_clients_on_different_stations(self, world):
        net, server = world
        a = RemoteTierClient(net, "s2", "s1")
        b = RemoteTierClient(net, "s3", "s1")
        a.login("registrar", "administrator")
        b.login("shih", "instructor")
        assert server.requests_received == 2
        assert a.session_id != b.session_id

    def test_wire_bytes_charged(self, world):
        net, _server = world
        client = RemoteTierClient(net, "s2", "s1")
        client.login("registrar", "administrator")
        assert net.total_bytes > 0
        assert net.station("s1").link.bytes_up > 0  # response traffic

    def test_call_sync_times_out_when_server_down(self, world):
        net, _server = world
        client = RemoteTierClient(net, "s2", "s1")
        net.set_down("s1")
        with pytest.raises(TimeoutError):
            client.call_sync("login", user="x", role="administrator")

    def test_shares_administrator_with_local_view(self, world):
        net, server = world
        client = RemoteTierClient(net, "s2", "s1")
        client.login("registrar", "administrator")
        client.call_sync("admit_student", student_id="bob")
        # the same administrator object is queryable in-process
        cursor = server.administrator.connection.cursor().select("students")
        assert cursor.fetchone()["student_id"] == "bob"


class TestMalformedParamsOverTheWire:
    def test_one_clients_bad_request_cannot_kill_anothers_call(self, world):
        """Whoever drives the simulator runs everyone's requests: A's
        malformed search must come back to A as a failure reply, not
        leave ``sim.step()`` as an AttributeError inside B's ``call_sync``."""
        net, _server = world
        a = RemoteTierClient(net, "s2", "s1")
        b = RemoteTierClient(net, "s3", "s1")
        a.login("registrar", "administrator")
        b.login("shih", "instructor")
        a_replies = []
        a.call("search_library", {"keywords": 5},
               on_response=a_replies.append)
        assert b.call_sync("roster", course_number="c1").unwrap() == []
        net.quiesce()
        [reply] = a_replies
        assert not reply.ok and reply.error.startswith("AttributeError")
        assert net.pending("s2", TIER) == {} == net.pending("s3", TIER)


class TestManyStubsOnOneStation:
    """A reply goes to whichever stub holds its request id, however many
    stubs share the workstation."""

    def test_two_logged_in_clients_interleave(self, world):
        net, server = world
        a = RemoteTierClient(net, "s2", "s1")
        b = RemoteTierClient(net, "s2", "s1")
        a.login("registrar", "administrator")  # a is not the last stub
        b.login("shih", "instructor")
        assert a.session_id != b.session_id
        a.call_sync("admit_student", student_id="alice").unwrap()
        b.call_sync("register_course", course_number="CS1",
                    title="Intro").unwrap()
        a.call_sync("enroll", student_id="alice",
                    course_number="CS1").unwrap()
        assert b.call_sync("roster", course_number="CS1").unwrap() == ["alice"]
        refused = b.call_sync("admit_student", student_id="bob")
        assert not refused.ok and "instructor" in refused.error
        assert (a.responses_received, b.responses_received) == (3, 4)
        assert net.pending("s2", TIER) == {}
        assert server.requests_received == 7

    def test_three_stubs_with_replies_in_flight_together(self, world):
        net, _server = world
        stubs = [RemoteTierClient(net, "s2", "s1") for _ in range(3)]
        got: list[tuple[int, bool]] = []
        for index, stub in enumerate(stubs):
            stub.call(
                "login", {"user": f"u{index}", "role": "administrator"},
                on_response=lambda r, index=index: got.append((index, r.ok)),
            )
        net.quiesce()
        assert sorted(got) == [(0, True), (1, True), (2, True)]
        assert [stub.responses_received for stub in stubs] == [1, 1, 1]


class TestLostReplies:
    """A reply that never arrives is forgotten, not awaited for ever (the
    contract both wire protocols share: ``tests/net/test_call_path.py``)."""

    def test_timeout_on_a_lossy_path_forgets_the_request(self, world):
        net, _server = world
        client = RemoteTierClient(net, "s2", "s1")
        net.set_drop_rate(1.0)
        with pytest.raises(TimeoutError, match="no reply to 'login'"):
            client.call_sync("login", user="x", role="administrator")
        assert net.pending("s2", TIER) == {}
        net.set_drop_rate(0.0)
        client.login("registrar", "administrator")  # the stub still works
        assert net.pending("s2", TIER) == {}

    def test_request_expired_in_flight_forgets_the_request(self, world):
        net, server = world
        client = RemoteTierClient(net, "s2", "s1")
        for at in (5.0, 50.0, 500.0):  # unrelated background events
            net.sim.schedule(at, lambda: None)
        # Sent from inside a caller's scope, the request message itself
        # carries the deadline and the transport discards it (t=0.04);
        # the wait stops there instead of running the simulator dry.
        with deadline_scope(net.sim.now + 0.001):
            with pytest.raises(DeadlineExceededError):
                client.call_sync("login", user="x", role="administrator")
        assert net.sim.now < 5.0 and net.sim.pending == 3
        assert net.pending("s2", TIER) == {}
        assert server.requests_received == 0
        assert net.stats()["expired"] == 1

    def test_deadline_passed_at_dispatch_is_refused_not_lost(self, world):
        net, server = world
        client = RemoteTierClient(net, "s2", "s1")
        box = []
        client.call("login", {"user": "x", "role": "administrator"},
                    on_response=box.append, deadline_s=0.001)
        net.quiesce()
        (response,) = box
        assert response.shed and "deadline passed" in response.error
        assert server.requests_received == 1
        assert server.administrator.requests_served == 0
        assert net.pending("s2", TIER) == {}


class TestCallerDeadline:
    def test_request_carries_the_scope_deadline(self, world):
        net, server = world
        client = RemoteTierClient(net, "s2", "s1")
        seen = []
        handle = server.administrator.handle
        server.administrator.handle = lambda request: (
            seen.append(request.deadline) or handle(request)
        )
        deadline = net.sim.now + 30.0
        with deadline_scope(deadline):
            client.login("registrar", "administrator")
            # A later deadline_s of its own cannot extend the caller's.
            client.call("transcript", {"student_id": "x"},
                        on_response=lambda _r: None, deadline_s=60.0)
        net.quiesce()
        assert seen == [deadline, deadline]
        sent_at = net.sim.now  # outside any scope its own deadline rides
        client.call("transcript", {"student_id": "x"},
                    on_response=lambda _r: None, deadline_s=60.0)
        net.quiesce()
        assert seen[2] == sent_at + 60.0


class TestVirtualTimeIsPinned:
    """The simulator's clock, counters and link horizons after a fixed
    script — recorded at the commit before the request envelope was
    optimised.  Wall-clock work on this path must never move them."""

    def test_twelve_request_script(self):
        net = build_network(2)
        server = RemoteTierServer(net, "s1")
        admin = server.administrator

        def local(op, session, **params):
            return admin.handle(Request(op, session, params)).unwrap()

        registrar = local("login", None, user="registrar",
                          role="administrator")["session_id"]
        shih = local("login", None, user="shih",
                     role="instructor")["session_id"]
        for student in ("alice", "bob", "carol"):
            local("admit_student", registrar, student_id=student)
        local("register_course", shih, course_number="CS1", title="Intro")
        for student in ("alice", "bob", "carol"):
            local("enroll", registrar, student_id=student,
                  course_number="CS1")
        local("record_grade", shih, student_id="alice", course_number="CS1",
              grade=3.5)
        for doc_id, title, word, size in (
            ("d1", "Intro notes", "intro", 1000),
            ("d2", "Advanced notes", "advanced", 2000),
        ):
            local("publish_course_document", shih, doc_id=doc_id,
                  title=title, course_number="CS1",
                  keywords=[word, "notes"], size_bytes=size)

        client = RemoteTierClient(net, "s2", "s1")
        times: list[float] = []

        def step(op, deadline_s=None, **params):
            if deadline_s is None:
                response = client.call_sync(op, **params)
            else:
                box = []
                client.call(op, params, on_response=box.append,
                            deadline_s=deadline_s)
                net.quiesce()
                (response,) = box
            times.append(net.sim.now)
            return response

        client.session_id = step(
            "login", user="alice", role="student"
        ).unwrap()["session_id"]
        replies = [
            step("search_library", keywords="notes", limit=10),
            step("transcript"),
            step("check_out", doc_id="d1", time=5.0),
            step("check_in", doc_id="d1", time=9.0),
            step("fly_to_moon"),
            step("check_out", doc_id="nope"),
        ]
        client.session_id = registrar
        replies += [
            step("roster", course_number="CS1"),
            step("transcript", student_id="alice"),
            step("roster", deadline_s=5.0, course_number="CS1"),
            step("search_library", course="CS1"),
            step("assessment_report"),
        ]

        assert [r.ok for r in replies] == [
            True, True, True, True, False, False,
            True, True, True, True, True,
        ]
        assert times == [
            0.0404896, 0.08099200000000001, 0.12148400000000002,
            0.1619768, 0.2024616, 0.24292239999999998, 0.2833912,
            0.32387520000000003, 0.36437920000000007, 0.4048632000000001,
            0.44535680000000016, 0.4858720000000002,
        ]
        assert net.stats() == {
            "stations": 2, "messages": 24, "bytes": 7340, "dropped": 0,
            "expired": 0, "time": 0.4858720000000002, "events": 24,
        }
        s1, s2 = net.station("s1"), net.station("s2")
        assert (s1.link.bytes_up, s1.link.bytes_down) == (6436, 904)
        assert (s2.link.bytes_up, s2.link.bytes_down) == (904, 6436)
        assert (s1.messages_sent, s1.messages_received) == (12, 12)
        assert (s2.messages_sent, s2.messages_received) == (12, 12)
        assert s1.link.up_busy_until == s2.link.down_busy_until == float.fromhex(
            "0x1.dd0d8cb07d0b2p-2"
        )
        assert s1.link.down_busy_until == s2.link.up_busy_until == float.fromhex(
            "0x1.c81908e581cfap-2"
        )


class TestOutOfRangeParamsOverTheWire:
    """A numeric param past what a float holds comes back as a failure
    reply: an exception out of the server would surface in the client's
    ``call_sync`` and leave the request unanswered."""

    @pytest.mark.parametrize("op, params, error", OUT_OF_RANGE,
                             ids=OUT_OF_RANGE_IDS)
    def test_answered_with_a_failure(self, world, op, params, error):
        net, server = world
        client = RemoteTierClient(net, "s2", "s1")

        def call(session, op, **params):
            client.session_id = session
            return client.call_sync(op, **params)

        sessions = seed_out_of_range(call)
        if op == "check_out":
            call(sessions[op], "check_in", doc_id="d1", time=1.0)
        received = server.requests_received
        response = call(sessions[op], op, **params)
        assert not response.ok and not response.shed
        assert response.error.startswith(error), response.error
        assert server.requests_received == received + 1
        # ... and the server keeps answering.
        assert call(sessions[op], "search_library", course="c1").ok


class TestMalformedDeadline:
    @pytest.mark.parametrize("with_controller", [False, True],
                             ids=["plain", "admission"])
    @pytest.mark.parametrize("deadline", MALFORMED_DEADLINES,
                             ids=MALFORMED_DEADLINE_IDS)
    def test_answered_with_a_failure(self, deadline, with_controller):
        """The serving station's in-flight check and the tier's gate both
        meet the deadline: neither may raise into the simulator."""
        net = build_network(2)
        admission = (
            AdmissionController(clock=lambda: net.sim.now)
            if with_controller else None
        )
        server = RemoteTierServer(
            net, "s1", ClassAdministrator(admission=admission)
        )
        client = RemoteTierClient(net, "s2", "s1")
        client.login("registrar", "administrator")
        request = Request("roster", client.session_id,
                          {"course_number": "c1"}, deadline=deadline)
        replies = []
        net.call("s2", "s1", TIER, request, request.wire_size,
                 replies.append)
        net.quiesce()
        [response] = replies
        assert not response.ok and not response.shed
        assert response.error == f"deadline must be a number, got {deadline!r}"
        assert server.requests_received == 2
        if admission is not None:
            assert admission.depth == 0
        assert client.call_sync("roster", course_number="c1").ok
