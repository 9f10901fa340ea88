"""Read routing across a primary class administrator and its replicas."""

from __future__ import annotations

import pytest

from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.replication import Recoverer, WalShipper
from repro.tiers import (
    REPLICA_SAFE_OPS,
    ClassAdministrator,
    ReplicaSet,
    Request,
)
from repro.tiers.server import ADMIN_SCHEMAS


def _login(target, user, role):
    response = target.handle(Request(
        op="login", session_id=None, params={"user": user, "role": role},
    ))
    return response.unwrap()["session_id"]


def _call(target, session, op, **params):
    return target.handle(Request(op=op, session_id=session, params=params))


def _publish(target, session, doc_id, keywords=("video",)):
    return _call(
        target, session, "publish_course_document",
        doc_id=doc_id, title=f"Lecture {doc_id}", course_number="MM1",
        keywords=list(keywords),
    )


@pytest.fixture
def rs():
    """Primary + two always-ready in-memory replicas, pre-seeded.

    Replica freshness is faked by replaying the publishes on the
    replica databases directly (write path, before read_only is set) —
    the WAL-shipped variant is exercised in TestFollowerIntegration.
    """
    primary = ClassAdministrator()
    replicas = {"r1": ClassAdministrator(), "r2": ClassAdministrator()}
    instructor = _login(primary, "shih", "instructor")
    for admin in replicas.values():
        session = _login(admin, "shih", "instructor")
        for doc in ("d1", "d2"):
            _publish(admin, session, doc)
        _call(admin, session, "logout")
    for doc in ("d1", "d2"):
        _publish(primary, instructor, doc)
    rs = ReplicaSet(primary)
    for name, admin in replicas.items():
        rs.add_replica(name, admin)
    rs.instructor = instructor
    rs.replica_admins = replicas
    return rs


class TestRouteTable:
    def test_safe_ops_route_to_replicas(self):
        assert {"search_library", "transcript", "roster"} <= REPLICA_SAFE_OPS
        assert not REPLICA_SAFE_OPS & {
            "publish_course_document", "check_out", "login",
        }

    def test_circulation_is_primary_only(self):
        # Loan state lives only on the primary; a replica must never
        # answer circulation or assessment reads.
        assert "check_out" not in REPLICA_SAFE_OPS
        assert "check_in" not in REPLICA_SAFE_OPS
        assert "assessment_report" not in REPLICA_SAFE_OPS


class TestRouting:
    def test_reads_round_robin_across_replicas(self, rs):
        for _ in range(4):
            hits = _call(rs, rs.instructor, "search_library",
                         keywords="video").unwrap()
            assert len(hits) == 2
        stats = rs.stats()
        assert stats["reads_replica"] == 4
        assert stats["replicas"]["r1"]["served"] == 2
        assert stats["replicas"]["r2"]["served"] == 2

    def test_writes_go_to_primary(self, rs):
        _publish(rs, rs.instructor, "d3")
        assert rs.stats()["writes"] >= 1
        # Only the primary got it (fake replicas receive no stream).
        primary_hits = rs.primary.handle(Request(
            op="search_library", session_id=rs.instructor,
            params={"keywords": "video"},
        )).unwrap()
        assert len(primary_hits) == 3

    def test_lagging_replicas_fall_back_to_primary(self, rs):
        for replica in rs.replicas:
            replica.ready = lambda: False
        hits = _call(rs, rs.instructor, "search_library",
                     keywords="video").unwrap()
        assert len(hits) == 2  # served, by the primary
        assert rs.stats()["reads_primary"] == 1
        assert rs.stats()["reads_replica"] == 0

    def test_read_metrics_label_the_target(self, rs, metrics_registry):
        _call(rs, rs.instructor, "search_library", keywords="video")
        rs.replicas[0].ready = rs.replicas[1].ready = lambda: False
        _call(rs, rs.instructor, "search_library", keywords="video")
        snap = metrics_registry.snapshot()
        assert snap.counters[("replica.reads", (("target", "replica"),))] == 1
        assert snap.counters[("replica.reads", (("target", "primary"),))] == 1


class TestReadOnlyGate:
    def test_replica_refuses_writes(self, rs):
        replica = rs.replica_admins["r1"]
        session = _login(rs, "registrar", "administrator")
        denied = _call(replica, session, "admit_student", student_id="eve")
        assert not denied.ok
        assert "read-only replica" in denied.error
        assert "primary" in denied.error

    def test_replica_serves_safe_reads(self, rs):
        replica = rs.replica_admins["r1"]
        hits = _call(replica, rs.instructor, "search_library",
                     keywords="video").unwrap()
        assert len(hits) == 2


class TestSessionMirroring:
    def test_login_via_set_reaches_replicas(self, rs):
        session = _login(rs, "registrar", "administrator")
        for admin in rs.replica_admins.values():
            assert session in admin.sessions()

    def test_existing_sessions_mirror_onto_late_replica(self, rs):
        late = ClassAdministrator()
        rs.add_replica("r3", late)
        assert rs.instructor in late.sessions()

    def test_logout_via_set_drops_everywhere(self, rs):
        session = _login(rs, "registrar", "administrator")
        _call(rs, session, "logout")
        for admin in rs.replica_admins.values():
            assert session not in admin.sessions()

    def test_instructor_privilege_travels_with_session(self, rs):
        # Mirrored instructor sessions must carry publish privilege so a
        # post-promotion primary can authorize without a fresh login.
        promoted = rs.promote_replica("r1")
        response = _publish(promoted, rs.instructor, "d9")
        assert response.ok, response.error


class TestPromotion:
    def test_promote_swaps_primary_and_clears_read_only(self, rs):
        old_primary = rs.primary
        promoted = rs.promote_replica("r2")
        assert rs.primary is promoted
        assert promoted.read_only is False
        assert promoted is not old_primary
        assert [r.name for r in rs.replicas] == ["r1"]

    def test_unknown_replica_raises(self, rs):
        with pytest.raises(LookupError):
            rs.promote_replica("nope")


class TestDurableCatalog:
    def test_catalog_survives_restart(self, tmp_path):
        # Pre-existing bug fixed by the durable catalog table: the
        # library used to be in-memory only, so a restarted durable
        # server lost every published document.
        first = ClassAdministrator(data_dir=tmp_path)
        session = _login(first, "shih", "instructor")
        _publish(first, session, "d1", keywords=("video", "lecture"))
        _publish(first, session, "d2")

        second = ClassAdministrator(data_dir=tmp_path)
        session = _login(second, "shih", "instructor")
        hits = _call(second, session, "search_library",
                     keywords="video").unwrap()
        assert sorted(h["doc_id"] for h in hits) == ["d1", "d2"]

    def test_withdraw_survives_restart(self, tmp_path):
        first = ClassAdministrator(data_dir=tmp_path)
        session = _login(first, "shih", "instructor")
        _publish(first, session, "d1")
        _publish(first, session, "d2")
        _call(first, session, "withdraw_course_document", doc_id="d1")

        second = ClassAdministrator(data_dir=tmp_path)
        session = _login(second, "shih", "instructor")
        hits = _call(second, session, "search_library",
                     keywords="video").unwrap()
        assert [h["doc_id"] for h in hits] == ["d2"]


class TestFollowerIntegration:
    """The real wiring: replica freshness from WAL shipping."""

    def _cluster(self, tmp_path):
        network = Network(Simulator(), default_latency_s=0.002)
        network.add(Station("primary"))
        network.add(Station("replica-1"))
        primary = ClassAdministrator(data_dir=tmp_path / "primary")
        shipper = WalShipper(
            network, "primary", primary.journal,
            snapshot_path=primary.snapshot_path,
            snapshot_fn=primary.checkpoint,
        )
        rs = ReplicaSet(primary)
        session = _login(rs, "shih", "instructor")
        replica_admin = ClassAdministrator()
        recoverer = Recoverer(
            network, "replica-1", "primary", ADMIN_SCHEMAS,
            tmp_path / "replica-1", sync_policy="commit",
        )
        rs.add_follower("replica-1", replica_admin, recoverer)
        recoverer.start()
        network.quiesce()
        return network, shipper, rs, recoverer, replica_admin, session

    def test_published_documents_become_searchable_on_replica(
        self, tmp_path
    ):
        network, shipper, rs, recoverer, replica, session = (
            self._cluster(tmp_path)
        )
        _publish(rs, session, "d1")
        _publish(rs, session, "d2")
        shipper.pump()
        network.quiesce()
        assert recoverer.caught_up
        hits = _call(rs, session, "search_library",
                     keywords="video").unwrap()
        assert sorted(h["doc_id"] for h in hits) == ["d1", "d2"]
        assert rs.stats()["reads_replica"] == 1
        assert rs.stats()["replicas"]["replica-1"]["served"] == 1

    def test_resyncing_follower_is_not_routed_to(self, tmp_path):
        network, shipper, rs, recoverer, replica, session = (
            self._cluster(tmp_path)
        )
        _publish(rs, session, "d1")
        shipper.pump()
        network.quiesce()
        # Force the follower back into a catch-up stage: partition it and
        # resubscribe, so the subscription is dropped and it sits in
        # TAILING (not CAUGHT_UP) until the stream answers.
        network.set_down("replica-1", True)
        recoverer.retarget("primary")
        assert not recoverer.caught_up
        hits = _call(rs, session, "search_library",
                     keywords="video").unwrap()
        assert [h["doc_id"] for h in hits] == ["d1"]
        assert rs.stats()["reads_primary"] == 1
        assert rs.stats()["reads_replica"] == 0
        # Heal: the replica serves reads again once caught up.
        network.set_down("replica-1", False)
        recoverer.retarget("primary")
        network.quiesce()
        assert recoverer.caught_up
        _call(rs, session, "search_library", keywords="video")
        assert rs.stats()["reads_replica"] == 1

    def test_withdraw_replicates(self, tmp_path):
        network, shipper, rs, recoverer, replica, session = (
            self._cluster(tmp_path)
        )
        _publish(rs, session, "d1")
        _publish(rs, session, "d2")
        _call(rs, session, "withdraw_course_document", doc_id="d1")
        shipper.pump()
        network.quiesce()
        hits = _call(replica, session, "search_library",
                     keywords="video").unwrap()
        assert [h["doc_id"] for h in hits] == ["d2"]

    def test_follower_serves_from_cache_and_sees_the_next_shipped_write(
        self, tmp_path
    ):
        network, shipper, rs, recoverer, replica, _ = self._cluster(tmp_path)
        admin = _login(rs, "root", "administrator")

        def write(op, **params):
            _call(rs, admin, op, **params).unwrap()

        def reads():
            return (
                _call(rs, admin, "roster", course_number="cs101").unwrap(),
                _call(rs, admin, "transcript", student_id="s2").unwrap(),
            )

        write("register_course", course_number="cs101", title="Intro",
              instructor="shih")
        for student in ("s1", "s2"):
            write("admit_student", student_id=student)
        write("enroll", student_id="s1", course_number="cs101")
        shipper.pump()
        network.quiesce()
        reads()  # a first miss stores nothing
        first = reads()  # the second stores
        hits = replica.query_cache.hits
        assert reads() == first == (["s1"], [])
        assert replica.query_cache.hits == hits + 2
        assert rs.stats()["reads_replica"] == 6
        # The replay path fires no trigger; the table versions still move.
        write("enroll", student_id="s2", course_number="cs101")
        write("record_grade", student_id="s2", course_number="cs101",
              grade=4.0)
        shipper.pump()
        network.quiesce()
        assert reads() == (
            ["s1", "s2"],
            [{"student_id": "s2", "course_number": "cs101", "grade": 4.0}],
        )
        assert replica.query_cache.hits == hits + 2
        assert rs.stats()["reads_replica"] == 8

class TestDegradedRouting:
    """Graceful degradation: lagged replicas and the primary fallback."""

    def _shedding_rs(self, *, lags):
        """A ReplicaSet whose primary admission controller is shedding
        and whose replicas are all lagged (never ready), with the given
        known lags (None = unknown)."""
        from repro.admission import AdmissionController, ClockBox

        clock = ClockBox(0.0)
        primary = ClassAdministrator(
            admission=AdmissionController(clock=clock)
        )
        rs = ReplicaSet(primary, max_staleness_records=10)
        session = _login(rs, "registrar", "administrator")
        for i, lag in enumerate(lags):
            rs.add_replica(
                f"r{i}", ClassAdministrator(),
                ready=lambda: False,
                lag=(lambda value=lag: value) if lag is not None else None,
            )
        rs.session = session
        rs.clock = clock
        return rs

    def _mark_shedding(self, rs):
        rs.primary.admission._last_shed_at = rs.clock.now

    def test_all_lagged_falls_back_to_primary(self, metrics_registry):
        """Regression: every replica lagging must route to the primary
        (counted), never error or drop the read."""
        rs = self._shedding_rs(lags=[None, None])  # lag unknown: no
        # bounded-staleness route exists even while shedding
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert rs.stats()["fallbacks"] == 1
        assert rs.stats()["reads_primary"] == 1
        snap = metrics_registry.snapshot()
        key = ("replica.fallback", (("target", "primary"),))
        assert snap.counters[key] == 1

    def test_all_lagged_without_shedding_also_falls_back(self):
        rs = self._shedding_rs(lags=[5])
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert rs.stats()["fallbacks"] == 1
        assert rs.stats()["reads_lagged"] == 0  # primary healthy: no
        # need to trade staleness for capacity

    def test_shedding_primary_routes_to_least_lagged_replica(self):
        rs = self._shedding_rs(lags=[7, 3])
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert response.degraded == "lagged-replica"
        assert rs.stats()["reads_lagged"] == 1
        assert rs.stats()["replicas"]["r1"]["served"] == 1  # lag 3 wins

    def test_staleness_bound_excludes_too_lagged(self):
        rs = self._shedding_rs(lags=[99, None])
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert response.degraded is None  # served fresh by the primary
        assert rs.stats()["reads_lagged"] == 0
        assert rs.stats()["fallbacks"] == 1

    def test_lagged_read_metrics(self, metrics_registry):
        rs = self._shedding_rs(lags=[2])
        self._mark_shedding(rs)
        _call(rs, rs.session, "roster", course_number="x")
        snap = metrics_registry.snapshot()
        reads = ("replica.reads", (("target", "lagged"),))
        fallback = ("replica.fallback", (("target", "lagged-replica"),))
        assert snap.counters[reads] == 1
        assert snap.counters[fallback] == 1

    def test_caught_up_replica_still_preferred(self):
        rs = self._shedding_rs(lags=[2])
        rs.add_replica("fresh", ClassAdministrator(), ready=lambda: True)
        # Mirror the session onto the new replica happened in
        # add_replica; shedding or not, caught-up wins.
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok and response.degraded is None
        assert rs.stats()["replicas"]["fresh"]["served"] == 1
