"""Read routing across a primary class administrator and the members
of its replication tree."""

from __future__ import annotations

import itertools

import pytest

from repro.distribution import MAryTree, MetadataReplicator
from repro.net.sim import Simulator
from repro.net.station import Station
from repro.net.transport import Network
from repro.tiers import (
    REPLICA_SAFE_OPS,
    ClassAdministrator,
    ReplicaSet,
    Request,
)


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


def _doc_ids(response):
    return sorted(hit["doc_id"] for hit in response.unwrap())


def _tier(tmp_path, members=("r1", "r2"), *, admission=None, **options):
    """A durable primary at ``tmp_path/admin`` and a star of
    ``members`` under its station ``primary``, drained; returns
    ``(network, rs)``."""
    network = Network(Simulator(), default_latency_s=0.002)
    names = ["primary", *members]
    for name in names:
        network.add(Station(name))
    primary = ClassAdministrator(
        data_dir=tmp_path / "admin", sync_policy="none", admission=admission,
    )
    replicator = MetadataReplicator(
        network, MAryTree(len(names), max(1, len(members)), names=names),
        primary.admin_db, tmp_path,
    )
    network.quiesce()
    return network, ReplicaSet(primary, replicator, **options)


@pytest.fixture
def rs(tmp_path):
    """A durable primary with a drained star of two members, pre-seeded
    with two documents published through the set."""
    network, rs = _tier(tmp_path)
    rs.instructor = _login(rs, "shih", "instructor")
    for doc in ("d1", "d2"):
        _publish(rs, rs.instructor, doc)
    network.quiesce()
    return rs


def _lag_members(rs):
    """An acked write whose frames are still on the wire: every member
    is one record behind."""
    registrar = _login(rs, "registrar", "administrator")
    _call(rs, registrar, "admit_student", student_id="eve").unwrap()
    assert all(
        rs.replicator.divergence(name) == 1 for name in rs.replicator.members
    )


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
        # Only the primary has it until the stream drains.
        primary_hits = rs.primary.handle(Request(
            op="search_library", session_id=rs.instructor,
            params={"keywords": "video"},
        )).unwrap()
        assert len(primary_hits) == 3
        assert rs.replicator.divergence("r1") == 1

    def test_lagging_replicas_fall_back_to_primary(self, rs):
        _lag_members(rs)
        hits = _call(rs, rs.instructor, "search_library",
                     keywords="video").unwrap()
        assert len(hits) == 2  # served, by the primary
        assert rs.stats()["reads_primary"] == 1
        assert rs.stats()["reads_replica"] == 0

    def test_read_metrics_label_the_target(self, rs, metrics_registry):
        _call(rs, rs.instructor, "search_library", keywords="video")
        _lag_members(rs)
        _call(rs, rs.instructor, "search_library", keywords="video")
        snap = metrics_registry.snapshot()
        assert snap.counters[("replica.reads", (("target", "replica"),))] == 1
        assert snap.counters[("replica.reads", (("target", "primary"),))] == 1

    def test_a_down_member_is_not_routed_to(self, rs):
        rs.replicator.network.set_down("r1", True)
        for _ in range(2):
            _call(rs, rs.instructor, "search_library", keywords="video")
        assert rs.stats()["replicas"]["r1"]["served"] == 0
        assert rs.stats()["replicas"]["r2"]["served"] == 2


class TestReadOnlyGate:
    def test_replica_refuses_writes(self, rs):
        replica = rs.member("r1")
        session = _login(rs, "registrar", "administrator")
        denied = _call(replica, session, "admit_student", student_id="eve")
        assert not denied.ok
        assert "read-only replica" in denied.error
        assert "primary" in denied.error

    def test_replica_serves_safe_reads(self, rs):
        replica = rs.member("r1")
        hits = _call(replica, rs.instructor, "search_library",
                     keywords="video").unwrap()
        assert len(hits) == 2


class TestSessionMirroring:
    def test_login_via_set_reaches_replicas(self, rs):
        admins = [rs.member(name) for name in rs.replicator.members]
        session = _login(rs, "registrar", "administrator")
        for admin in admins:
            assert session in admin.sessions()

    def test_existing_sessions_mirror_onto_late_replica(self, rs):
        network = rs.replicator.network
        network.add(Station("r3"))
        rs.replicator.restart("r3")
        network.quiesce()
        assert rs.instructor in rs.member("r3").sessions()

    def test_logout_via_set_drops_everywhere(self, rs):
        admins = [rs.member(name) for name in rs.replicator.members]
        session = _login(rs, "registrar", "administrator")
        _call(rs, session, "logout")
        for admin in admins:
            assert session not in admin.sessions()

    def test_instructor_privilege_travels_with_session(self, rs):
        # Mirrored instructor sessions must carry publish privilege so a
        # post-promotion primary can authorize without a fresh login.
        rs.replicator.network.set_down("primary", True)
        rs.promote()
        response = _publish(rs.primary, rs.instructor, "d9")
        assert response.ok, response.error


class TestPromotion:
    def test_promote_swaps_primary_and_clears_read_only(self, rs):
        old_primary = rs.primary
        network = rs.replicator.network
        network.set_down("primary", True)
        network.set_down("r1", True)  # so r2 wins the election
        report = rs.promote()
        promoted = rs.primary
        assert report.new_primary == "r2"
        assert promoted.admin_db is rs.replicator.master
        assert promoted.read_only is False
        assert promoted is not old_primary
        assert list(rs.replicator.members) == ["r1"]

    def test_a_replicator_of_another_engine_is_refused(self, rs):
        with pytest.raises(ValueError, match="master"):
            ReplicaSet(ClassAdministrator(), rs.replicator)


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
    """The real wiring: member freshness from WAL shipping."""

    def _cluster(self, tmp_path):
        network, rs = _tier(tmp_path, members=("replica-1",))
        session = _login(rs, "shih", "instructor")
        recoverer = rs.replicator.members["replica-1"]
        return network, rs, recoverer, rs.member("replica-1"), session

    def test_published_documents_become_searchable_on_replica(
        self, tmp_path
    ):
        network, rs, recoverer, replica, session = self._cluster(tmp_path)
        _publish(rs, session, "d1")
        _publish(rs, session, "d2")
        network.quiesce()
        assert recoverer.caught_up
        hits = _call(rs, session, "search_library",
                     keywords="video").unwrap()
        assert sorted(h["doc_id"] for h in hits) == ["d1", "d2"]
        assert rs.stats()["reads_replica"] == 1
        assert rs.stats()["replicas"]["replica-1"]["served"] == 1

    def test_resyncing_follower_is_not_routed_to(self, tmp_path):
        network, rs, recoverer, replica, session = self._cluster(tmp_path)
        _publish(rs, session, "d1")
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
        network, rs, recoverer, replica, session = self._cluster(tmp_path)
        _publish(rs, session, "d1")
        _publish(rs, session, "d2")
        _call(rs, session, "withdraw_course_document", doc_id="d1")
        network.quiesce()
        # The library view is brought up to date at routing time.
        hits = _call(rs.member("replica-1"), session, "search_library",
                     keywords="video").unwrap()
        assert [h["doc_id"] for h in hits] == ["d2"]

    def test_follower_serves_from_cache_and_sees_the_next_shipped_write(
        self, tmp_path
    ):
        network, rs, recoverer, replica, _ = self._cluster(tmp_path)
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
        network.quiesce()
        assert reads() == (
            ["s1", "s2"],
            [{"student_id": "s2", "course_number": "cs101", "grade": 4.0}],
        )
        assert replica.query_cache.hits == hits + 2
        assert rs.stats()["reads_replica"] == 8


class TestMembersAreTheTree:
    """What the set reads off its replicator: divergence, the member's
    engine of the moment, and the tree after a failover."""

    def test_a_read_after_an_acked_write_is_never_served_stale(
        self, tmp_path
    ):
        network, rs = _tier(tmp_path, members=("r1",))
        admin = _login(rs, "root", "administrator")
        _call(rs, admin, "register_course", course_number="cs101",
              title="Intro", instructor="shih").unwrap()
        _call(rs, admin, "admit_student", student_id="s1").unwrap()
        network.quiesce()
        assert rs.replicator.members["r1"].caught_up  # drained
        _call(rs, admin, "enroll", student_id="s1",
              course_number="cs101").unwrap()
        read = _call(rs, admin, "roster", course_number="cs101")
        truth = _call(rs.primary, admin, "roster", course_number="cs101")
        assert truth.unwrap() == ["s1"]
        assert read.unwrap() == truth.data or read.degraded is not None
        # The set flushed the acked write: once the network drains, the
        # member has it and is read again.
        network.quiesce()
        assert _call(rs, admin, "roster", course_number="cs101").unwrap() \
            == ["s1"]
        assert rs.stats()["replicas"]["r1"]["served"] == 1

    def test_a_deposed_root_is_routed_to_once_drained(self, tmp_path):
        network, rs = _tier(tmp_path)
        session = _login(rs, "shih", "instructor")
        _publish(rs, session, "d1")
        network.quiesce()
        network.set_down("primary", True)
        report = rs.promote()
        assert report.new_primary == "r1"
        _publish(rs, session, "d2").unwrap()
        network.set_down("primary", False)
        rs.replicator.restart("primary")
        search = lambda: _call(  # noqa: E731
            rs, session, "search_library", keywords="video")
        assert _doc_ids(search()) == ["d1", "d2"]
        assert rs.stats()["replicas"]["primary"]["served"] == 0
        network.quiesce()
        assert rs.replicator.divergence("primary") == 0
        for _ in range(2):
            assert _doc_ids(search()) == ["d1", "d2"]
        assert rs.stats()["replicas"]["primary"]["served"] == 1

    def test_a_member_that_installed_a_snapshot_is_served_from_its_new_engine(
        self, tmp_path
    ):
        network, rs = _tier(tmp_path, members=("r1",))
        session = _login(rs, "shih", "instructor")
        _publish(rs, session, "d1")
        network.quiesce()
        search = lambda: _call(  # noqa: E731
            rs, session, "search_library", keywords="video")
        assert _doc_ids(search()) == ["d1"]
        engine = rs.replicator.members["r1"].db
        network.set_down("r1", True)
        _publish(rs, session, "d2")
        rs.primary.checkpoint()  # r1's position is checkpointed away
        _publish(rs, session, "d3")
        network.set_down("r1", False)
        rs.replicator.repair("r1")
        network.quiesce()
        member = rs.replicator.members["r1"]
        assert member.db is not engine  # resynced by snapshot
        assert _doc_ids(search()) == ["d1", "d2", "d3"]
        assert rs.stats()["replicas"]["r1"]["served"] == 2
        assert rs.member("r1").admin_db is member.db

    def test_a_rejoiner_with_another_history_is_not_read_before_its_resync(
        self, tmp_path
    ):
        network, rs = _tier(tmp_path)
        admin = _login(rs, "root", "administrator")
        _call(rs, admin, "admit_student", student_id="a").unwrap()
        network.quiesce()
        network.set_down("primary", True)
        assert rs.promote().new_primary == "r1"
        network.quiesce()  # r2 follows r1
        network.set_down("r1", True)  # r1 dies before shipping these
        for student in ("x1", "x2"):
            _call(rs, admin, "admit_student", student_id=student).unwrap()
        assert rs.promote().new_primary == "r2"
        for student in ("y1", "y2"):  # the same LSNs, another history
            _call(rs, admin, "admit_student", student_id=student).unwrap()
        network.set_down("r1", False)
        rs.replicator.restart("r1")
        assert rs.replicator.divergence("r1") == 0
        _call(rs, admin, "transcript", student_id="y1").unwrap()
        assert rs.stats()["replicas"]["r1"]["served"] == 0
        network.quiesce()  # r1 is resynced by snapshot from r2
        students = {
            row["student_id"]
            for row in rs.member("r1").admin_db.select("students")
        }
        assert students == {"a", "y1", "y2"}
        _call(rs, admin, "transcript", student_id="y1").unwrap()
        assert rs.stats()["replicas"]["r1"]["served"] == 1


def _fall_behind(rs, session, lags):
    """Leave member ``name`` ``lags[name]`` records behind the master,
    or (None) on a down station.  A member misses the writes flushed
    while its station is down; the last ones are never flushed."""
    network = rs.replicator.network
    admits = (f"lag{i}" for i in itertools.count())
    for name, lag in lags.items():
        network.set_down(name, lag is None)
    levels = sorted({lag for lag in lags.values() if lag is not None},
                    reverse=True)
    top = levels[0] if levels else 0
    written = 0
    for level in levels:
        behind = [n for n, lag in lags.items() if lag is not None and lag > level]
        for name in behind:
            network.set_down(name, True)
        for _ in range(top - level - written):
            _call(rs, session, "admit_student", student_id=next(admits)).unwrap()
        written = top - level
        network.quiesce()
        for name in behind:
            network.set_down(name, False)
    for _ in range(top - written):
        _call(rs.primary, session, "admit_student",
              student_id=next(admits)).unwrap()
    assert {
        name: rs.replicator.divergence(name)
        for name, lag in lags.items() if lag is not None
    } == {name: lag for name, lag in lags.items() if lag is not None}


class TestDegradedRouting:
    """Graceful degradation: lagged members and the primary fallback."""

    def _shedding_rs(self, tmp_path, *, lags):
        """A ReplicaSet whose primary has an admission controller, with
        one member per entry of ``lags``: that many records behind the
        master, or (None) on a down station."""
        from repro.admission import AdmissionController, ClockBox

        clock = ClockBox(0.0)
        _network, rs = _tier(
            tmp_path, members=tuple(lags),
            admission=AdmissionController(clock=clock),
            max_staleness_records=10,
        )
        session = _login(rs, "registrar", "administrator")
        _fall_behind(rs, session, lags)
        rs.session = session
        rs.clock = clock
        return rs

    def _mark_shedding(self, rs):
        rs.primary.admission._last_shed_at = rs.clock.now

    def test_all_lagged_falls_back_to_primary(
        self, tmp_path, metrics_registry
    ):
        """Regression: every replica lagging must route to the primary
        (counted), never error or drop the read."""
        # Both stations down: no bounded-staleness route exists even
        # while shedding.
        rs = self._shedding_rs(tmp_path, lags={"r0": None, "r1": None})
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert rs.stats()["fallbacks"] == 1
        assert rs.stats()["reads_primary"] == 1
        snap = metrics_registry.snapshot()
        key = ("replica.fallback", (("target", "primary"),))
        assert snap.counters[key] == 1

    def test_all_lagged_without_shedding_also_falls_back(self, tmp_path):
        rs = self._shedding_rs(tmp_path, lags={"r0": 5})
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert rs.stats()["fallbacks"] == 1
        assert rs.stats()["reads_lagged"] == 0  # primary healthy: no
        # need to trade staleness for capacity

    def test_shedding_primary_routes_to_least_lagged_replica(self, tmp_path):
        rs = self._shedding_rs(tmp_path, lags={"r0": 7, "r1": 3})
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert response.degraded == "lagged-replica"
        assert rs.stats()["reads_lagged"] == 1
        assert rs.stats()["replicas"]["r1"]["served"] == 1  # lag 3 wins

    def test_staleness_bound_excludes_too_lagged(self, tmp_path):
        rs = self._shedding_rs(tmp_path, lags={"r0": 99, "r1": None})
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok
        assert response.degraded is None  # served fresh by the primary
        assert rs.stats()["reads_lagged"] == 0
        assert rs.stats()["fallbacks"] == 1

    def test_lagged_read_metrics(self, tmp_path, metrics_registry):
        rs = self._shedding_rs(tmp_path, lags={"r0": 2})
        self._mark_shedding(rs)
        _call(rs, rs.session, "roster", course_number="x")
        snap = metrics_registry.snapshot()
        reads = ("replica.reads", (("target", "lagged"),))
        fallback = ("replica.fallback", (("target", "lagged-replica"),))
        assert snap.counters[reads] == 1
        assert snap.counters[fallback] == 1

    def test_caught_up_replica_still_preferred(self, tmp_path):
        # Shedding or not, a fresh member wins over a lagged one.
        rs = self._shedding_rs(tmp_path, lags={"r0": 2, "fresh": 0})
        self._mark_shedding(rs)
        response = _call(rs, rs.session, "roster", course_number="x")
        assert response.ok and response.degraded is None
        assert rs.stats()["replicas"]["fresh"]["served"] == 1
