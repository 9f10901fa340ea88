"""Tests for the version-stamped result store and its read-through."""

import pytest

from repro.admission import AdmissionController, ClockBox
from repro.rdb import (
    Column,
    ColumnType,
    Database,
    Schema,
    UnknownTableError,
    col,
)
from repro.rdb.wal import WalFrame
from repro.tiers import (
    ClassAdministrator,
    OpenDatabaseConnection,
    QueryCache,
    Request,
    Role,
    TableVersions,
)

T = ColumnType

BOOKS = Schema(
    name="books",
    columns=(
        Column("book_id", T.INT, nullable=False),
        Column("title", T.TEXT, nullable=False),
        Column("copies", T.INT, nullable=False, default=1),
    ),
    primary_key=("book_id",),
)


BAD_BOUNDS = {
    "neg-limit": dict(limit=-1), "str-limit": dict(limit="2"),
    "bool-limit": dict(limit=True), "neg-offset": dict(limit=3, offset=-1),
    "str-offset": dict(offset="1"),
}


@pytest.fixture
def db() -> Database:
    db = Database("lib")
    db.create_table(BOOKS)
    for i in range(5):
        db.insert("books", {"book_id": i, "title": f"b{i}", "copies": i})
    return db


@pytest.fixture
def versions(db) -> TableVersions:
    versions = TableVersions()
    versions.attach(db)
    return versions


@pytest.fixture
def cache(versions) -> QueryCache:
    return QueryCache(versions, max_entries=8)


class TestTableVersions:
    def test_every_write_bumps(self, db, versions):
        v0 = versions.version("books")
        db.insert("books", {"book_id": 10, "title": "new"})
        v1 = versions.version("books")
        db.update_pk("books", (10,), {"copies": 3})
        v2 = versions.version("books")
        db.delete_pk("books", (10,))
        v3 = versions.version("books")
        assert v0 < v1 < v2 < v3

    def test_unknown_table_raises_like_select(self, versions):
        with pytest.raises(UnknownTableError):
            versions.version("ghost")

    def test_unattached_versions_refuse(self):
        with pytest.raises(RuntimeError, match="attach"):
            TableVersions().version("books")

    def test_reads_the_table_and_registers_no_trigger(self, db, versions):
        assert db.triggers_on("books") == []
        assert versions.version("books") == db.table("books").version

    def test_every_mutation_path_bumps(self, db, versions):
        """Not only DML: undo, savepoint undo and replicated apply."""
        seen = [versions.version("books")]

        def moved():
            seen.append(versions.version("books"))
            return seen[-1] > seen[-2]

        db.begin()
        db.insert("books", {"book_id": 20, "title": "t"})
        assert moved()
        db.savepoint("sp")
        db.delete_pk("books", (1,))
        assert moved()
        db.rollback_to("sp")  # the rowid-stable re-insert
        assert moved()
        db.rollback()
        assert moved()
        db.apply_frame(WalFrame("txn", 0, 9, [
            ["insert", "books", {"book_id": 21, "title": "r", "copies": 1}],
        ], None, b"", 0, 0))
        assert moved()

    def test_dropped_and_recreated_name_never_repeats_a_version(
        self, db, versions
    ):
        before = versions.version("books")
        db.drop_table("books")
        db.create_table(BOOKS)
        assert versions.version("books") > before


class TestQueryCache:
    def test_repeat_read_hits(self, db, cache):
        first = cache.select(db, "books", where=col("copies") >= 2,
                             order_by="book_id")
        second = cache.select(db, "books", where=col("copies") >= 2,
                              order_by="book_id")
        assert first == second
        assert cache.hits == 1 and cache.misses == 1

    def test_write_between_reads_yields_fresh_result(self, db, cache):
        before = cache.select(db, "books", order_by="book_id")
        db.insert("books", {"book_id": 99, "title": "fresh", "copies": 9})
        after = cache.select(db, "books", order_by="book_id")
        assert len(after) == len(before) + 1
        assert after[-1]["title"] == "fresh"

    def test_update_invalidates(self, db, cache):
        cache.select(db, "books", where=col("book_id") == 1)
        db.update_pk("books", (1,), {"copies": 77})
        rows = cache.select(db, "books", where=col("book_id") == 1)
        assert rows[0]["copies"] == 77

    def test_delete_invalidates(self, db, cache):
        cache.select(db, "books", where=col("book_id") == 1)
        db.delete_pk("books", (1,))
        assert cache.select(db, "books", where=col("book_id") == 1) == []

    def test_caller_mutation_cannot_poison_cache(self, db, cache):
        rows = cache.select(db, "books", where=col("book_id") == 1)
        rows[0]["title"] = "mutated"
        again = cache.select(db, "books", where=col("book_id") == 1)
        assert again[0]["title"] == "b1"
        assert cache.hits == 1

    def test_a_raising_compute_is_neither_stored_nor_counted(self, cache):
        def refuse():
            raise ValueError("refused")

        before = cache.stats()
        with pytest.raises(ValueError):
            cache.read_through(("op",), ("books",), refuse)
        assert cache.stats() == before
        assert cache.read_through(("op",), ("books",), lambda: ["a"]) == ["a"]
        assert cache.stats()["misses"] == before["misses"] + 1

    def test_distinct_queries_are_distinct_entries(self, db, cache):
        cache.select(db, "books", where=col("copies") >= 2)
        cache.select(db, "books", where=col("copies") >= 3)
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_eviction_bounds_residency(self, db, versions):
        small = QueryCache(versions, max_entries=2)
        for i in range(5):
            small.select(db, "books", where=col("book_id") == i)
        assert len(small) == 2

    def test_opaque_predicate_bypasses(self, db, cache):
        where = col("title").apply(str.upper) == "B1"
        rows = cache.select(db, "books", where=where)
        assert [r["book_id"] for r in rows] == [1]
        assert cache.bypasses == 1 and len(cache) == 0

    def test_table_created_after_attach_is_cached(self, db, versions, cache):
        db.create_table(Schema(
            name="late",
            columns=(Column("id", T.INT, nullable=False),),
            primary_key=("id",),
        ))
        assert cache.select(db, "late") == cache.select(db, "late") == []
        assert cache.bypasses == 0 and cache.hits == 1
        db.insert("late", {"id": 1})
        assert cache.select(db, "late") == [{"id": 1}]

    def test_unknown_table_raises_and_stores_nothing(self, db, cache):
        with pytest.raises(UnknownTableError):
            cache.select(db, "ghost")
        assert len(cache) == 0

    def test_write_replaces_the_dead_entry_in_place(self, db, cache):
        """The version is a stamp, not part of the key: a stale entry's
        slot is reused instead of ageing out of the LRU."""
        for i in range(20):
            cache.select(db, "books", where=col("book_id") == 1)
            db.update_pk("books", (1,), {"copies": 100 + i})
        assert len(cache) == 1
        assert cache.stats()["too_stale"] == 19

    # -- row changes that fire no trigger ---------------------------------
    def test_rollback_is_never_served(self, db, cache):
        where = col("book_id") == 70
        db.begin()
        db.insert("books", {"book_id": 70, "title": "ghost"})
        assert len(cache.select(db, "books", where=where)) == 1
        db.rollback()
        assert cache.select(db, "books", where=where) == []

    def test_rollback_to_savepoint_is_never_served(self, db, cache):
        where = col("book_id") == 1
        db.begin()
        db.savepoint("sp")
        db.delete_pk("books", (1,))
        assert cache.select(db, "books", where=where) == []
        db.rollback_to("sp")
        assert cache.select(db, "books", where=where) == \
            db.select("books", where=where) != []
        db.commit()

    def test_applied_frame_invalidates(self, db, cache):
        where = col("book_id") == 71
        assert cache.select(db, "books", where=where) == []
        db.apply_frame(WalFrame("txn", 0, 5, [
            ["insert", "books", {"book_id": 71, "title": "shipped",
                                 "copies": 1}],
        ], None, b"", 0, 0))
        assert [r["title"] for r in cache.select(db, "books", where=where)] \
            == ["shipped"]

    def test_drop_and_recreate_invalidates(self, db, cache):
        assert len(cache.select(db, "books")) == 5
        db.drop_table("books")
        db.create_table(BOOKS)
        assert cache.select(db, "books") == []

    @pytest.mark.parametrize("bounds", BAD_BOUNDS.values(), ids=BAD_BOUNDS)
    def test_bad_bounds_raise_uncached(self, db, cache, bounds):
        for _ in range(2):  # miss path both times: nothing was stored
            with pytest.raises(ValueError, match="limit|offset"):
                cache.select(db, "books", **bounds)
        assert cache.stats()["entries"] == 0

    def test_stats_shape(self, db, cache):
        cache.select(db, "books")
        stats = cache.stats()
        assert stats == {
            "hits": 0, "misses": 1, "bypasses": 0, "too_stale": 0,
            "entries": 1,
        }

    def test_rejects_zero_capacity(self, versions):
        with pytest.raises(ValueError):
            QueryCache(versions, max_entries=0)


class TestStampedStore:
    """``record``/``lookup`` — the store under ``select`` and under the
    server's stale ledger."""

    def test_lookup_within_lag_hits_past_it_evicts(self, db, versions):
        store = QueryCache(versions)
        store.record(("k",), ("books",), "reply")
        for i in range(3):
            db.update_pk("books", (1,), {"copies": 50 + i})
        assert store.lookup(("k",), 3) == (True, "reply")
        assert store.lookup(("k",), 2) == (False, None)
        # Evicted, not merely refused: a later, laxer lookup misses too.
        assert store.lookup(("k",), 99) == (False, None)
        assert store.stats() == {
            "hits": 1, "misses": 2, "bypasses": 0, "too_stale": 1,
            "entries": 0,
        }

    def test_any_stamped_table_past_the_lag_is_a_miss(self, db, versions):
        db.create_table(Schema(
            name="shelves",
            columns=(Column("id", T.INT, nullable=False),),
            primary_key=("id",),
        ))
        store = QueryCache(versions)
        store.record(("k",), ("books", "shelves"), "reply")
        db.insert("shelves", {"id": 1})
        assert store.lookup(("k",), 1) == (True, "reply")
        db.insert("shelves", {"id": 2})
        assert store.lookup(("k",), 1) == (False, None)

    def test_record_replaces_and_refreshes_recency(self, versions):
        store = QueryCache(versions, max_entries=2)
        store.record(("a",), ("books",), 1)
        store.record(("b",), ("books",), 2)
        store.record(("a",), ("books",), 3)  # replaced: now most recent
        store.record(("c",), ("books",), 4)  # evicts b, the oldest
        assert store.lookup(("b",), 0) == (False, None)
        assert store.lookup(("a",), 0) == (True, 3)
        assert store.lookup(("c",), 0) == (True, 4)

    def test_hit_refreshes_recency(self, versions):
        store = QueryCache(versions, max_entries=2)
        store.record(("a",), ("books",), 1)
        store.record(("b",), ("books",), 2)
        assert store.lookup(("a",), 0)[0]
        store.record(("c",), ("books",), 3)  # evicts b, not the just-hit a
        assert store.lookup(("a",), 0)[0] and not store.lookup(("b",), 0)[0]

    def test_recording_against_an_unknown_table_raises(self, versions):
        store = QueryCache(versions)
        with pytest.raises(UnknownTableError):
            store.record(("k",), ("ghost",), "reply")
        assert len(store) == 0


class TestConnectionIntegration:
    def test_cursor_reads_through_cache(self, db, cache):
        connection = OpenDatabaseConnection(db, cache=cache)
        connection.cursor().select("books", order_by="book_id").fetchall()
        connection.cursor().select("books", order_by="book_id").fetchall()
        assert cache.hits == 1

    def test_cursor_write_then_read_is_fresh(self, db, cache):
        connection = OpenDatabaseConnection(db, cache=cache)
        cursor = connection.cursor()
        before = cursor.select("books", order_by="book_id").fetchall()
        cursor.insert("books", {"book_id": 50, "title": "added"})
        after = connection.cursor().select(
            "books", order_by="book_id"
        ).fetchall()
        assert len(after) == len(before) + 1


class TestServerIntegration:
    def _admin(self):
        server = ClassAdministrator()
        login = server.handle(Request(op="login", session_id=None, params={
            "user": "root", "role": "administrator",
        }))
        return server, login.data["session_id"]

    def test_repeated_roster_hits_cache(self, metrics_registry):
        server, sess = self._admin()
        server.handle(Request(op="register_course", session_id=sess, params={
            "course_number": "cs101", "title": "Intro", "instructor": "shih",
        }))
        server.handle(Request(op="admit_student", session_id=sess,
                              params={"student_id": "s1"}))
        server.handle(Request(op="enroll", session_id=sess, params={
            "student_id": "s1", "course_number": "cs101",
        }))
        baseline = server.query_cache.hits
        first = server.handle(Request(op="roster", session_id=sess,
                                      params={"course_number": "cs101"}))
        second = server.handle(Request(op="roster", session_id=sess,
                                       params={"course_number": "cs101"}))
        assert first.data == second.data == ["s1"]
        assert server.query_cache.hits > baseline
        # The instrumented counters agree with the cache's own ledger.
        snap = metrics_registry.snapshot()
        hit_key = ("tiers.cache", (("outcome", "hit"),))
        miss_key = ("tiers.cache", (("outcome", "miss"),))
        assert snap.counters[hit_key] == server.query_cache.hits
        assert snap.counters[miss_key] == server.query_cache.misses

    def test_enroll_between_rosters_never_stale(self):
        server, sess = self._admin()
        server.handle(Request(op="register_course", session_id=sess, params={
            "course_number": "cs101", "title": "Intro", "instructor": "shih",
        }))
        for student in ("s1", "s2"):
            server.handle(Request(op="admit_student", session_id=sess,
                                  params={"student_id": student}))
        server.handle(Request(op="enroll", session_id=sess, params={
            "student_id": "s1", "course_number": "cs101",
        }))
        first = server.handle(Request(op="roster", session_id=sess,
                                      params={"course_number": "cs101"}))
        server.handle(Request(op="enroll", session_id=sess, params={
            "student_id": "s2", "course_number": "cs101",
        }))
        second = server.handle(Request(op="roster", session_id=sess,
                                       params={"course_number": "cs101"}))
        assert first.data == ["s1"]
        assert second.data == ["s1", "s2"]


class TestReplyStore:
    """The tier stores its finished ``transcript`` and ``roster`` replies
    in ``query_cache``, keyed by op, session user and role, and params."""

    def _server(self, admission=None):
        server = ClassAdministrator(admission=admission)

        def call(session, op, **params):
            return server.handle(Request(op, session, params, deadline=1e9))

        admin = call(None, "login", user="registrar",
                     role="administrator").data["session_id"]
        call(admin, "register_course", course_number="cs101", title="Intro",
             instructor="shih")
        for student in ("alice", "bob"):
            call(admin, "admit_student", student_id=student)
            call(admin, "enroll", student_id=student, course_number="cs101")
        call(admin, "record_grade", student_id="alice",
             course_number="cs101", grade=3.5)
        return server, call, admin

    def test_a_hit_runs_no_handler(self):
        server, call, admin = self._server()
        first = call(admin, "roster", course_number="cs101")
        server._handlers["roster"] = None  # a hit never reaches it
        second = call(admin, "roster", course_number="cs101")
        assert first.data == second.data == ["alice", "bob"]
        assert server.query_cache.stats()["hits"] == 1

    def test_mutating_any_reply_never_changes_a_later_one(self):
        clock = ClockBox(0.0)
        server, call, admin = self._server(
            AdmissionController(clock=clock, default_deadline_s=1.0)
        )
        reads = [("roster", {"course_number": "cs101"}),
                 ("transcript", {"student_id": "alice"})]
        expected = [call(admin, op, **params).data for op, params in reads]

        def poison(data):
            if data and isinstance(data[0], dict):
                data[0]["grade"] = 0.0
            data.append("mallory")

        for (op, params), want in zip(reads, expected):
            fresh = call(admin, op, **params)  # a hit
            poison(fresh.data)
            assert call(admin, op, **params).data == want
            server.admission.busy_until = clock.now + 50.0
            for _ in range(2):  # degraded, then degraded again
                degraded = server.handle(Request(
                    op, admin, params, deadline=clock.now + 0.5,
                ))
                assert degraded.degraded == "stale-cache"
                assert degraded.data == want
                poison(degraded.data)
            server.admission.busy_until = 0.0
            assert call(admin, op, **params).data == want

    def test_a_refused_read_is_not_recorded(self):
        server, call, admin = self._server()
        alice = call(None, "login", user="alice",
                     role="student").data["session_id"]
        before = server.query_cache.stats()
        for _ in range(2):
            assert not call(alice, "transcript", student_id="bob").ok
            assert not call(admin, "roster").ok  # no course_number
            assert not call(alice, "roster", course_number="cs101").ok
        # Not stored, and not counted as a lookup either.
        assert server.query_cache.stats() == before

    def test_session_role_and_read_only_checks_precede_the_lookup(
        self, monkeypatch
    ):
        server, call, admin = self._server()
        assert call(admin, "roster", course_number="cs101").ok  # stored
        # Read-only: were roster not replica-safe, an entry would not
        # let it through.
        monkeypatch.setattr("repro.tiers.server.REPLICA_SAFE_OPS",
                            frozenset())
        server.read_only = True
        refused = call(admin, "roster", course_number="cs101")
        assert "read-only" in refused.error
        monkeypatch.undo()
        server.read_only = False
        # Role: the same session id, now bound to a student.
        server.install_session(admin, "registrar", Role.STUDENT)
        refused = call(admin, "roster", course_number="cs101")
        assert "may not call" in refused.error
        # Session: gone after logout.
        call(admin, "logout")
        assert call(admin, "roster", course_number="cs101").error \
            == "not logged in"

    def test_a_session_bound_to_another_user_reads_its_own_transcript(self):
        server, call, _admin = self._server()
        alice = call(None, "login", user="alice",
                     role="student").data["session_id"]
        assert [r["student_id"] for r in call(alice, "transcript").data] \
            == ["alice"]
        server.install_session(alice, "bob", Role.STUDENT)
        assert call(alice, "transcript").data == []
