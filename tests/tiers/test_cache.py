"""Tests for the versioned read-through result cache."""

import pytest

from repro.rdb import Column, ColumnType, Database, Schema, col
from repro.tiers import (
    ClassAdministrator,
    OpenDatabaseConnection,
    QueryCache,
    Request,
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

    def test_untracked_table_is_none(self, versions):
        assert versions.version("ghost") is None

    def test_track_is_idempotent(self, db, versions):
        versions.track(db, "books")  # second call must not re-register
        db.insert("books", {"book_id": 11, "title": "x"})


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

    def test_untracked_table_bypasses(self, db, versions, cache):
        db.create_table(Schema(
            name="late",
            columns=(Column("id", T.INT, nullable=False),),
            primary_key=("id",),
        ))
        cache.select(db, "late")
        assert cache.bypasses == 1

    @pytest.mark.parametrize("bounds", BAD_BOUNDS.values(), ids=BAD_BOUNDS)
    def test_bad_bounds_raise_uncached(self, db, cache, bounds):
        for _ in range(2):  # miss path both times: nothing was stored
            with pytest.raises(ValueError, match="limit|offset"):
                cache.select(db, "books", **bounds)
        assert cache.stats()["entries"] == 0

    def test_stats_shape(self, db, cache):
        cache.select(db, "books")
        stats = cache.stats()
        assert stats == {"hits": 0, "misses": 1, "bypasses": 0, "entries": 1}

    def test_rejects_zero_capacity(self, versions):
        with pytest.raises(ValueError):
            QueryCache(versions, max_entries=0)


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
