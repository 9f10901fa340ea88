"""Property: the read-through cache is indistinguishable from the database.

Hypothesis drives arbitrary interleavings of every path that changes
rows — single-row and bulk DML (some of it failing mid-statement, some
of it cascading into a child table), explicit transactions with commits,
rollbacks, savepoints and partial rollbacks, and replicated apply, which
checks no constraint and fires no trigger.  After every step each keyed
query reads the same through a cache two slots short of holding them
all (so hits, replacements and evictions interleave) as straight from
the database, and no table's version ever decreases.  Random reads
among the writes, through caches of 1, 2 and 8 entries, check the
doorkeeper the same way: a result is stored on its second miss, and
neither the store nor its set of keys seen once outgrows the cache.

The class administrator's stored replies get the same treatment: its
``transcript`` and ``roster`` replies, each mutated by the caller once
checked, equal a recomputation from the tables after every admit,
enroll, grade, rollback and replicated apply.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rdb import (
    Action,
    Column,
    ColumnType,
    Database,
    ForeignKey,
    RdbError,
    Schema,
    col,
)
from repro.rdb.wal import WalFrame
from repro.tiers import ClassAdministrator, QueryCache, Request, TableVersions

T = ColumnType
KEYS = st.integers(min_value=0, max_value=5)
SHELVES = Schema(
    name="shelves",
    columns=(Column("shelf", T.INT, nullable=False),),
    primary_key=("shelf",),
)
BOOKS = Schema(
    name="books",
    columns=(
        Column("book_id", T.INT, nullable=False),
        Column("shelf", T.INT, nullable=False),
        Column("copies", T.INT, nullable=False),
    ),
    primary_key=("book_id",),
    foreign_keys=(
        ForeignKey(("shelf",), "shelves", ("shelf",),
                   on_delete=Action.CASCADE),
    ),
)
BOOK = st.fixed_dictionaries({
    "book_id": KEYS, "shelf": st.integers(min_value=0, max_value=2),
    "copies": KEYS,
})
ACTION = st.one_of(
    st.tuples(st.just("insert"), BOOK),
    st.tuples(st.just("insert_many"), st.lists(BOOK, max_size=4)),
    st.tuples(st.just("update"), KEYS, KEYS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("drop_shelf"), st.integers(0, 2)),
    st.tuples(st.just("replicate"), BOOK),
    st.tuples(st.just("replicate_delete"), KEYS),
    st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
    st.tuples(st.sampled_from(["savepoint", "rollback_to"]),
              st.sampled_from(["a", "b"])),
)
ACTIONS = st.lists(ACTION, max_size=30)
#: (table, select keywords): point, range, ordered-and-limited, whole.
QUERIES = [
    ("books", dict(order_by="book_id")),
    ("books", dict(where=col("copies") >= 3, order_by="book_id")),
    ("books", dict(where=col("shelf") == 1, order_by="book_id", limit=2)),
    ("shelves", dict(order_by="shelf")),
] + [("books", dict(where=col("book_id") == key)) for key in range(6)]


def shipped(ops: list) -> WalFrame:
    """One txn frame carrying ``ops``, as a primary ships them."""
    return WalFrame("txn", 0, None, ops, None, b"", 0, 0)


def _apply(db: Database, action: tuple) -> None:
    kind, *args = action
    if kind == "insert":
        db.insert("books", args[0])
    elif kind == "insert_many":
        db.insert_many("books", args[0])
    elif kind == "update":
        db.update_pk("books", (args[0],), {"copies": args[1]})
    elif kind == "delete":
        db.delete_pk("books", (args[0],))
    elif kind == "drop_shelf":
        db.delete_pk("shelves", (args[0],))  # cascades into books
    elif kind == "replicate":
        # Replay trusts the log, so only ship what a primary could have
        # journaled: the parent shelf first, an update if the key exists.
        row = args[0]
        ops = []
        if not db.exists("shelves", row["shelf"]):
            ops.append(["insert", "shelves", {"shelf": row["shelf"]}])
        if db.exists("books", row["book_id"]):
            ops.append(["update", "books", [row["book_id"]], row])
        else:
            ops.append(["insert", "books", row])
        db.apply_frame(shipped(ops))
    elif kind == "replicate_delete":
        db.apply_frame(shipped([["delete", "books", [args[0]]]]))
    else:  # begin / commit / rollback / savepoint / rollback_to
        getattr(db, kind)(*args)


@settings(max_examples=150, deadline=None)
@given(actions=ACTIONS)
def test_cached_select_always_equals_database_select(actions):
    db = Database("lib")
    db.create_table(SHELVES)
    db.create_table(BOOKS)
    for shelf in range(3):
        db.insert("shelves", {"shelf": shelf})
    versions = TableVersions()
    versions.attach(db)
    cache = QueryCache(versions, max_entries=len(QUERIES) - 2)
    seen = {name: versions.version(name) for name in db.table_names()}
    for step, action in enumerate(actions):
        try:
            _apply(db, action)
        except RdbError:
            pass  # duplicate key, missing shelf, no open transaction, ...
        # Alternate the order: a fixed cycle longer than the cache would
        # evict every entry just before its next use.
        for table, query in QUERIES[::1 if step % 2 else -1]:
            assert cache.select(db, table, **query) == \
                db.select(table, **query), (action, table, query)
        for name, before in seen.items():
            seen[name] = versions.version(name)
            assert seen[name] >= before, (action, name)
    assert cache.hits + cache.misses == len(actions) * len(QUERIES)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.integers(0, len(QUERIES) - 1)),
            st.tuples(st.just("write"), ACTION),
        ),
        max_size=40,
    ),
    max_entries=st.sampled_from([1, 2, 8]),
)
def test_the_doorkeeper_never_changes_an_answer(steps, max_entries):
    """Over random reads and writes, what is stored on a second miss is
    never served stale or shared, and neither the store nor the set of
    keys seen once outgrows ``max_entries``."""
    db = Database("lib")
    db.create_table(SHELVES)
    db.create_table(BOOKS)
    for shelf in range(3):
        db.insert("shelves", {"shelf": shelf})
    versions = TableVersions()
    versions.attach(db)
    cache = QueryCache(versions, max_entries=max_entries)
    for step in steps:
        if step[0] == "write":
            try:
                _apply(db, step[1])
            except RdbError:
                pass
            continue
        table, query = QUERIES[step[1]]
        answer = cache.select(db, table, **query)
        assert answer == db.select(table, **query), (step, table, query)
        for row in answer:  # the caller owns its answer
            row.clear()
        answer.append({"mallory": True})
        assert len(cache) <= max_entries
        assert len(cache._seen) <= max_entries


# ---------------------------------------------------------------------------
# The class administrator's stored replies
# ---------------------------------------------------------------------------
STUDENT_IDS = ["s0", "s1", "s2", "s3"]
COURSE_IDS = ["c0", "c1", "c2"]
STUDENT = st.sampled_from(STUDENT_IDS)
COURSE = st.sampled_from(COURSE_IDS)
GRADE = st.sampled_from([1.0, 3.5, 4.0])
TIER_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("admit_student"), STUDENT),
        st.tuples(st.just("enroll"), STUDENT, COURSE),
        st.tuples(st.just("record_grade"), STUDENT, COURSE, GRADE),
        st.tuples(st.just("replicate"), STUDENT, COURSE, GRADE),
        st.tuples(st.sampled_from(["begin", "commit", "rollback"])),
    ),
    max_size=25,
)


def _tier_apply(server: ClassAdministrator, admin: str, action: tuple) -> None:
    kind, *args = action
    db = server.admin_db
    if kind == "admit_student":
        server.handle(Request(kind, admin, {"student_id": args[0]}))
    elif kind == "enroll":
        server.handle(Request(kind, admin, {
            "student_id": args[0], "course_number": args[1],
        }))
    elif kind == "record_grade":
        server.handle(Request(kind, admin, {
            "student_id": args[0], "course_number": args[1],
            "grade": args[2],
        }))
    elif kind == "replicate":
        # Ship only what a primary could have journaled: the student
        # first, then the enrollment, then the grade (or its update).
        student, course, grade = args
        ops: list = []
        if not db.exists("students", student):
            ops.append(["insert", "students", {
                "student_id": student, "name": student, "admitted": True,
            }])
        if not db.exists("enrollments", (student, course)):
            ops.append(["insert", "enrollments", {
                "student_id": student, "course_number": course,
            }])
        row = {"student_id": student, "course_number": course,
               "grade": grade}
        if db.exists("transcripts", (student, course)):
            ops.append(["update", "transcripts", [student, course], row])
        else:
            ops.append(["insert", "transcripts", row])
        db.apply_frame(shipped(ops))
    else:  # begin / commit / rollback
        getattr(db, kind)()


@settings(max_examples=100, deadline=None)
@given(actions=TIER_ACTIONS)
def test_stored_replies_always_equal_a_recomputation(actions):
    server = ClassAdministrator()
    # Fewer slots than reads per step: hits, replacements and
    # evictions interleave.
    server.query_cache = QueryCache(server.table_versions, max_entries=6)

    def call(session, op, **params):
        return server.handle(Request(op, session, params))

    admin = call(None, "login", user="registrar",
                 role="administrator").data["session_id"]
    for course in COURSE_IDS:
        call(admin, "register_course", course_number=course, title="T",
             instructor="shih")
    students = {}
    for student in STUDENT_IDS[:2]:
        call(admin, "admit_student", student_id=student)
        students[student] = call(None, "login", user=student,
                                 role="student").data["session_id"]
    db = server.admin_db

    def transcript_of(student):
        return db.select("transcripts", where=col("student_id") == student,
                         order_by="course_number")

    def roster_of(course):
        rows = db.select("enrollments", where=col("course_number") == course,
                         order_by="student_id")
        return [row["student_id"] for row in rows]

    for step, action in enumerate(actions):
        try:
            _tier_apply(server, admin, action)
        except RdbError:
            pass  # no open transaction, apply inside one, ...
        reads = [
            ((admin, "transcript", {"student_id": s}), transcript_of(s))
            for s in STUDENT_IDS
        ] + [
            ((session, "transcript", {}), transcript_of(s))
            for s, session in students.items()
        ] + [
            ((admin, "roster", {"course_number": c}), roster_of(c))
            for c in COURSE_IDS
        ]
        for (session, op, params), expected in reads[::1 if step % 2 else -1]:
            reply = call(session, op, **params)
            assert reply.ok and reply.data == expected, (action, op, params)
            # The caller owns its reply: mutating it must not reach the
            # store, or a later step reads the mutation back.
            if reply.data and isinstance(reply.data[0], dict):
                reply.data[0]["grade"] = -1.0
            reply.data.append("mallory")
        refused = call(students["s0"], "transcript", student_id="s1")
        assert not refused.ok
