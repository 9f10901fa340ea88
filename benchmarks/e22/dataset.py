"""Seeded data for E22 and the oracle's model of it.

Two datasets, both made from ``--seed`` alone:

* the **tier dataset** (students, courses, catalog documents,
  enrollments, grades) loaded into a durable
  :class:`~repro.tiers.server.ClassAdministrator` through its own
  request protocol, and
* the **report corpus** (E19's ``docs`` × ``courses`` shape plus two
  secondary indexes) loaded straight into a
  :class:`~repro.rdb.Database` behind the ODBC-style connection.

:class:`TierModel` is the oracle: a plain-Python model of what the
middle tier must answer, kept in step with every acknowledged write and
never reading anything back from the server.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.library.search import tokenize
from repro.rdb import Column, ColumnType, Database, Schema
from repro.tiers.protocol import Request
from repro.tiers.server import ClassAdministrator

__all__ = [
    "GRADE_SCALE",
    "TABLE_COLUMNS",
    "TierSizes",
    "CorpusSizes",
    "DocSpec",
    "TierPlan",
    "TierModel",
    "Zipf",
    "child_rng",
    "keyword",
    "student_id",
    "make_doc",
    "plan_tier",
    "load_tier",
    "open_sessions",
    "server_rows",
    "corpus_rows",
    "build_corpus",
]

GRADE_SCALE = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def child_rng(seed: int, label: str) -> random.Random:
    """An independent stream per (seed, purpose); str seeding is stable
    across processes, unlike ``hash()``."""
    return random.Random(f"e22:{seed}:{label}")


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``."""

    def __init__(self, n: int, exponent: float) -> None:
        self._cum = list(
            itertools.accumulate(1.0 / (k ** exponent) for k in range(1, n + 1))
        )

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cum, rng.random() * self._cum[-1])


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TierSizes:
    """How big the tier dataset is (README states why these numbers)."""

    students: int = 4000
    courses: int = 100
    instructors: int = 20
    documents: int = 5000
    keywords_per_doc: int = 4
    vocabulary: int = 2000
    enrollments: int = 16000
    grades: int = 4000
    #: students that hold a session (circulation, hot transcripts)
    sessions: int = 256

    def scaled(self, factor: float) -> "TierSizes":
        """The same shape at ``factor`` of the size (``--smoke``, tests)."""

        def cut(value: int, floor: int) -> int:
            return max(floor, int(value * factor))

        students = cut(self.students, 40)
        courses = cut(self.courses, 8)
        enrollments = min(cut(self.enrollments, 120), students * courses // 2)
        return replace(
            self,
            students=students,
            courses=courses,
            instructors=min(self.instructors, courses),
            documents=cut(self.documents, 80),
            vocabulary=cut(self.vocabulary, 50),
            enrollments=enrollments,
            grades=min(cut(self.grades, 40), enrollments // 2),
            sessions=min(self.sessions, students),
        )


@dataclass(frozen=True)
class CorpusSizes:
    """E19's corpus shape: ``docs`` rows citing a course catalog."""

    docs: int = 10000
    courses: int = 200
    authors: int = 97
    versions: int = 7
    max_size_kb: int = 2000
    depts: int = 10

    def scaled(self, factor: float) -> "CorpusSizes":
        return replace(self, docs=max(500, int(self.docs * factor)))


# ---------------------------------------------------------------------------
# The tier dataset
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class DocSpec:
    """One catalog document as the generator made it."""

    doc_id: str
    title: str
    course: str
    instructor: str
    keywords: tuple[str, ...]
    size_bytes: int

    def publish_params(self) -> dict[str, Any]:
        return {
            "doc_id": self.doc_id,
            "title": self.title,
            "course_number": self.course,
            "keywords": list(self.keywords),
            "size_bytes": self.size_bytes,
        }


def student_id(index: int) -> str:
    return f"s{index:05d}"


def course_id(index: int) -> str:
    return f"c{index:03d}"


def instructor_id(index: int) -> str:
    return f"prof{index:02d}"


def keyword(rank: int) -> str:
    return f"kw{rank:04d}"


def make_doc(
    index: int, course: str, instructor: str, sizes: TierSizes,
    zipf: Zipf, rng: random.Random,
) -> DocSpec:
    """Document ``index``: Zipf(1.0) keywords; the title shares no word
    with the vocabulary, so keyword postings are the keywords alone."""
    return DocSpec(
        doc_id=f"d{index:06d}",
        title=f"Notes {index}",
        course=course,
        instructor=instructor,
        keywords=tuple(
            keyword(zipf.draw(rng)) for _ in range(sizes.keywords_per_doc)
        ),
        size_bytes=1000 + rng.randrange(9000),
    )


@dataclass(frozen=True)
class TierPlan:
    """Everything the loader sends, in the order it sends it."""

    seed: int
    sizes: TierSizes
    students: tuple[tuple[str, str], ...]  # (student_id, name)
    courses: tuple[tuple[str, str, str], ...]  # (course, title, instructor)
    docs: tuple[DocSpec, ...]
    enrollments: tuple[tuple[str, str], ...]  # (student_id, course)
    grades: tuple[tuple[str, str, float], ...]

    @property
    def instructors(self) -> list[str]:
        return [instructor_id(i) for i in range(self.sizes.instructors)]

    @property
    def session_students(self) -> list[str]:
        return [sid for sid, _ in self.students[: self.sizes.sessions]]


def plan_tier(seed: int, sizes: TierSizes) -> TierPlan:
    """The tier dataset for ``seed`` (same seed, same plan)."""
    rng = child_rng(seed, "tier-data")
    students = tuple(
        (student_id(i), f"Student {i}") for i in range(sizes.students)
    )
    courses = tuple(
        (course_id(i), f"Course {i}", instructor_id(i % sizes.instructors))
        for i in range(sizes.courses)
    )
    zipf = Zipf(sizes.vocabulary, 1.0)
    docs = []
    for i in range(sizes.documents):
        course, _title, instructor = courses[rng.randrange(sizes.courses)]
        docs.append(make_doc(i, course, instructor, sizes, zipf, rng))
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < sizes.enrollments:
        pairs.add((rng.randrange(sizes.students), rng.randrange(sizes.courses)))
    enrollments = [
        (student_id(s), course_id(c)) for s, c in sorted(pairs)
    ]
    graded = rng.sample(enrollments, sizes.grades)
    grades = tuple(
        (s, c, rng.choice(GRADE_SCALE)) for s, c in sorted(graded)
    )
    return TierPlan(
        seed=seed,
        sizes=sizes,
        students=students,
        courses=courses,
        docs=tuple(docs),
        enrollments=tuple(enrollments),
        grades=grades,
    )


def load_tier(
    plan: TierPlan, data_dir: Path, *,
    tick: Callable[[], None] | None = None, **server_kwargs: Any,
) -> ClassAdministrator:
    """Load ``plan`` through tier ops, checkpoint, reopen.

    The bulk load runs under ``sync_policy="none"`` (nobody waits on
    those acknowledgements); the returned server is a fresh process
    image recovered from the snapshot, opened with ``server_kwargs``
    (the measured sync policy, the admission controller).  ``tick`` is
    called after every load request, so the harness can read its
    reference kernel while a set-up runs.
    """
    _bulk_load(plan, data_dir, tick)  # the loading server is gone on return
    return ClassAdministrator(data_dir=data_dir, **server_kwargs)


def _bulk_load(
    plan: TierPlan, data_dir: Path, tick: Callable[[], None] | None
) -> None:
    loader = ClassAdministrator(data_dir=data_dir, sync_policy="none")

    def login(user: str, role: str) -> str:
        reply = loader.handle(
            Request("login", None, {"user": user, "role": role})
        )
        return reply.unwrap()["session_id"]

    def call(session: str, op: str, params: dict[str, Any]) -> None:
        loader.handle(Request(op, session, params)).unwrap()
        if tick is not None:
            tick()

    admin = login("registrar", "administrator")
    for sid, name in plan.students:
        call(admin, "admit_student", {"student_id": sid, "name": name})
    for course, title, instructor in plan.courses:
        call(admin, "register_course", {
            "course_number": course, "title": title, "instructor": instructor,
        })
    teaching = {name: login(name, "instructor") for name in plan.instructors}
    for doc in plan.docs:
        call(teaching[doc.instructor], "publish_course_document",
             doc.publish_params())
    for sid, course in plan.enrollments:
        call(admin, "enroll", {"student_id": sid, "course_number": course})
    for sid, course, grade in plan.grades:
        call(admin, "record_grade", {
            "student_id": sid, "course_number": course, "grade": grade,
        })
    loader.checkpoint()
    assert loader.journal is not None
    loader.journal.close()


def open_sessions(
    server: ClassAdministrator, plan: TierPlan
) -> dict[str, str]:
    """Log in the administrator, every instructor and the session
    students; returns user -> session id."""
    sessions: dict[str, str] = {}
    users = [("registrar", "administrator")]
    users += [(name, "instructor") for name in plan.instructors]
    users += [(sid, "student") for sid in plan.session_students]
    for user, role in users:
        reply = server.handle(
            Request("login", None, {"user": user, "role": role})
        )
        sessions[user] = reply.unwrap()["session_id"]
    return sessions


# ---------------------------------------------------------------------------
# The oracle's model
# ---------------------------------------------------------------------------
class TierModel:
    """What the middle tier must hold and answer, tracked independently.

    ``check`` compares one reply with the model's own answer and, for a
    write the server acknowledged, applies it to the model — so the next
    read is checked against the state the server claims to be in.
    """

    def __init__(self, plan: TierPlan) -> None:
        self.students: dict[str, str] = dict(plan.students)
        self.instructor_of: dict[str, str] = {
            course: instructor for course, _title, instructor in plan.courses
        }
        self.rosters: dict[str, list[str]] = {
            course: [] for course in self.instructor_of
        }
        self.enrolled: set[tuple[str, str]] = set()
        self.grades: dict[str, dict[str, float]] = {}
        self.stations: dict[str, tuple[str, str]] = {}
        self.docs: dict[str, DocSpec] = {}
        self.by_keyword: dict[str, list[str]] = {}
        self.by_course: dict[str, list[str]] = {}
        self.by_instructor: dict[str, list[str]] = {}
        self.loans: dict[tuple[str, str], float] = {}
        self._doc_terms: dict[str, tuple[list[str], set[str], list[str]]] = {}
        for doc in plan.docs:
            self._add_doc(doc)
        for sid, course in plan.enrollments:
            self._enroll(sid, course)
        for sid, course, grade in plan.grades:
            self.grades.setdefault(sid, {})[course] = grade

    # -- state changes -------------------------------------------------------
    def _add_doc(self, doc: DocSpec) -> None:
        self.docs[doc.doc_id] = doc
        for word in set(doc.keywords):
            bisect.insort(self.by_keyword.setdefault(word, []), doc.doc_id)
        bisect.insort(self.by_course.setdefault(doc.course, []), doc.doc_id)
        bisect.insort(
            self.by_instructor.setdefault(doc.instructor, []), doc.doc_id
        )

    def _enroll(self, sid: str, course: str) -> None:
        self.enrolled.add((sid, course))
        bisect.insort(self.rosters[course], sid)

    # -- the oracle ----------------------------------------------------------
    def check(
        self, op: str, user: str, params: dict[str, Any], response: Any
    ) -> bool:
        """True when ``response`` is exactly what the model expects."""
        if not response.ok or response.degraded is not None:
            return False
        return response.data == getattr(self, f"_expect_{op}")(user, params)

    def _expect_admit_student(self, _user: str, p: dict[str, Any]) -> Any:
        self.students[p["student_id"]] = p.get("name", p["student_id"])
        return {"student_id": p["student_id"]}

    def _expect_enroll(self, user: str, p: dict[str, Any]) -> Any:
        sid = p.get("student_id", user)
        self._enroll(sid, p["course_number"])
        return {"student_id": sid, "course_number": p["course_number"]}

    def _expect_record_grade(self, _user: str, p: dict[str, Any]) -> Any:
        self.grades.setdefault(p["student_id"], {})[p["course_number"]] = (
            float(p["grade"])
        )
        return True

    def _expect_register_station(self, user: str, p: dict[str, Any]) -> Any:
        self.stations[user] = (p["station"], p.get("address", ""))
        return {"station": p["station"]}

    def _expect_publish_course_document(
        self, user: str, p: dict[str, Any]
    ) -> Any:
        self._add_doc(DocSpec(
            doc_id=p["doc_id"], title=p["title"], course=p["course_number"],
            instructor=user, keywords=tuple(p["keywords"]),
            size_bytes=p["size_bytes"],
        ))
        return {"doc_id": p["doc_id"]}

    def _expect_transcript(self, user: str, p: dict[str, Any]) -> Any:
        sid = p.get("student_id", user)
        return [
            {"student_id": sid, "course_number": course, "grade": grade}
            for course, grade in sorted(self.grades.get(sid, {}).items())
        ]

    def _expect_roster(self, _user: str, p: dict[str, Any]) -> Any:
        return self.rosters[p["course_number"]]

    def _expect_search_library(self, _user: str, p: dict[str, Any]) -> Any:
        # Every generated search uses one axis and one term, so all
        # matches score the same and the order is by doc id alone.
        if "keywords" in p:
            matches = self.by_keyword.get(p["keywords"], [])
        elif "course" in p:
            matches = self.by_course.get(p["course"], [])
        else:
            matches = self.by_instructor.get(p["instructor"], [])
        return [
            {"doc_id": doc_id, "score": 1.0}
            for doc_id in matches[: p.get("limit")]
        ]

    def _expect_check_out(self, user: str, p: dict[str, Any]) -> Any:
        self.loans[(user, p["doc_id"])] = p["time"]
        return {"doc_id": p["doc_id"], "checked_out_at": p["time"]}

    def _expect_check_in(self, user: str, p: dict[str, Any]) -> Any:
        return {"held_seconds": p["time"] - self.loans.pop((user, p["doc_id"]))}

    # -- brute force ---------------------------------------------------------
    def _terms(self, doc: DocSpec) -> tuple[list[str], set[str], list[str]]:
        """(title words, keyword terms, instructor tokens) of one
        document, tokenized once and remembered."""
        terms = self._doc_terms.get(doc.doc_id)
        if terms is None:
            title_words = tokenize(doc.title)
            words = set(title_words)
            for source in doc.keywords:
                words.update(tokenize(source))
            terms = (title_words, words, tokenize(doc.instructor))
            self._doc_terms[doc.doc_id] = terms
        return terms

    def brute_force_search(self, p: dict[str, Any]) -> list[dict[str, Any]]:
        """The search contract evaluated document by document, sharing
        nothing with the model's posting lists or the server's index."""
        terms = tokenize(p["keywords"]) if p.get("keywords") else []
        wanted_instructor = tokenize(p.get("instructor") or "")
        wanted_course = tokenize(p.get("course") or "")
        scored = []
        for doc in self.docs.values():
            title_words, words, instructor_tokens = self._terms(doc)
            if terms and not any(term in words for term in terms):
                continue
            if not all(t in instructor_tokens for t in wanted_instructor):
                continue
            if p.get("course") and doc.course.lower() != p["course"].lower():
                if not wanted_course or not all(
                    any(word.startswith(token) for word in title_words)
                    for token in wanted_course
                ):
                    continue
            hits = sum(1 for term in terms if term in words)
            scored.append((-(hits / len(terms)) if terms else -1.0, doc.doc_id))
        scored.sort()
        return [
            {"doc_id": doc_id, "score": -negated}
            for negated, doc_id in scored[: p.get("limit")]
        ]

    # -- table images --------------------------------------------------------
    def table_rows(self) -> dict[str, set[tuple]]:
        """Every administration table as the set of rows it must hold."""
        return {
            "students": {
                (sid, name, True) for sid, name in self.students.items()
            },
            "enrollments": set(self.enrolled),
            "transcripts": {
                (sid, course, grade)
                for sid, by_course in self.grades.items()
                for course, grade in by_course.items()
            },
            "stations": {
                (user, station, address)
                for user, (station, address) in self.stations.items()
            },
            "catalog_docs": {
                (d.doc_id, d.title, d.course, d.instructor,
                 ",".join(d.keywords), None, d.size_bytes)
                for d in self.docs.values()
            },
        }


#: Column order matching :meth:`TierModel.table_rows`.
TABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "students": ("student_id", "name", "admitted"),
    "enrollments": ("student_id", "course_number"),
    "transcripts": ("student_id", "course_number", "grade"),
    "stations": ("user_id", "station", "address"),
    "catalog_docs": (
        "doc_id", "title", "course_number", "instructor", "keywords",
        "starting_url", "size_bytes",
    ),
}


def server_rows(server: ClassAdministrator) -> dict[str, set[tuple]]:
    """The server's administration tables in :data:`TABLE_COLUMNS` shape,
    read through its ODBC-style connection."""
    return {
        table: {
            tuple(row[c] for c in columns)
            for row in server.connection.cursor().select(table).fetchall()
        }
        for table, columns in TABLE_COLUMNS.items()
    }


# ---------------------------------------------------------------------------
# The report corpus
# ---------------------------------------------------------------------------
T = ColumnType

DOCS_SCHEMA = Schema(
    name="docs",
    columns=(
        Column("doc_id", T.INT, nullable=False),
        Column("course", T.TEXT, nullable=False),
        Column("version", T.INT, nullable=False),
        Column("size_kb", T.INT, nullable=False),
        Column("author", T.TEXT, nullable=False),
    ),
    primary_key=("doc_id",),
)

COURSES_SCHEMA = Schema(
    name="courses",
    columns=(
        Column("course", T.TEXT, nullable=False),
        Column("dept", T.TEXT, nullable=False),
        Column("credits", T.INT, nullable=False),
    ),
    primary_key=("course",),
)


def corpus_rows(
    seed: int, sizes: CorpusSizes
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """``(docs, courses)`` rows for ``seed``; the oracle keeps its own
    copy of these lists and scans them naively."""
    rng = child_rng(seed, "corpus")
    docs = [
        {
            "doc_id": i,
            "course": f"c{rng.randrange(sizes.courses)}",
            "version": rng.randrange(sizes.versions),
            "size_kb": rng.randrange(sizes.max_size_kb),
            "author": f"a{rng.randrange(sizes.authors)}",
        }
        for i in range(sizes.docs)
    ]
    courses = [
        {"course": f"c{i}", "dept": f"d{i % sizes.depts}", "credits": i % 4}
        for i in range(sizes.courses)
    ]
    return docs, courses


def build_corpus(
    docs: Iterable[dict[str, Any]], courses: Iterable[dict[str, Any]]
) -> Database:
    """The report database: E19's two tables plus a hash index on
    ``author`` and a sorted index on ``size_kb``."""
    db = Database("corpus")
    db.create_table(DOCS_SCHEMA)
    db.create_table(COURSES_SCHEMA)
    db.insert_many("docs", [dict(row) for row in docs])
    db.insert_many("courses", [dict(row) for row in courses])
    db.create_hash_index("docs", "docs_by_author", ["author"])
    db.create_sorted_index("docs", "docs_by_size", "size_kb")
    return db
