"""Property tests for the library search index."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.library import CatalogEntry, VirtualLibrary
from repro.library.search import SearchIndex, tokenize

WORDS = ["multimedia", "network", "database", "drawing", "intro", "systems"]
INSTRUCTORS = ["shih", "ma", "huang"]
COURSES = ["CS101", "MM201", "ED150"]
words = st.sampled_from(WORDS)
doc_spec = st.tuples(
    words,  # keyword
    words,  # title word
    st.sampled_from(INSTRUCTORS),
    st.sampled_from(COURSES),
)
doc_specs = st.lists(doc_spec, max_size=25)


def _library(specs) -> tuple[VirtualLibrary, list[str]]:
    library = VirtualLibrary(instructors={"gen"})
    ids = []
    for index, (keyword, title_word, instructor, course) in enumerate(specs):
        doc_id = f"d{index}"
        library.add_document("gen", CatalogEntry(
            doc_id=doc_id,
            title=f"Intro to {title_word}",
            course_number=course,
            instructor=instructor,
            keywords=(keyword,),
        ))
        ids.append(doc_id)
    return library, ids


@given(doc_specs, words)
@settings(max_examples=80, deadline=None)
def test_keyword_results_sound_and_complete(specs, query):
    """Every result really contains the term; every containing doc is
    returned."""
    library, _ids = _library(specs)
    hits = {r.doc_id for r in library.search(keywords=query)}
    expected = {
        f"d{i}"
        for i, (keyword, title_word, _instr, _course) in enumerate(specs)
        if query in (keyword,) or query in tokenize(f"Intro to {title_word}")
    }
    assert hits == expected


@given(doc_specs)
@settings(max_examples=60, deadline=None)
def test_no_axes_returns_catalog(specs):
    library, ids = _library(specs)
    assert {r.doc_id for r in library.search()} == set(ids)


@given(doc_specs, words, st.sampled_from(INSTRUCTORS))
@settings(max_examples=60, deadline=None)
def test_combined_search_is_intersection(specs, query, instructor):
    library, _ids = _library(specs)
    keyword_hits = {r.doc_id for r in library.search(keywords=query)}
    instructor_hits = {r.doc_id for r in library.search(instructor=instructor)}
    combined = {
        r.doc_id
        for r in library.search(keywords=query, instructor=instructor)
    }
    assert combined == keyword_hits & instructor_hits


@given(doc_specs)
@settings(max_examples=60, deadline=None)
def test_remove_makes_docs_unfindable(specs):
    library, ids = _library(specs)
    for doc_id in ids[: len(ids) // 2]:
        library.remove_document("gen", doc_id)
    survivors = set(ids[len(ids) // 2:])
    assert {r.doc_id for r in library.search()} == survivors
    for query in ("multimedia", "network", "database"):
        assert {r.doc_id for r in library.search(keywords=query)} <= survivors


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 11), doc_spec),
                max_size=30))
@settings(max_examples=80, deadline=None)
def test_every_kept_order_is_the_sorted_posting(ops):
    """After any add/remove sequence, every posting a query reads is its
    ids in ascending order, each once: each step first queries every
    term of every axis, then adds or removes one doc."""
    index = SearchIndex()
    queries = [{"keywords": w} for w in WORDS + ["to"]] + [
        {"instructor": who} for who in INSTRUCTORS
    ] + [{"course": c} for c in COURSES + WORDS + ["to"]]
    added: dict[str, dict] = {}
    for add, number, (keyword, title_word, instructor, course) in ops:
        for query in queries:
            index.search(**query, limit=3)
        doc_id = f"d{number}"  # "d10" and "d11" sort before "d2"
        fields = dict(
            keywords=(keyword,), instructor=instructor,
            course_number=course, title=f"Intro to {title_word}",
        )
        if add and doc_id not in added:
            added[doc_id] = fields
            index.add(doc_id, **fields)
        elif not add:
            # An id not held is withdrawn too: a no-op.
            index.remove(doc_id, **added.pop(doc_id, fields))
        for postings in (index._keyword_postings, index._instructor_postings,
                         index._course_postings, index._title_postings):
            for posting in postings.values():
                assert posting == sorted(set(posting))


def _expected_postings(entries) -> dict[str, dict[str, list[str]]]:
    """Per axis, term -> the ids of exactly the entries whose fields
    tokenize to that term, ascending."""
    axes: dict[str, dict[str, set[str]]] = {
        "keyword": {}, "instructor": {}, "course": {}, "title": {},
    }
    for entry in entries:
        title_terms = set(tokenize(entry.title))
        terms = {
            "keyword": title_terms.union(
                *(tokenize(keyword) for keyword in entry.keywords)
            ),
            "instructor": set(tokenize(entry.instructor)),
            "course": (
                {entry.course_number.lower()} if entry.course_number
                else set()
            ),
            "title": title_terms,
        }
        for axis, axis_terms in terms.items():
            for term in axis_terms:
                axes[axis].setdefault(term, set()).add(entry.doc_id)
    return {
        axis: {term: sorted(ids) for term, ids in postings.items()}
        for axis, postings in axes.items()
    }


#: Several tokens per field, mixed case, and no course number at all.
rich_doc_spec = st.tuples(
    st.lists(st.sampled_from(WORDS + ["Multi-Media Systems", "intro"]),
             max_size=3),
    st.lists(st.sampled_from(WORDS + ["Data-Base"]), min_size=1, max_size=3),
    st.sampled_from(INSTRUCTORS + ["Timothy Shih", "Ma Jianhua"]),
    st.sampled_from(COURSES + ["cs101", ""]),
)
library_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 14), rich_doc_spec),
        st.tuples(st.just("remove"), st.integers(0, 14)),
        st.just(("reload",)),
    ),
    max_size=30,
)


@given(library_steps)
@example([
    ("add", 2, (["network"], ["drawing"], "ma", "CS101")),
    ("add", 10, (["network", "intro"], ["drawing"], "shih", "")),
    ("reload",),
    ("remove", 2),
    ("add", 1, (["systems"], ["intro"], "Timothy Shih", "cs101")),
    ("reload",),
    ("remove", 10),
])
@settings(max_examples=120, deadline=None)
def test_every_posting_is_exactly_its_documents_in_order(steps):
    """After any interleaving of publishing, withdrawing (also right
    after a reload) and reloading (in reverse, so the rebuilt postings
    are inserted into out of order), every posting is a non-empty, strictly
    increasing list holding exactly the documents whose fields tokenize
    to its term; the title-word list and the held ids match too."""
    library = VirtualLibrary(instructors={"gen"})
    for step in steps:
        if step[0] == "add":
            number, (keywords, title_words, instructor, course) = step[1:]
            if f"d{number}" not in library:
                library.add_document("gen", CatalogEntry(
                    doc_id=f"d{number}",  # "d10" sorts before "d2"
                    title=" ".join(title_words),
                    course_number=course,
                    instructor=instructor,
                    keywords=tuple(keywords),
                ))
        elif step[0] == "remove":
            library.remove_document("gen", f"d{step[1]}")
        else:
            library.reload(reversed(list(library.entries())))
        index = library._index
        held = {
            "keyword": index._keyword_postings,
            "instructor": index._instructor_postings,
            "course": index._course_postings,
            "title": index._title_postings,
        }
        for postings in held.values():
            for posting in postings.values():
                assert posting
                assert all(a < b for a, b in zip(posting, posting[1:]))
        assert held == _expected_postings(library.entries())
        assert index._title_terms_sorted == sorted(index._title_postings)
        assert index._docs == sorted(entry.doc_id for entry in library.entries())


@given(doc_specs)
@settings(max_examples=40, deadline=None)
def test_scores_bounded_and_sorted(specs):
    library, _ids = _library(specs)
    results = library.search(keywords="multimedia database")
    scores = [r.score for r in results]
    assert all(0 <= s <= 1 for s in scores)
    assert scores == sorted(scores, reverse=True)
