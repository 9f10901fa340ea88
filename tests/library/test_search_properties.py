"""Property tests for the library search index."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

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
    """After any add/remove sequence, every order a query can read is
    its posting in doc-id order: each step first queries every term of
    every axis (building each order), then adds or removes one doc."""
    index = SearchIndex()
    queries = [{"keywords": w} for w in WORDS + ["to"]] + [
        {"instructor": who} for who in INSTRUCTORS
    ] + [{"course": c} for c in COURSES + WORDS + ["to"]]
    for add, number, (keyword, title_word, instructor, course) in ops:
        for query in queries:
            index.search(**query, limit=3)
        doc_id = f"d{number}"  # "d10" and "d11" sort before "d2"
        if add and doc_id not in index._docs:
            index.add(doc_id, keywords=(keyword,), instructor=instructor,
                      course_number=course, title=f"Intro to {title_word}")
        elif not add:
            index.remove(doc_id)
        for postings in (index._keyword_postings, index._instructor_postings,
                         index._course_postings, index._title_postings):
            for posting in postings.values():
                assert posting.order in (None, sorted(posting))


@given(doc_specs)
@settings(max_examples=40, deadline=None)
def test_scores_bounded_and_sorted(specs):
    library, _ids = _library(specs)
    results = library.search(keywords="multimedia database")
    scores = [r.score for r in results]
    assert all(0 <= s <= 1 for s in scores)
    assert scores == sorted(scores, reverse=True)
