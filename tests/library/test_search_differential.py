"""Differential oracle for ranked top-k retrieval.

``_reference_search`` is the algorithm ``SearchIndex.search`` shipped
with before it became a candidate → accumulate → select pipeline: score
*every* candidate by the terms of the fields it was published with (the
test's own record, not the index's), sort them all by
``(-score, doc_id)``, slice.  The pipeline must equal it exactly — ids,
float scores and order — on any catalog, query and limit.
"""

from __future__ import annotations

import bisect
import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.library import CatalogEntry, VirtualLibrary
from repro.library import search as search_module
from repro.library.search import SearchIndex, SearchResult, tokenize


# ---------------------------------------------------------------------------
# The oracle: reads the index's postings, shares none of its query code.
# ---------------------------------------------------------------------------
def _reference_title_prefix_docs(index: SearchIndex, token: str) -> set[str]:
    out: set[str] = set()
    pos = bisect.bisect_left(index._title_terms_sorted, token)
    while pos < len(index._title_terms_sorted):
        term = index._title_terms_sorted[pos]
        if not term.startswith(token):
            break
        out.update(index._title_postings[term])
        pos += 1
    return out


def _reference_title_word_matches(index: SearchIndex, query: str) -> set[str]:
    tokens = tokenize(query)
    if not tokens:
        return set()
    matched: set[str] | None = None
    for token in tokens:
        docs = _reference_title_prefix_docs(index, token)
        matched = docs if matched is None else matched & docs
    return matched or set()


def _keyword_terms(entry: CatalogEntry) -> set[str]:
    """The keyword-axis terms of ``entry``, tokenized from the fields it
    was published with — not read back from the index."""
    return {
        term for text in (*entry.keywords, entry.title)
        for term in tokenize(text)
    }


def _reference_score(doc_terms: set[str], query_terms: list[str]) -> float:
    if not query_terms:
        return 1.0
    hits = sum(1 for term in query_terms if term in doc_terms)
    return hits / len(query_terms)


def _reference_search(
    index: SearchIndex,
    published: dict[str, CatalogEntry],
    keywords: str | None = None,
    instructor: str | None = None,
    course: str | None = None,
    *,
    limit: int | None = None,
) -> list[SearchResult]:
    candidate_sets: list[set[str]] = []
    query_terms = tokenize(keywords) if keywords else []
    if query_terms:
        per_term = [
            set(index._keyword_postings.get(term, ())) for term in query_terms
        ]
        candidate_sets.append(set.union(*per_term))
    if instructor:
        sets = [
            set(index._instructor_postings.get(t, ()))
            for t in tokenize(instructor)
        ]
        candidate_sets.append(set.intersection(*sets) if sets else set())
    if course:
        exact = set(index._course_postings.get(course.lower(), ()))
        candidate_sets.append(
            exact | _reference_title_word_matches(index, course)
        )
    if not candidate_sets:
        candidates = set(index._docs)
    else:
        candidates = set.intersection(*candidate_sets)
    results = [
        SearchResult(
            doc_id=doc_id,
            score=_reference_score(
                _keyword_terms(published[doc_id]), query_terms
            ),
        )
        for doc_id in candidates
    ]
    results.sort(key=lambda r: (-r.score, r.doc_id))
    if limit is not None:
        results = results[:limit]
    return results


# ---------------------------------------------------------------------------
# Catalogs and queries
# ---------------------------------------------------------------------------
#: "quantum" and "zed" are never indexed; "draw"/"data" prefix-match
#: several title words.
KEYWORDS = ["video", "audio", "network", "database", "drawing"]
TITLE_WORDS = ["draw", "drawing", "drawings", "data", "database", "intro"]
INSTRUCTORS = ["Timothy Shih", "Timothy Ma", "Runhe Huang", "Ma"]
COURSES = ["CS101", "MM201", "ED150", "data"]

doc_spec = st.tuples(
    st.lists(st.sampled_from(KEYWORDS), max_size=3),
    st.lists(st.sampled_from(TITLE_WORDS), min_size=1, max_size=3),
    st.sampled_from(INSTRUCTORS),
    st.sampled_from(COURSES),
)
doc_specs = st.lists(doc_spec, max_size=40)
#: What happens between two rounds of queries: withdraw ``d<n>``,
#: publish a document whose id sorts before every ``d<n>`` ("a", "c"),
#: among them ("d" + a number past 39) or after them ("z"), or reload
#: the catalog into a fresh index.
catalog_steps = st.lists(
    st.one_of(
        st.tuples(st.just("remove"), st.integers(0, 39)),
        st.tuples(st.just("add"), st.sampled_from("acdz"), doc_spec),
        st.just(("reload",)),
    ),
    max_size=10,
)
keyword_queries = st.lists(
    st.sampled_from(KEYWORDS + TITLE_WORDS[:2] + ["quantum", "zed"]),
    min_size=1, max_size=4,
).map(" ".join)
instructor_queries = st.sampled_from(
    INSTRUCTORS + ["timothy", "shih ma", "nobody", "!!!"]
)
course_queries = st.sampled_from(
    COURSES + ["cs101", "dra", "d", "draw data", "intro drawings", "zz", "--"]
)


def _entry(doc_id: str, spec) -> CatalogEntry:
    keywords, title_words, instructor, course = spec
    return CatalogEntry(
        doc_id=doc_id,
        title=" ".join(title_words),
        course_number=course,
        instructor=instructor,
        keywords=tuple(keywords),
    )


def _library(specs) -> tuple[VirtualLibrary, dict[str, CatalogEntry]]:
    """The library and, apart from it, what the test published to it."""
    library = VirtualLibrary(instructors={"gen"})
    published: dict[str, CatalogEntry] = {}
    # "d10" sorts before "d9": id order differs from insertion order.
    for number, spec in enumerate(specs):
        published[f"d{number}"] = _entry(f"d{number}", spec)
        library.add_document("gen", published[f"d{number}"])
    return library, published


def _assert_matches_reference(
    index: SearchIndex, published: dict[str, CatalogEntry], axes: dict
) -> None:
    everything = _reference_search(index, published, **axes)
    n = len(everything)
    assert index.search(**axes) == everything
    for limit in (0, 1, 3, n, n + 5):
        assert index.search(**axes, limit=limit) == _reference_search(
            index, published, **axes, limit=limit
        ), f"limit={limit}"


@pytest.mark.parametrize("mask", range(8))
@given(
    specs=doc_specs,
    keywords=keyword_queries,
    instructor=instructor_queries,
    course=course_queries,
    steps=catalog_steps,
)
@settings(max_examples=60, deadline=None)
def test_pipeline_equals_score_everything_reference(
    mask, specs, keywords, instructor, course, steps
):
    """Every axis combination (``mask``) × limit, before and after each
    of interleaved removals, additions and reloads — each step must
    leave every posting the ascending list of its documents."""
    axes = {
        name: value
        for bit, (name, value) in enumerate(
            [("keywords", keywords), ("instructor", instructor),
             ("course", course)]
        )
        if mask >> bit & 1
    }
    library, published = _library(specs)
    _assert_matches_reference(library._index, published, axes)
    for number, step in enumerate(steps):
        if step[0] == "remove":
            library.remove_document("gen", f"d{step[1]}")
            published.pop(f"d{step[1]}", None)
        elif step[0] == "add":
            prefix, spec = step[1:]
            entry = _entry(f"{prefix}{40 + number}", spec)
            library.add_document("gen", entry)
            published[entry.doc_id] = entry
        else:
            library.reload(list(library.entries()))
        _assert_matches_reference(library._index, published, axes)


def test_ties_rank_by_doc_id_not_insertion_or_set_order():
    index = SearchIndex()
    for doc_id in ("d9", "d10", "d2", "d1", "d11"):
        index.add(doc_id, keywords=("video",))
    by_id = ["d1", "d10", "d11", "d2", "d9"]
    assert [r.doc_id for r in index.search(keywords="video")] == by_id
    assert [r.doc_id for r in index.search(limit=2)] == by_id[:2]
    # Multi-term: equal hit counts still fall back to the id.
    hits = index.search(keywords="video quantum", limit=3)
    assert [(r.doc_id, r.score) for r in hits] == [
        (doc_id, 0.5) for doc_id in by_id[:3]
    ]


@pytest.mark.parametrize("keywords", ["video", "video audio"])
def test_results_identical_across_the_heap_sort_crossover(
    monkeypatch, keywords
):
    """Several terms: ``limit * _HEAP_RATIO`` candidates are sorted, one
    more goes through the bounded heap.  One term: the candidates are
    one posting, already in doc-id order (also after an ``add``), and
    a top-3 runs neither ``heapq.nsmallest`` nor ``sorted`` over the
    posting, on either side of the crossover.  Every answer equals the
    reference."""
    heap_calls = []
    sort_sizes = []
    real_nsmallest = heapq.nsmallest

    def recording_nsmallest(n, iterable):
        heap_calls.append(n)
        return real_nsmallest(n, iterable)

    def recording_sorted(iterable, **kwargs):
        sort_sizes.append(len(iterable))
        return sorted(iterable, **kwargs)

    monkeypatch.setattr(
        search_module.heapq, "nsmallest", recording_nsmallest
    )
    monkeypatch.setattr(search_module, "sorted", recording_sorted,
                        raising=False)

    def top3() -> None:
        heap_calls.clear()
        sort_sizes.clear()
        expected = _reference_search(index, published, keywords, limit=limit)
        assert index.search(keywords, limit=limit) == expected

    limit = 3
    boundary = limit * search_module._HEAP_RATIO
    index = SearchIndex()
    published: dict[str, CatalogEntry] = {}

    def publish(doc_id: str, keywords: tuple[str, ...]) -> None:
        published[doc_id] = CatalogEntry(doc_id, "", "", "", keywords)
        index.add(doc_id, keywords=keywords)

    for number in range(boundary):
        extra = ("audio",) if number % 3 == 0 else ()
        publish(f"d{number}", ("video", *extra))
    for grown in (False, True):
        if grown:
            publish(f"d{boundary}", ("video", "audio"))
        top3()
        if len(tokenize(keywords)) > 1:
            assert heap_calls == ([limit] if grown else [])
            continue
        posting_size = len(index._keyword_postings["video"])
        assert heap_calls == []
        assert max(sort_sizes, default=0) < posting_size


def test_intersection_probes_a_far_larger_posting_by_bisect(monkeypatch):
    """A posting more than ``_BISECT_RATIO`` times larger than the kept
    ids is probed by bisect.  Walking a posting keeps its order, so the
    top-k is a slice, with no sort; walking a title-prefix union (a
    set) does not, and is sorted.  Both equal the reference."""
    sort_sizes = []

    def recording_sorted(iterable, **kwargs):
        if "key" not in kwargs:  # not the groups, smallest first
            sort_sizes.append(len(iterable))
        return sorted(iterable, **kwargs)

    monkeypatch.setattr(search_module, "sorted", recording_sorted,
                        raising=False)
    index = SearchIndex()
    published: dict[str, CatalogEntry] = {}
    titles = {0: "drawing", 10: "drafting"}
    # "d9", "d19" and "d30" sort out of insertion order.
    for number in range(4 * search_module._BISECT_RATIO):
        entry = CatalogEntry(
            f"d{number}", titles.get(number, "notes"), "", "Timothy Shih",
            ("video",) if number in (9, 19, 30) else (),
        )
        published[entry.doc_id] = entry
        index.add(entry.doc_id, keywords=entry.keywords,
                  instructor=entry.instructor, title=entry.title)
    video = index._keyword_postings["video"]
    shih = index._instructor_postings["shih"]
    assert len(shih) > search_module._BISECT_RATIO * len(video)
    assert search_module._intersect([shih, video]) == video

    for limit in (None, 2):
        sort_sizes.clear()
        got = index.search("video", "shih", limit=limit)
        assert got == _reference_search(
            index, published, "video", "shih", limit=limit
        )
        assert sort_sizes == []
        got = index.search(instructor="shih", course="dra", limit=limit)
        assert got == _reference_search(
            index, published, instructor="shih", course="dra", limit=limit
        )
        assert [hit.doc_id for hit in got] == ["d0", "d10"][:limit]
        assert sort_sizes == [2]
