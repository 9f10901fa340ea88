"""Inverted-index search for the virtual library's browsing interface.

Three query axes, matching the paper: free-text keywords (tokenized,
AND-combined, ranked by match count), exact-ish instructor name, and
course number or title words.  The index maintains one posting map per
axis; queries intersect the axes they use.  The course axis serves
title matches from a sorted title-token list (word-prefix lookup via
:mod:`bisect`) instead of scanning every stored document per query.
A posting keeps its ids in doc-id order once a query has needed them,
so a top-k over one posting is a slice of that order.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import operator
import re
import sys
from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.instrument import OBS, Instrument

__all__ = ["tokenize", "SearchResult", "SearchIndex"]

SEARCHES = Instrument("counter", "library.searches")
CANDIDATES = Instrument("counter", "library.search.candidates")
RETURNED = Instrument("counter", "library.search.returned")

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_NO_DOCS: frozenset[str] = frozenset()
#: Selecting ``limit`` hits from ``n`` candidates uses a bounded heap
#: only when ``limit * _HEAP_RATIO < n``; nearer than that, one C sort
#: beats the heap's per-candidate Python loop (measured crossover:
#: 8-16x for (count, id) keys, 16-32x for bare ids).
_HEAP_RATIO = 16


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens.

    >>> tokenize("Introduction to Multimedia-Computing!")
    ['introduction', 'to', 'multimedia', 'computing']
    """
    return _TOKEN_RE.findall(text.lower())


class SearchResult(NamedTuple):
    doc_id: str
    score: float


class _Posting(set):
    """One term's doc ids, plus ``order``: the same ids sorted, built by
    the first query that reads them and dropped (``None``) by every
    :meth:`SearchIndex.add` / :meth:`SearchIndex.remove` of the term.
    Only ``SearchIndex._post`` makes postings (and sets ``order``)."""

    __slots__ = ("order",)
    order: list[str] | None


@dataclass(slots=True)
class _IndexedDoc:
    """What :meth:`SearchIndex.remove` needs to find a doc's postings:
    each axis's distinct terms, interned (one ``str`` per term indexed)."""

    keyword_terms: tuple[str, ...]
    instructor_terms: tuple[str, ...]
    course_number: str
    title_terms: tuple[str, ...]


def _terms(*sources: str) -> tuple[str, ...]:
    """The distinct tokens of ``sources``, interned."""
    return tuple({sys.intern(t) for s in sources for t in tokenize(s)})


@dataclass
class SearchIndex:
    """Postings per axis: term -> set of doc ids."""

    _keyword_postings: dict[str, _Posting] = field(default_factory=dict)
    _instructor_postings: dict[str, _Posting] = field(default_factory=dict)
    #: course number (exact, lowered) -> docs
    _course_postings: dict[str, _Posting] = field(default_factory=dict)
    #: title word -> docs, plus the words in sorted order for prefix lookup
    _title_postings: dict[str, _Posting] = field(default_factory=dict)
    _title_terms_sorted: list[str] = field(default_factory=list)
    #: per-doc terms for targeted removal
    _docs: dict[str, _IndexedDoc] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(
        self,
        doc_id: str,
        *,
        keywords: tuple[str, ...] = (),
        instructor: str = "",
        course_number: str = "",
        title: str = "",
    ) -> None:
        """Index ``doc_id``.  Every term is derived before any posting
        changes, so an input that cannot be tokenized raises with the
        index untouched."""
        if doc_id in self._docs:
            raise ValueError(f"document {doc_id!r} already indexed")
        doc = _IndexedDoc(
            _terms(*keywords, title), _terms(instructor),
            course_number, _terms(title),
        )
        course_terms = (course_number.lower(),) if course_number else ()
        for term in doc.title_terms:
            if term not in self._title_postings:
                bisect.insort(self._title_terms_sorted, term)
        self._post(self._keyword_postings, doc.keyword_terms, doc_id)
        self._post(self._instructor_postings, doc.instructor_terms, doc_id)
        self._post(self._course_postings, course_terms, doc_id)
        self._post(self._title_postings, doc.title_terms, doc_id)
        self._docs[doc_id] = doc

    def remove(self, doc_id: str) -> None:
        """Targeted posting removal using the doc's stored terms —
        touches only the terms the document actually carries, not every
        posting list in the index."""
        doc = self._docs.pop(doc_id, None)
        if doc is None:
            return
        self._discard(self._keyword_postings, doc.keyword_terms, doc_id)
        self._discard(self._instructor_postings, doc.instructor_terms, doc_id)
        if doc.course_number:
            self._discard(
                self._course_postings, (doc.course_number.lower(),), doc_id
            )
        self._discard(self._title_postings, doc.title_terms, doc_id)
        for term in doc.title_terms:
            if term not in self._title_postings:
                pos = bisect.bisect_left(self._title_terms_sorted, term)
                if (
                    pos < len(self._title_terms_sorted)
                    and self._title_terms_sorted[pos] == term
                ):
                    del self._title_terms_sorted[pos]

    @staticmethod
    def _post(postings: dict[str, _Posting], terms, doc_id: str) -> None:
        for term in terms:
            ids = postings.get(term)
            if ids is None:
                ids = postings[term] = _Posting()
            ids.add(doc_id)
            ids.order = None

    @staticmethod
    def _discard(
        postings: dict[str, _Posting], terms, doc_id: str
    ) -> None:
        for term in terms:
            ids = postings.get(term)
            if ids is None:
                continue
            ids.discard(doc_id)
            ids.order = None
            if not ids:
                del postings[term]

    def __len__(self) -> int:
        return len(self._docs)

    # ------------------------------------------------------------------
    def search(
        self,
        keywords: str | None = None,
        instructor: str | None = None,
        course: str | None = None,
        *,
        limit: int | None = None,
    ) -> list[SearchResult]:
        """Intersect the axes in use; rank by keyword-match count.

        ``course`` matches the course number exactly (case-insensitive)
        or the title by words: every query token must prefix-match some
        title word (so "Draw" and "drawing" both find "Engineering
        Drawing"), served from the title-token postings.

        Three stages — candidates (posting sets used in place,
        intersected smallest-first), scoring (term-at-a-time hit
        counts; skipped when at most one term makes every score 1.0)
        and selection of the ``limit`` best by ``(-score, doc_id)`` —
        cost ``O(postings + n log limit)`` for ``n`` candidates.  When
        the candidates are one posting in place and every score is 1.0
        the selection is ``order[:limit]`` of that posting's kept order.
        """
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValueError(
                f"limit must be None or a non-negative int, got {limit!r}"
            )
        query_terms = tokenize(keywords) if keywords else []
        hits: Counter[str] | None = None
        axes: list[Collection[str]] = []
        if len(query_terms) > 1:
            hits = Counter()
            for term in query_terms:
                hits.update(self._keyword_postings.get(term, ()))
            axes.append(hits.keys())
        elif query_terms:
            axes.append(self._keyword_postings.get(query_terms[0], _NO_DOCS))
        if instructor:
            axes.append(_intersect([
                self._instructor_postings.get(term, _NO_DOCS)
                for term in tokenize(instructor)
            ]))
        if course:
            exact = self._course_postings.get(course.lower(), _NO_DOCS)
            titled = self._title_word_matches(course)
            axes.append(
                (exact | titled) if exact and titled else (exact or titled)
            )
        candidates = _intersect(axes) if axes else self._docs.keys()
        # Without per-doc hit counts every candidate scores 1.0, so the
        # rank is doc-id order and the ids themselves are the sort keys.
        if hits is None and type(candidates) is _Posting:
            # One posting in place: the top-k is a prefix of its order.
            order = candidates.order
            if order is None:
                order = candidates.order = sorted(candidates)
            top = order[:limit]
        else:
            ranked: Iterable = (
                candidates if hits is None
                else [(-hits[doc_id], doc_id) for doc_id in candidates]
            )
            if limit is None or limit * _HEAP_RATIO >= len(candidates):
                top = sorted(ranked)[:limit]
            else:
                top = heapq.nsmallest(limit, ranked)
        if OBS.enabled:
            SEARCHES[()].inc()
            CANDIDATES[()].inc(len(candidates))
            RETURNED[()].inc(len(top))
        if hits is None:
            return [SearchResult(doc_id, 1.0) for doc_id in top]
        n_terms = len(query_terms)
        return [SearchResult(doc_id, -neg / n_terms) for neg, doc_id in top]

    def _title_word_matches(self, query: str) -> Collection[str]:
        """Docs whose title words prefix-match every query token."""
        return _intersect(
            [self._title_prefix_docs(token) for token in tokenize(query)]
        )

    def _title_prefix_docs(self, token: str) -> Collection[str]:
        """Union of postings for every title word starting with ``token``
        (a lone matching word's posting set is returned in place)."""
        terms = self._title_terms_sorted
        start = end = bisect.bisect_left(terms, token)
        while end < len(terms) and terms[end].startswith(token):
            end += 1
        if end - start == 1:
            return self._title_postings[terms[start]]
        return set().union(
            *(self._title_postings[term] for term in terms[start:end])
        )


def _intersect(sets: list[Collection[str]]) -> Collection[str]:
    """Intersection taken smallest-first; a lone set comes back in place
    (callers only read it) and no sets at all match nothing."""
    if not sets:
        return _NO_DOCS
    return functools.reduce(operator.and_, sorted(sets, key=len))
