"""Inverted-index search for the virtual library's browsing interface.

Three query axes, matching the paper: free-text keywords (tokenized,
AND-combined, ranked by match count), exact-ish instructor name, and
course number or title words.  The index maintains one posting map per
axis; queries intersect the axes they use.  The course axis serves
title matches from a sorted title-token list (word-prefix lookup via
:mod:`bisect`) instead of scanning every stored document per query.
A posting is one list of doc ids in ascending order, each id once, so a
top-k over one posting is a slice of it; a query that combines postings
walks the smallest and meets each other one by bisect or by hash.  No
per-document copy of its terms is kept: a
removal is given the fields the document was added with.
"""

from __future__ import annotations

import bisect
import heapq
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
#: Intersecting ``k`` kept ids with a posting of ``n`` probes it by
#: bisect (``k log n`` string compares) only when ``n > k * _BISECT_RATIO``;
#: nearer than that, one C pass over the posting against a set of the
#: kept ids is cheaper (measured crossover: 16-25x, 1,000-5,000 ids).
_BISECT_RATIO = 16


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens.

    >>> tokenize("Introduction to Multimedia-Computing!")
    ['introduction', 'to', 'multimedia', 'computing']
    """
    return _TOKEN_RE.findall(text.lower())


class SearchResult(NamedTuple):
    doc_id: str
    score: float


def _terms(*sources: str) -> tuple[str, ...]:
    """The distinct tokens of ``sources``, interned."""
    return tuple({sys.intern(t) for s in sources for t in tokenize(s)})


def _doc_terms(
    keywords: tuple[str, ...], instructor: str, course_number: str, title: str
) -> tuple[tuple[str, ...], ...]:
    """One document's distinct terms per axis: keyword (keywords and
    title words), instructor, course number, title."""
    return (
        _terms(*keywords, title), _terms(instructor),
        (course_number.lower(),) if course_number else (), _terms(title),
    )


@dataclass
class SearchIndex:
    """Postings per axis: term -> its doc ids in ascending order."""

    _keyword_postings: dict[str, list[str]] = field(default_factory=dict)
    _instructor_postings: dict[str, list[str]] = field(default_factory=dict)
    #: course number (exact, lowered) -> docs
    _course_postings: dict[str, list[str]] = field(default_factory=dict)
    #: title word -> docs, plus the words in sorted order for prefix lookup
    _title_postings: dict[str, list[str]] = field(default_factory=dict)
    _title_terms_sorted: list[str] = field(default_factory=list)
    #: every doc id held, ascending: the duplicate check and the no-axis
    #: browse, a posting of every doc
    _docs: list[str] = field(default_factory=list)

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
        pos, held = _position(self._docs, doc_id)
        if held:
            raise ValueError(f"document {doc_id!r} already indexed")
        keyword_terms, instructor_terms, course_terms, title_terms = (
            _doc_terms(keywords, instructor, course_number, title)
        )
        for term in title_terms:
            if term not in self._title_postings:
                bisect.insort(self._title_terms_sorted, term)
        self._post(self._keyword_postings, keyword_terms, doc_id)
        self._post(self._instructor_postings, instructor_terms, doc_id)
        self._post(self._course_postings, course_terms, doc_id)
        self._post(self._title_postings, title_terms, doc_id)
        self._docs.insert(pos, doc_id)

    def remove(
        self,
        doc_id: str,
        *,
        keywords: tuple[str, ...],
        instructor: str,
        course_number: str,
        title: str,
    ) -> None:
        """Withdraw ``doc_id``, given the fields it was added with (all
        four, so a call without them fails before any change): its terms
        are derived from them again, and only their postings are
        touched.  An id the index does not hold is a no-op."""
        pos, held = _position(self._docs, doc_id)
        if not held:
            return
        keyword_terms, instructor_terms, course_terms, title_terms = (
            _doc_terms(keywords, instructor, course_number, title)
        )
        del self._docs[pos]
        self._unpost(self._keyword_postings, keyword_terms, doc_id)
        self._unpost(self._instructor_postings, instructor_terms, doc_id)
        self._unpost(self._course_postings, course_terms, doc_id)
        self._unpost(self._title_postings, title_terms, doc_id)
        for term in title_terms:
            if term not in self._title_postings:
                pos, held = _position(self._title_terms_sorted, term)
                if held:
                    del self._title_terms_sorted[pos]

    @staticmethod
    def _post(
        postings: dict[str, list[str]], terms, doc_id: str
    ) -> None:
        for term in terms:
            ids = postings.get(term)
            if ids is None:
                postings[term] = [doc_id]
            else:
                bisect.insort(ids, doc_id)

    @staticmethod
    def _unpost(
        postings: dict[str, list[str]], terms, doc_id: str
    ) -> None:
        for term in terms:
            ids = postings.get(term)
            if ids is None:
                continue
            pos, held = _position(ids, doc_id)
            if held:
                if len(ids) == 1:
                    del postings[term]
                else:
                    del ids[pos]

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

        Three stages — candidates (a lone posting used in place, more
        intersected by walking the smallest), scoring (term-at-a-time
        hit counts; skipped when at most one term makes every score
        1.0) and selection of the ``limit`` best by ``(-score, doc_id)``
        — cost ``O(postings + n log limit)`` for ``n`` candidates.  When
        the candidates are an ascending list (a posting, or a bisect walk
        of one) and every score is 1.0 the selection is a slice of it.
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
                set(exact).union(titled) if exact and titled
                else (exact or titled)
            )
        candidates = _intersect(axes) if axes else self._docs
        # Without per-doc hit counts every candidate scores 1.0, so the
        # rank is doc-id order and the ids themselves are the sort keys.
        if hits is None and type(candidates) is list:
            # A posting, or a walk of one: the top-k is a prefix of it.
            top = candidates[:limit]
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
        (a lone matching word's posting is returned in place)."""
        terms = self._title_terms_sorted
        start = end = bisect.bisect_left(terms, token)
        while end < len(terms) and terms[end].startswith(token):
            end += 1
        if end - start == 1:
            return self._title_postings[terms[start]]
        return set().union(
            *(self._title_postings[term] for term in terms[start:end])
        )


def _position(ordered: list[str], item: str) -> tuple[int, bool]:
    """Where ``item`` is in the ascending list ``ordered`` (True) or
    would go (False), by bisect."""
    pos = bisect.bisect_left(ordered, item)
    return pos, pos < len(ordered) and ordered[pos] == item


def _intersect(groups: list[Collection[str]]) -> Collection[str]:
    """Intersection walking the smallest group.  A posting list more than
    ``_BISECT_RATIO`` times larger than what is kept is probed by bisect
    per kept id; any other group is met in one C pass against a set of
    the kept ids.  The result is an ascending list if it is a walk of a
    posting that only bisect touched, and a set otherwise.  A lone group
    comes back in place (callers only read it) and no groups at all
    match nothing."""
    if len(groups) < 2:
        return groups[0] if groups else _NO_DOCS
    smallest, *rest = sorted(groups, key=len)
    kept: Collection[str] = smallest
    ordered = type(smallest) is list
    for group in rest:
        if type(group) is list and len(group) > _BISECT_RATIO * len(kept):
            n = len(group)
            kept = [
                doc_id for doc_id in kept
                if (pos := bisect.bisect_left(group, doc_id)) < n
                and group[pos] == doc_id
            ]
        else:
            kept, ordered = set(kept).intersection(group), False
    return kept if ordered or type(kept) is set else set(kept)
