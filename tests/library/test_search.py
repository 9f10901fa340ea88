"""Tests for the inverted-index search."""

import pytest

from repro.library import SearchIndex
from repro.library.search import tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Intro to CS-101!") == ["intro", "to", "cs", "101"]

    def test_empty(self):
        assert tokenize("") == []


@pytest.fixture
def index() -> SearchIndex:
    idx = SearchIndex()
    idx.add("d1", keywords=("multimedia", "video"), instructor="Timothy Shih",
            course_number="CS101", title="Intro to Multimedia")
    idx.add("d2", keywords=("drawing",), instructor="Runhe Huang",
            course_number="ED150", title="Engineering Drawing")
    idx.add("d3", keywords=("multimedia", "audio"), instructor="Jianhua Ma",
            course_number="MM201", title="Advanced Multimedia")
    return idx


class TestKeywordSearch:
    def test_single_term(self, index):
        hits = index.search(keywords="multimedia")
        assert {h.doc_id for h in hits} == {"d1", "d3"}

    def test_title_terms_indexed(self, index):
        hits = index.search(keywords="engineering")
        assert [h.doc_id for h in hits] == ["d2"]

    def test_ranking_by_match_fraction(self, index):
        hits = index.search(keywords="multimedia video")
        assert hits[0].doc_id == "d1"  # matches both terms
        assert hits[0].score > hits[1].score

    def test_no_match(self, index):
        assert index.search(keywords="quantum") == []

    def test_ties_break_by_doc_id(self, index):
        hits = index.search(keywords="multimedia")
        assert [h.doc_id for h in hits] == ["d1", "d3"]


class TestInstructorSearch:
    def test_by_last_name(self, index):
        assert [h.doc_id for h in index.search(instructor="shih")] == ["d1"]

    def test_full_name_must_fully_match(self, index):
        assert [h.doc_id for h in index.search(instructor="Timothy Shih")] == ["d1"]
        assert index.search(instructor="Timothy Huang") == []


class TestCourseSearch:
    def test_exact_course_number(self, index):
        assert [h.doc_id for h in index.search(course="cs101")] == ["d1"]

    def test_title_substring(self, index):
        hits = index.search(course="Drawing")
        assert [h.doc_id for h in hits] == ["d2"]

    def test_title_word_prefix(self, index):
        hits = index.search(course="Draw")
        assert [h.doc_id for h in hits] == ["d2"]

    def test_title_multiple_words(self, index):
        hits = index.search(course="Engineering Drawing")
        assert [h.doc_id for h in hits] == ["d2"]

    def test_title_words_all_must_match(self, index):
        assert index.search(course="Engineering Multimedia") == []

    def test_course_axis_no_partial_mid_word(self, index):
        # word-prefix matching: a mid-word fragment is not a hit
        assert index.search(course="rawing") == []


class TestCombinedAxes:
    def test_keyword_and_instructor_intersect(self, index):
        hits = index.search(keywords="multimedia", instructor="ma")
        assert [h.doc_id for h in hits] == ["d3"]

    def test_all_axes(self, index):
        hits = index.search(keywords="multimedia", instructor="shih",
                            course="CS101")
        assert [h.doc_id for h in hits] == ["d1"]

    def test_no_axes_returns_everything(self, index):
        assert len(index.search()) == 3

    def test_limit(self, index):
        assert len(index.search(keywords="multimedia", limit=1)) == 1

    def test_limit_zero_returns_nothing(self, index):
        assert index.search(keywords="multimedia", limit=0) == []

    @pytest.mark.parametrize("limit", [-1, "10", 2.0, True])
    def test_malformed_limit_rejected(self, index, limit):
        # A limit is a count, never a slice bound: -1 must not mean
        # "all but the last hit", and a non-int must not reach a slice.
        with pytest.raises(ValueError, match="limit"):
            index.search(keywords="multimedia", limit=limit)


class TestSearchMetrics:
    def test_counts_candidates_and_returned_once_per_call(
            self, index, metrics_registry):
        index.search(keywords="multimedia", limit=1)  # 2 candidates
        index.search()  # browse: all 3 candidates returned
        index.search(keywords="quantum")  # no candidates
        snap = metrics_registry.snapshot()
        assert snap.counter_total("library.searches") == 3
        assert snap.counter_total("library.search.candidates") == 5
        assert snap.counter_total("library.search.returned") == 4


class TestMaintenance:
    def test_remove_document(self, index):
        index.remove("d1")
        assert index.search(course="cs101") == []
        assert len(index) == 2

    def test_remove_unknown_is_noop(self, index):
        index.remove("ghost")
        assert len(index) == 3

    def test_duplicate_add_rejected(self, index):
        with pytest.raises(ValueError):
            index.add("d1", title="again")

    def test_postings_cleaned_after_remove(self, index):
        index.remove("d2")
        assert index.search(keywords="drawing") == []

    def test_title_postings_cleaned_after_remove(self, index):
        index.remove("d2")
        assert index.search(course="Drawing") == []
        assert index.search(course="Draw") == []

    def test_remove_keeps_shared_terms_for_survivors(self, index):
        # d1 and d3 share the "multimedia" title word; removing one must
        # not disturb the other's postings.
        index.remove("d1")
        assert [h.doc_id for h in index.search(course="Multimedia")] == ["d3"]
        assert {h.doc_id for h in index.search(keywords="multimedia")} == {"d3"}

    def test_add_after_remove_reindexes(self, index):
        index.remove("d2")
        index.add("d2", keywords=("drawing",), instructor="Runhe Huang",
                  course_number="ED150", title="Engineering Drawing")
        assert [h.doc_id for h in index.search(course="Draw")] == ["d2"]
