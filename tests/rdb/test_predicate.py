"""Tests for the predicate expression language."""

import pytest

from repro.rdb import col, lit
from repro.rdb.predicate import conjunct_bindings


ROW = {"a": 5, "b": "hello", "c": None, "tags": ["x", "y"], "f": 2.5}


class TestComparisons:
    def test_eq(self):
        assert (col("a") == 5).eval(ROW) is True
        assert (col("a") == 6).eval(ROW) is False

    def test_ne(self):
        assert (col("a") != 6).eval(ROW) is True

    def test_ordering(self):
        assert (col("a") < 6).eval(ROW)
        assert (col("a") <= 5).eval(ROW)
        assert (col("a") > 4).eval(ROW)
        assert (col("a") >= 5).eval(ROW)
        assert not (col("a") > 5).eval(ROW)

    def test_null_compares_false(self):
        """SQL UNKNOWN: any comparison against NULL fails the filter."""
        assert not (col("c") == 5).eval(ROW)
        assert not (col("c") != 5).eval(ROW)
        assert not (col("c") < 5).eval(ROW)

    def test_column_vs_column(self):
        assert (col("a") == col("a")).eval(ROW)
        assert not (col("a") == col("f")).eval(ROW)


class TestBooleanAlgebra:
    def test_and(self):
        assert ((col("a") == 5) & (col("b") == "hello")).eval(ROW)
        assert not ((col("a") == 5) & (col("b") == "nope")).eval(ROW)

    def test_or(self):
        assert ((col("a") == 0) | (col("b") == "hello")).eval(ROW)
        assert not ((col("a") == 0) | (col("b") == "nope")).eval(ROW)

    def test_not(self):
        assert (~(col("a") == 0)).eval(ROW)

    def test_bool_raises(self):
        """`and`/`or` would silently call __bool__; make it loud."""
        with pytest.raises(TypeError, match="no truth value"):
            bool(col("a") == 5)

    def test_nested_composition(self):
        expr = ((col("a") > 0) & (col("f") < 3)) | (col("c").not_null())
        assert expr.eval(ROW)


class TestSqlExtras:
    def test_is_null(self):
        assert col("c").is_null().eval(ROW)
        assert not col("a").is_null().eval(ROW)

    def test_not_null(self):
        assert col("a").not_null().eval(ROW)

    def test_isin(self):
        assert col("a").isin([1, 5, 9]).eval(ROW)
        assert not col("a").isin([1, 2]).eval(ROW)

    def test_isin_null_false(self):
        assert not col("c").isin([None]).eval(ROW)

    def test_between(self):
        assert col("a").between(5, 10).eval(ROW)
        assert col("a").between(1, 5).eval(ROW)
        assert not col("a").between(6, 10).eval(ROW)

    def test_like_percent(self):
        assert col("b").like("he%").eval(ROW)
        assert col("b").like("%llo").eval(ROW)
        assert not col("b").like("he").eval(ROW)

    def test_like_underscore(self):
        assert col("b").like("h_llo").eval(ROW)
        assert not col("b").like("h_").eval(ROW)

    def test_like_escapes_regex_chars(self):
        row = {"b": "a.c"}
        assert col("b").like("a.c").eval(row)
        assert not col("b").like("abc").eval(row)  # '.' is literal

    def test_like_non_string_false(self):
        assert not col("a").like("%").eval(ROW)

    def test_contains_list(self):
        assert col("tags").contains("x").eval(ROW)
        assert not col("tags").contains("z").eval(ROW)

    def test_contains_substring(self):
        assert col("b").contains("ell").eval(ROW)

    def test_contains_null_false(self):
        assert not col("c").contains("x").eval(ROW)

    def test_apply(self):
        assert (col("b").apply(len) == 5).eval(ROW)


class TestIntrospection:
    def test_columns_collected(self):
        expr = ((col("a") == 5) & col("b").like("x%")) | ~col("c").is_null()
        assert expr.columns() == frozenset({"a", "b", "c"})

    def test_lit_has_no_columns(self):
        assert lit(5).columns() == frozenset()

    def test_reprs_render(self):
        text = repr((col("a") == 5) & ~col("b").is_null())
        assert "col('a')" in text and "is_null" in text


def equality_bindings(expr):
    return conjunct_bindings(expr)[0]


class TestEqualityBindings:
    def test_one_walk_collects_equalities_memberships_and_bounds(self):
        expr = ((col("a") == 5) & col("b").isin(["x", "y"]) & (col("f") > 1)
                & (lit(9) >= col("f")) & (col("g") < None)
                & (col("h").isin([1]) | (col("a") == 6)))
        equalities, memberships, bounds = conjunct_bindings(expr)
        assert equalities == {"a": 5}
        assert memberships == [("b", frozenset({"x", "y"}))]
        assert set(bounds) == {"f"}  # a None bound gives nothing usable
        f = bounds["f"]
        assert (f.low, f.include_low, f.high, f.include_high) == (
            1, False, 9, True)
        assert sorted(f.conjuncts) == ["f <= 9", "f > 1"]

    def test_single_binding(self):
        assert equality_bindings(col("a") == 5) == {"a": 5}

    def test_and_chain(self):
        expr = (col("a") == 5) & (col("b") == "x") & (col("f") > 1)
        assert equality_bindings(expr) == {"a": 5, "b": "x"}

    def test_reversed_operands(self):
        assert equality_bindings(lit(5) == col("a")) == {"a": 5}

    def test_or_not_collected(self):
        expr = (col("a") == 5) | (col("b") == "x")
        assert equality_bindings(expr) == {}

    def test_or_inside_and_skipped(self):
        expr = (col("a") == 5) & ((col("b") == "x") | (col("f") == 1))
        assert equality_bindings(expr) == {"a": 5}
