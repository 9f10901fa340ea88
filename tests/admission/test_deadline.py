"""Tests for deadline propagation: the ambient scope stack."""

import pytest

from repro.admission import (
    DeadlineExceededError,
    check_deadline,
    current_deadline,
    deadline_scope,
    expired,
    remaining,
)


class TestScopeStack:
    def test_no_scope_means_no_deadline(self):
        assert current_deadline() is None

    def test_scope_declares_and_restores(self):
        with deadline_scope(5.0):
            assert current_deadline() == 5.0
        assert current_deadline() is None

    def test_nesting_keeps_the_minimum(self):
        with deadline_scope(10.0):
            with deadline_scope(25.0):
                assert current_deadline() == 10.0
            with deadline_scope(3.0):
                assert current_deadline() == 3.0
            assert current_deadline() == 10.0

    def test_none_scope_is_a_no_op(self):
        with deadline_scope(None):
            assert current_deadline() is None
        with deadline_scope(7.0):
            with deadline_scope(None):
                assert current_deadline() == 7.0

    def test_nan_scope_is_refused(self):
        """min() over a stack holding NaN answers by stack order, so an
        inner scope could loosen the deadline; NaN never enters it."""
        with pytest.raises(ValueError, match="NaN"):
            deadline_scope(float("nan"))
        with deadline_scope(5.0):
            with pytest.raises(ValueError, match="NaN"):
                with deadline_scope(float("nan")):
                    pass
            assert current_deadline() == 5.0
        assert current_deadline() is None

    def test_scope_pops_on_exception(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(5.0):
                raise RuntimeError("boom")
        assert current_deadline() is None


class TestQueries:
    def test_remaining_against_scope(self):
        with deadline_scope(10.0):
            assert remaining(4.0) == pytest.approx(6.0)
        assert remaining(4.0) is None

    def test_explicit_deadline_overrides_scope(self):
        with deadline_scope(10.0):
            assert remaining(4.0, 5.0) == pytest.approx(1.0)

    def test_expired(self):
        assert not expired(100.0)  # unbounded
        with deadline_scope(10.0):
            assert not expired(9.9)
            assert expired(10.0)
            assert expired(11.0)

    def test_check_deadline_raises_with_site(self):
        with deadline_scope(10.0):
            check_deadline(5.0, site="shard-select")
            with pytest.raises(DeadlineExceededError, match="shard-select"):
                check_deadline(10.0, site="shard-select")

    def test_check_deadline_without_scope_is_noop(self):
        check_deadline(1e9)
