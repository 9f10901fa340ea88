"""Tests for the shared retry/backoff policy."""

import pytest

from repro.fault import RetryPolicy


class TestSchedule:
    def test_exponential_doubling(self):
        p = RetryPolicy(initial_timeout_s=1.0, multiplier=2.0,
                        max_timeout_s=100.0, max_retries=5)
        assert list(p.delays()) == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_cap_at_max_timeout(self):
        p = RetryPolicy(initial_timeout_s=10.0, multiplier=3.0,
                        max_timeout_s=25.0, max_retries=4)
        assert list(p.delays()) == [10.0, 25.0, 25.0, 25.0]

    def test_fixed_is_constant(self):
        p = RetryPolicy.fixed(2.5, max_retries=4)
        assert list(p.delays()) == [2.5, 2.5, 2.5, 2.5]

    def test_total_wait(self):
        p = RetryPolicy(initial_timeout_s=1.0, multiplier=2.0,
                        max_timeout_s=100.0, max_retries=3)
        assert p.total_wait_s == 7.0

    def test_allows_counts_retries(self):
        p = RetryPolicy.fixed(1.0, max_retries=2)
        assert p.allows(0) and p.allows(1) and not p.allows(2)

    def test_zero_retries_allows_nothing(self):
        assert not RetryPolicy.fixed(1.0, max_retries=0).allows(0)


class TestJitter:
    def test_jitter_is_deterministic(self):
        a = RetryPolicy(jitter=0.5, seed=3)
        b = RetryPolicy(jitter=0.5, seed=3)
        assert list(a.delays()) == list(b.delays())

    def test_jitter_within_bounds(self):
        p = RetryPolicy(initial_timeout_s=2.0, multiplier=1.0,
                        max_timeout_s=2.0, jitter=0.25, seed=9)
        for delay in p.delays():
            assert 2.0 <= delay <= 2.5

    def test_seed_changes_jitter(self):
        a = RetryPolicy(jitter=0.5, seed=1)
        b = RetryPolicy(jitter=0.5, seed=2)
        assert list(a.delays()) != list(b.delays())

    def test_no_jitter_is_exact(self):
        p = RetryPolicy(initial_timeout_s=2.0)
        assert p.timeout_for(0) == 2.0

    def test_jitter_values_are_pinned(self):
        # Drawn by the parent of PR 21 (numpy imported at module top);
        # ``make_rng`` importing it on first use must draw the same.
        p = RetryPolicy(initial_timeout_s=1.0, multiplier=2.0,
                        max_timeout_s=30.0, max_retries=4, jitter=0.5, seed=7)
        assert [p.timeout_for(i) for i in range(3)] == [
            1.1639977159136994, 2.749912485902612, 5.2376504788726255,
        ]


class TestValidation:
    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            RetryPolicy(initial_timeout_s=0.0)

    def test_rejects_shrinking_multiplier(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().timeout_for(-1)

    def test_policies_are_values(self):
        assert RetryPolicy.fixed(2.0) == RetryPolicy.fixed(2.0)
        assert hash(RetryPolicy.fixed(2.0)) == hash(RetryPolicy.fixed(2.0))


class TestDeadlineBound:
    """``allows`` honours the caller's deadline, not just attempt count."""

    def test_attempt_count_still_binds(self):
        p = RetryPolicy(max_retries=3)
        assert p.allows(2) and not p.allows(3)

    def test_wait_crossing_deadline_refused(self):
        p = RetryPolicy(initial_timeout_s=2.0, multiplier=2.0, max_retries=10)
        # Attempt 2 waits 8 s; from t=5 that lands at 13 > 10.
        assert p.allows(2, now=1.0, deadline=10.0)
        assert not p.allows(2, now=5.0, deadline=10.0)

    def test_deadline_none_means_unbounded_by_time(self):
        p = RetryPolicy(max_retries=5)
        assert p.allows(4, now=1e9, deadline=None)

    def test_now_without_deadline_ignored(self):
        p = RetryPolicy(max_retries=5)
        assert p.allows(0, now=1e9)
