"""Tests for retry budgets."""

import pytest

from repro.admission import RetryBudget


class TestRetryBudget:
    def test_starts_at_floor(self):
        assert RetryBudget(ratio=0.1, floor=5.0).tokens == 5.0

    def test_requests_deposit_ratio(self):
        budget = RetryBudget(ratio=0.5, floor=10.0)
        for _ in range(4):
            budget.try_retry()
        assert budget.tokens == pytest.approx(6.0)
        budget.record_request()
        assert budget.tokens == pytest.approx(6.5)

    def test_deposits_cap_at_floor(self):
        budget = RetryBudget(ratio=1.0, floor=2.0)
        for _ in range(10):
            budget.record_request()
        assert budget.tokens == 2.0

    def test_dry_budget_denies(self):
        budget = RetryBudget(ratio=0.0, floor=1.0)
        assert budget.try_retry()
        assert not budget.try_retry()
        assert budget.stats() == {
            "tokens": 0.0, "requests": 0, "retries": 1, "denied": 1,
        }

    def test_steady_state_amplification_bounded(self):
        # 100 real requests at ratio 0.1 bank at most 10 retries beyond
        # the initial floor, regardless of how many callers want one.
        budget = RetryBudget(ratio=0.1, floor=3.0)
        for _ in range(3):
            assert budget.try_retry()  # drain the floor
        granted = 0
        for _ in range(100):
            budget.record_request()
            if budget.try_retry():
                granted += 1
        assert granted <= 10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=1.5)
        with pytest.raises(ValueError):
            RetryBudget(floor=-1.0)
