"""Unit tests for the resilience primitives (retry policy, circuit breaker)."""

import dataclasses

import pytest

from repro.resilience import CircuitBreaker, RetryPolicy, retry_call


# ----------------------------------------------------------------- RetryPolicy
def test_policy_defaults_match_legacy_backoff():
    p = RetryPolicy()
    assert p.max_attempts == 3
    assert p.delay_for(1) == 0.5
    assert p.delay_for(2) == 1.0
    assert p.delay_for(3) == 2.0


def test_policy_delay_is_capped():
    p = RetryPolicy(base_delay_s=1.0, multiplier=10.0, max_delay_s=25.0)
    assert p.delay_for(1) == 1.0
    assert p.delay_for(2) == 10.0
    assert p.delay_for(3) == 25.0
    assert p.delay_for(9) == 25.0


def test_policy_jitter_is_deterministic_and_bounded():
    p = RetryPolicy(base_delay_s=1.0, jitter=0.25)
    d1 = p.delay_for(1, key="op-a")
    d2 = p.delay_for(1, key="op-a")
    assert d1 == d2  # stable hash, no wall-clock entropy
    assert 0.75 <= d1 <= 1.25
    # Different keys spread across the jitter window.
    delays = {p.delay_for(1, key=f"op-{i}") for i in range(32)}
    assert len(delays) > 1


def test_policy_is_immutable_and_validates():
    p = RetryPolicy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.max_attempts = 7
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=-0.1)
    with pytest.raises(ValueError):
        p.delay_for(0)


def test_backoff_schedule_respects_deadline():
    p = RetryPolicy(max_attempts=6, base_delay_s=1.0, deadline_s=6.0)
    # Full schedule would be 1+2+4+8+16; deadline cuts after 1+2 (4 busts it).
    assert p.backoff_schedule() == [1.0, 2.0]


# ------------------------------------------------------------------ retry_call
def test_retry_call_passes_through_success():
    assert retry_call(RetryPolicy(), lambda x: x + 1, 41,
                      now=lambda: 0.0) == 42


def test_retry_call_retries_then_succeeds():
    calls = []
    hooks = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise OSError("transient")
        return "ok"

    out = retry_call(RetryPolicy(), flaky, retry_on=(OSError,),
                     on_retry=lambda n, d, e: hooks.append((n, d)),
                     now=lambda: 0.0)
    assert out == "ok"
    assert len(calls) == 3
    assert hooks == [(1, 0.5), (2, 1.0)]


def test_retry_call_reraises_after_exhaustion():
    with pytest.raises(OSError, match="always"):
        retry_call(RetryPolicy(max_attempts=2), _always_fail, retry_on=(OSError,),
                   now=lambda: 0.0)


def _always_fail():
    raise OSError("always")


def test_retry_call_does_not_catch_unlisted_exceptions():
    calls = []

    def boom():
        calls.append(1)
        raise KeyError("not transient")

    with pytest.raises(KeyError):
        retry_call(RetryPolicy(), boom, retry_on=(OSError,), now=lambda: 0.0)
    assert len(calls) == 1  # no retry for a non-matching exception


def test_retry_call_deadline_stops_retrying_early():
    calls = []

    def flaky():
        calls.append(1)
        raise OSError("transient")

    policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, deadline_s=3.0)
    with pytest.raises(OSError):
        retry_call(policy, flaky, retry_on=(OSError,), now=lambda: 0.0)
    # Backoff budget: 1 + 2 fits, the third delay (4) would bust 3.0.
    assert len(calls) == 3


# -------------------------------------------------------------- CircuitBreaker
def test_breaker_trips_after_threshold():
    br = CircuitBreaker(failure_threshold=3)
    assert br.state() == "closed"
    br.record_failure(1.0)
    br.record_failure(2.0)
    assert not br.is_open(2.0)
    br.record_failure(3.0)
    assert br.is_open(3.0)
    assert br.state(3.0) == "open"
    assert br.total_trips == 1


def test_breaker_success_resets_consecutive_count():
    br = CircuitBreaker(failure_threshold=2)
    br.record_failure(1.0)
    br.record_success()
    br.record_failure(2.0)
    assert not br.is_open(2.0)
    br.record_failure(3.0)
    assert br.is_open(3.0)
    br.record_success()
    assert br.state() == "closed"


def test_breaker_half_opens_after_cooldown():
    br = CircuitBreaker(failure_threshold=1, reset_after_s=100.0)
    br.record_failure(10.0)
    assert br.is_open(50.0)
    assert br.state(50.0) == "open"
    assert not br.is_open(110.0)  # cooled down: one probe allowed
    assert br.state(110.0) == "half-open"
    br.record_failure(110.0)  # the probe failed: open again
    assert br.is_open(150.0)


def test_breaker_without_cooldown_stays_open():
    br = CircuitBreaker(failure_threshold=1)
    br.record_failure(0.0)
    assert br.is_open(1e9)


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(reset_after_s=-1.0)
