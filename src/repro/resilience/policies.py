"""Unified resilience primitives for the offload pipeline.

WAN offloading fails constantly in practice: storage services throttle, SSH
sessions drop, spot instances vanish, Spark drivers die.  The successor
system to the paper (OMPC, arXiv:2207.05677) made fault tolerance a
first-class runtime concern for exactly this reason.  This module is the one
place that failure-handling *policy* lives; the mechanisms (what to retry,
how to resubmit, when to fall back to the host) are threaded through
:mod:`repro.core.plugin_cloud` and :mod:`repro.core.runtime`.

Three pieces:

* :class:`RetryPolicy` — declarative exponential backoff with jitter, a
  per-delay cap and a per-operation deadline.  All delays are *simulated*
  seconds; callers charge them to the :class:`~repro.simtime.clock.SimClock`.
* :func:`retry_call` — run one operation under a policy, invoking an
  ``on_retry`` hook (logging, backoff accounting) between attempts.
* :class:`CircuitBreaker` — trips open after K consecutive offload-level
  failures so the runtime stops hammering a dead cloud and degrades to host
  execution; optionally half-opens after a simulated cool-down.

Everything here is deterministic: jitter comes from a stable hash of the
operation key, never from wall-clock entropy, so simulated runs replay
bit-identically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Tuple, Type

from repro.obs.events import Retry, get_bus


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures of one operation class are retried.

    ``max_attempts`` counts total tries (1 = no retries).  The delay before
    retry *n* (1-based failure count) is::

        min(base_delay_s * multiplier ** (n - 1), max_delay_s)

    optionally scaled by a deterministic jitter in ``[1 - jitter, 1 + jitter]``
    derived from the operation key.  ``deadline_s`` caps the *total* backoff
    one operation may accumulate: a retry whose delay would exceed the
    remaining deadline budget is not attempted.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0.0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay_s < 0.0:
            raise ValueError(f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s < 0.0:
            raise ValueError(f"deadline_s must be >= 0, got {self.deadline_s}")

    def delay_for(self, failure: int, key: str = "") -> float:
        """Backoff (simulated seconds) before the retry after ``failure``
        consecutive failures (1-based)."""
        if failure < 1:
            raise ValueError(f"failure count must be >= 1, got {failure}")
        delay = min(self.base_delay_s * self.multiplier ** (failure - 1),
                    self.max_delay_s)
        if self.jitter > 0.0:
            # Stable hash -> fraction in [0, 1); no wall-clock entropy, so
            # simulated runs replay identically.
            frac = (zlib.crc32(f"{key}#{failure}".encode()) % 10_000) / 10_000.0
            delay *= 1.0 + self.jitter * (2.0 * frac - 1.0)
        return delay

    def backoff_schedule(self, key: str = "") -> list[float]:
        """The delays a fully-failing operation would sleep, deadline applied."""
        out: list[float] = []
        total = 0.0
        for failure in range(1, self.max_attempts):
            delay = self.delay_for(failure, key)
            if self.deadline_s is not None and total + delay > self.deadline_s:
                break
            out.append(delay)
            total += delay
        return out


#: on_retry(failure_number, delay_s, exception) -> None
RetryHook = Callable[[int, float, BaseException], None]


def retry_call(
    policy: RetryPolicy,
    fn: Callable[..., Any],
    *args: Any,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    op_name: str = "",
    on_retry: RetryHook | None = None,
    now: Callable[[], float],
    resource: str = "host",
    **kwargs: Any,
):
    """Run ``fn(*args, **kwargs)`` under ``policy``.

    Exceptions matching ``retry_on`` are retried; anything else propagates
    immediately.  ``on_retry`` fires before each retry with the failure
    count, the backoff to charge, and the exception — callers use it to log
    and to advance the simulated clock.  The last exception is re-raised when
    attempts (or the deadline budget) run out.

    Every retry is also published to the process event bus as a
    :class:`~repro.obs.events.Retry`, stamped with the simulated time from
    ``now()`` — required, so no caller's retries can lose their place on
    the run's clock — and charged to ``resource`` (the side that waits).
    """
    last: BaseException | None = None
    backoff_total = 0.0
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(*args, **kwargs)
        except retry_on as exc:  # type: ignore[misc]
            last = exc
            if attempt == policy.max_attempts:
                break
            delay = policy.delay_for(attempt, key=op_name)
            if (policy.deadline_s is not None
                    and backoff_total + delay > policy.deadline_s):
                break
            backoff_total += delay
            get_bus().emit(Retry(
                time=now(),
                resource=resource,
                op=op_name or getattr(fn, "__name__", "op"),
                attempt=attempt,
                delay_s=delay,
                error=str(exc),
            ))
            if on_retry is not None:
                on_retry(attempt, delay, exc)
    assert last is not None
    raise last


class CircuitBreaker:
    """Trip after K consecutive failures; optionally half-open after a rest.

    All times are simulated seconds supplied by the caller (the breaker never
    reads a clock itself).  State machine::

        closed --(K consecutive failures)--> open
        open   --(reset_after_s elapsed)---> half-open (one probe allowed)
        half-open --success--> closed      half-open --failure--> open again
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_after_s: float | None = None) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after_s is not None and reset_after_s < 0.0:
            raise ValueError(f"reset_after_s must be >= 0, got {reset_after_s}")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self.consecutive_failures = 0
        self.total_failures = 0
        self.total_trips = 0
        self._opened_at: float | None = None

    def record_failure(self, now: float = 0.0) -> None:
        """Note one offload-level failure at simulated time ``now``."""
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            if self._opened_at is None:
                self.total_trips += 1
            self._opened_at = now

    def record_success(self) -> None:
        """A successful offload closes the circuit and resets the count."""
        self.consecutive_failures = 0
        self._opened_at = None

    def is_open(self, now: float = 0.0) -> bool:
        """Whether offloads should be refused at simulated time ``now``."""
        if self._opened_at is None:
            return False
        if (self.reset_after_s is not None
                and now - self._opened_at >= self.reset_after_s):
            return False  # half-open: let one probe offload through
        return True

    def state(self, now: float = 0.0) -> str:
        if self._opened_at is None:
            return "closed"
        return "half-open" if not self.is_open(now) else "open"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker(state={self.state()!r}, "
                f"consecutive_failures={self.consecutive_failures}, "
                f"threshold={self.failure_threshold})")
