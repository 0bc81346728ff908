"""Retry with exponential backoff, deterministic jitter and a deadline.

The policy is a frozen value object: ``backoff_s(attempt, token)`` is a
pure function, so two processes configured identically retry on an
identical schedule — jitter comes from the same seeded hash the fault
planner uses (:func:`repro.faults.plan.site_uniform`), not from global
RNG state.  That determinism is what lets the chaos tests assert exact
retry counters and lets a seeded chaos run reproduce byte-for-byte.

Two hard guarantees, both property-tested:

* backoff never exceeds ``max_delay_s`` per sleep, and
* a policy with a ``deadline_s`` never sleeps past it: if the next
  backoff would overrun the deadline the call gives up immediately,
  raising :class:`RetryBudgetExceeded` wrapping the last error.

``call`` retries only exceptions matched by ``retry_on`` (default: the
injected-fault family plus :class:`TransientError`); anything else
propagates on the first raise, untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.faults.plan import site_uniform
from repro.faults.sites import InjectedFault
from repro.obs import metrics, spans

_RETRIES = metrics.counter(
    "resilience.retries", "retried attempts by site")
_GIVEUPS = metrics.counter(
    "resilience.giveups", "calls that exhausted their retry budget")


class TransientError(Exception):
    """Mark an error as safe to retry (dead worker, torn read, ...)."""


#: Exception types retried by default.
TRANSIENT = (InjectedFault, TransientError)


class RetryBudgetExceeded(Exception):
    """Every attempt failed (or the deadline cut the budget short)."""

    def __init__(self, token: str, attempts: int, last: BaseException):
        super().__init__(f"retry budget exhausted for {token or 'call'} "
                         f"after {attempts} attempt(s): "
                         f"{type(last).__name__}: {last}")
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class Retry:
    """A reusable retry policy.

    Attributes:
        max_attempts: total tries, including the first.
        base_delay_s: backoff before the first retry.
        multiplier: backoff growth per retry.
        max_delay_s: per-sleep cap.
        jitter: fraction of each delay that is randomized — a delay
            lands in ``[delay * (1 - jitter), delay]``, deterministically
            per ``(seed, token, attempt)``.
        deadline_s: total wall-clock budget (``None`` = unbounded).
        seed: jitter seed.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Sleep before retry ``attempt`` (0-based); pure and seeded."""
        delay = min(self.base_delay_s * self.multiplier ** attempt,
                    self.max_delay_s)
        if self.jitter == 0.0 or delay == 0.0:
            return delay
        draw = site_uniform(self.seed, f"retry|{token}", attempt)
        return delay * (1.0 - self.jitter * draw)

    def delays(self, token: str = "") -> list[float]:
        """Every backoff the policy could sleep, in order."""
        return [self.backoff_s(attempt, token)
                for attempt in range(self.max_attempts - 1)]

    def call(self, fn, *, retry_on: tuple = TRANSIENT, token: str = "",
             sleep=time.sleep, clock=time.monotonic, on_retry=None):
        """Run ``fn`` under the policy; its return value on success.

        ``on_retry(attempt, error)`` fires before each backoff sleep
        (the executor counts retries into its result counters with it).
        ``sleep``/``clock`` are injectable so the property tests can
        prove deadline compliance on a fake clock.
        """
        start = clock()
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retry_on as error:
                last = error
                if attempt == self.max_attempts - 1:
                    break
                delay = self.backoff_s(attempt, token)
                if (self.deadline_s is not None
                        and clock() - start + delay > self.deadline_s):
                    break
                _RETRIES.inc(site=token or "call")
                spans.annotate(**{"retry.attempt": attempt + 1,
                                  "retry.site": token or "call"})
                if on_retry is not None:
                    on_retry(attempt, error)
                sleep(delay)
        _GIVEUPS.inc(site=token or "call")
        assert last is not None
        raise RetryBudgetExceeded(token, attempt + 1, last) from last
