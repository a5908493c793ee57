"""Retry policy for the query service: taxonomy + deterministic backoff.

The serving layer distinguishes two failure families (docs/RESILIENCE.md):

**Permanent** failures are properties of the query itself — a compile
error, an unknown program, a genuine ``CycleLimitExceeded``, an
unrecovered machine trap.  Re-running the same deterministic machine on
the same input reproduces them exactly, so retrying is pure waste and
``run_many`` never does it.

**Transient** failures are properties of the *host* run, not the query:
the worker process died (``WorkerCrashed``), the host wall budget
expired (``WallTimeout``), admission control shed the slot (``Shed``)
or the batch deadline passed first (``DeadlineExceeded``).  The same
query on a healthy worker may well succeed, so these are retry
candidates.  ``run_many`` auto-retries the first two under a
:class:`RetryPolicy`; the last two are final *for the batch* (retrying
a shed inside the batch that shed it would defeat the shedding) but
marked ``transient`` so callers know a later submission is reasonable.

Backoff is exponential with **deterministic seeded jitter**: the delay
for (slot, attempt) is a pure function of the policy, so two runs of
the same batch under the same policy retry at the same offsets — the
property the chaos harness (:mod:`repro.serve.chaos`) relies on to be
reproducible end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet

#: failure kinds that may succeed on re-execution (host conditions).
TRANSIENT_KINDS: FrozenSet[str] = frozenset(
    {"WorkerCrashed", "WallTimeout", "Shed", "DeadlineExceeded"})

#: the subset run_many retries automatically inside a batch.
RETRYABLE_KINDS: FrozenSet[str] = frozenset({"WorkerCrashed", "WallTimeout"})


def is_transient(kind: str) -> bool:
    """Whether a :class:`~repro.serve.service.QueryError` kind names a
    host-side (hence possibly-transient) condition."""
    return kind in TRANSIENT_KINDS


@dataclass(frozen=True)
class RetryPolicy:
    """How ``run_many`` retries transient per-slot failures.

    ``max_attempts`` counts executions, not retries: 3 means the
    original try plus up to two more.  The delay before attempt
    ``n+1`` is ``base_delay_s * multiplier**(n-1)`` stretched by up to
    ``jitter`` (a fraction) using a generator seeded from
    ``(seed, slot index, attempt)``, the whole thing capped at
    ``max_delay_s`` — fully deterministic, yet de-synchronised across
    slots so a killed worker's retries don't stampede.  The cap is
    applied *after* the jitter, so for any ``multiplier >=
    1 + jitter`` (the default comfortably qualifies) the delay is
    monotone non-decreasing in the attempt number and never exceeds
    ``max_delay_s``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    retry_on: FrozenSet[str] = field(default=RETRYABLE_KINDS)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")

    def retryable(self, kind: str, attempt: int) -> bool:
        """Whether a failure of ``kind`` on execution number
        ``attempt`` (1-based) earns another try."""
        return kind in self.retry_on and attempt < self.max_attempts

    def delay_s(self, index: int, attempt: int) -> float:
        """Seconds to wait before re-dispatching slot ``index`` after
        its ``attempt``-th execution failed.  Pure function of
        ``(policy, index, attempt)``; monotone non-decreasing in
        ``attempt`` (for ``multiplier >= 1 + jitter``) and capped at
        ``max_delay_s``."""
        backoff = self.base_delay_s * self.multiplier ** (attempt - 1)
        rng = random.Random(self.seed * 1_000_003
                            + index * 8_191 + attempt)
        return min(self.max_delay_s,
                   backoff * (1.0 + self.jitter * rng.random()))
