"""Fault-tolerant sessions: leases, crash migration, hibernation.

A *session* is a long-lived query stream — open it once, pull one
solution at a time, close it (or abandon it and let the lease lapse).
:class:`SessionService` provides that contract on top of the
:class:`~repro.serve.service.QueryService` data plane:

- **streaming** — every :meth:`~SessionService.next_solution` call is
  one :meth:`~repro.serve.service.QueryService.run_steps` step: the
  engine runs in stop-at-solution mode, pauses at the next fresh
  answer, and ships its full checkpoint back to the parent as the
  resume token for the following call.  The parent is authoritative:
  no worker owns a session between steps, which is what makes
  migration trivial.
- **crash migration** — a step rides the service's retry-with-resume
  machinery.  If the worker dies mid-step the service retries on
  another worker from the step's last mid-run checkpoint (or from the
  resume token it started from — never from scratch, which would
  re-find solution #1).  The session observes nothing but
  ``attempts > 1``; solutions and final ``RunStats`` stay bit-identical
  to an uninterrupted run.
- **leases** — each session carries a client lease
  (:class:`~repro.serve.overload.LeasePolicy`), renewed implicitly by
  every step.  A lapsed lease marks the session an orphan; the
  :class:`SessionReaper` (or any :meth:`~SessionService.reap` call)
  reclaims its engine state instead of leaking it forever.
- **hibernation** — between steps the resume token lives in an
  :class:`~repro.serve.engine.EngineStore`, a byte-budgeted LRU that
  spills cold sessions' checkpoints to disk (content-hash verified on
  wake; a token that fails verification fails its session alone),
  bounding parent RSS no matter how many sessions sit idle.

Accounting is exact: every opened session ends in exactly one of
*done*, *failed*, *closed* or *reaped*, and at :meth:`~SessionService.
close` the store is empty — an imbalance means a leaked engine and the
soak harness (:func:`repro.serve.loadgen.run_session_soak`) gates on
it.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import KCMError
from repro.serve.chaos import ChaosPolicy
from repro.serve.engine import EngineStore, EngineStoreCorrupt
from repro.serve.overload import LeasePolicy
from repro.serve.retry import RetryPolicy
from repro.serve.service import (QueryError, QueryService, ServiceHealth,
                                 ServiceResult)


class SessionError(KCMError):
    """Base class for session-layer failures."""


class UnknownSession(SessionError):
    """The session id names no open session (never opened, already
    finished, closed, or reaped)."""


class SessionExpired(SessionError):
    """The session's lease lapsed and the reaper (or an access check)
    reclaimed it; its engine state is gone."""


class SessionStepFailed(SessionError):
    """A session step finished with a final :class:`~repro.serve.
    service.QueryError`; the session is closed and its engine
    reclaimed."""

    def __init__(self, session_id: str, error: QueryError):
        super().__init__(f"session {session_id}: {error}")
        self.session_id = session_id
        self.error = error


#: ``StepOutcome.status`` values: the per-step verdicts of
#: :meth:`SessionService.advance`.
SOLUTION = "solution"   # a fresh solution; the stream continues
DONE = "done"           # search exhausted; final stats attached
EXPIRED = "expired"     # lease lapsed before the step; session reaped
FAILED = "error"        # final QueryError; session closed


@dataclass
class StepOutcome:
    """One session's result from an :meth:`SessionService.advance`
    round."""

    session_id: str
    status: str                       # SOLUTION | DONE | EXPIRED | FAILED
    solution: Optional[dict] = None   # the fresh binding set (SOLUTION)
    solutions: List[dict] = field(default_factory=list)  # cumulative
    stats: Optional[object] = None    # final RunStats (DONE only)
    error: Optional[QueryError] = None
    migrated: bool = False            # step survived >= 1 worker crash
    attempts: int = 1
    worker: int = -1


@dataclass
class _Session:
    """Parent-side record of one open session (the resume-token bytes
    live in the :class:`~repro.serve.engine.EngineStore`, not here)."""

    session_id: str
    program: str
    query: str
    lease_expires: float
    started: bool = False             # a first step has run
    #: the solutions delivered so far.  Every outcome's cumulative
    #: ``solutions`` shares these objects rather than its own step's
    #: decode of every earlier answer, so a client that keeps a
    #: stream's outcomes holds each answer once.
    delivered: List[dict] = field(default_factory=list)
    migrations: int = 0               # crashed attempts survived
    worker: int = -1                  # worker that served the last step
    #: the search exhausted on a step that still carried a fresh
    #: solution (possible: the last answer and exhaustion share an
    #: instruction boundary, e.g. a determinate single-solution query).
    #: The fresh solution was delivered as SOLUTION; the next advance
    #: delivers DONE from ``delivered`` and these parked final stats
    #: without running a step.
    finished: bool = False
    final_stats: Optional[object] = None


class SessionService:
    """First-class sessions over a :class:`~repro.serve.service.
    QueryService` (docs/SESSIONS.md).

    ``chaos`` is held *here* and reseeded per advance round —
    :class:`~repro.serve.chaos.ChaosPolicy` plans are pure functions of
    ``(seed, slot, attempt)``, and every round is a fresh single-slot
    batch, so without reseeding each round would replay the identical
    plan.  ``clock`` is injectable so the lease tests drive time
    explicitly.  Remaining keyword arguments go to the underlying
    :class:`~repro.serve.service.QueryService`.
    """

    def __init__(self, programs: Dict[str, str],
                 workers: int = 0,
                 lease: Optional[LeasePolicy] = None,
                 store: Optional[EngineStore] = None,
                 chaos: Optional[ChaosPolicy] = None,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_every: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 **service_kwargs):
        self.lease = lease if lease is not None else LeasePolicy()
        self.store = store if store is not None else EngineStore()
        self.chaos = chaos
        self.retry = retry
        self.checkpoint_every = checkpoint_every
        self.timeout_s = timeout_s
        self.clock = clock
        self.service = QueryService(programs, workers=workers,
                                    **service_kwargs)
        self._sessions: Dict[str, _Session] = {}
        self._next_id = 0
        self._round = 0
        self._closed = False
        self._counters = {"migrations": 0, "leases_expired": 0,
                          "sessions_opened": 0, "sessions_done": 0,
                          "sessions_failed": 0, "sessions_closed": 0}

    # -- lifecycle -------------------------------------------------------------

    def open(self, program: str, query: str) -> str:
        """Open a session; returns its id.  Raises :class:`SessionError`
        when ``max_sessions`` is reached (admission control — shed the
        open, not a later step)."""
        if self._closed:
            raise RuntimeError("session service is closed")
        limit = self.lease.max_sessions
        if limit is not None and len(self._sessions) >= limit:
            raise SessionError(
                f"session limit reached ({limit} open)")
        self._next_id += 1
        session_id = f"s{self._next_id:06d}"
        self._sessions[session_id] = _Session(
            session_id=session_id, program=program, query=query,
            lease_expires=self.clock() + self.lease.ttl_s)
        self._counters["sessions_opened"] += 1
        return session_id

    def close_session(self, session_id: str) -> None:
        """Release a session and its engine state (idempotent on
        already-finished ids via :class:`UnknownSession`)."""
        record = self._sessions.pop(session_id, None)
        if record is None:
            raise UnknownSession(f"no open session {session_id!r}")
        self.store.pop(session_id)
        self._counters["sessions_closed"] += 1

    def close(self) -> None:
        """Release every session, the store and the service.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        for session_id in list(self._sessions):
            self._sessions.pop(session_id)
            self.store.pop(session_id)
        self.store.close()
        self.service.close()

    def __enter__(self) -> "SessionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- leases ----------------------------------------------------------------

    def renew(self, session_id: str,
              now: Optional[float] = None) -> float:
        """Extend a session's lease; returns the new expiry."""
        record = self._record(session_id)
        current = self.clock() if now is None else now
        if current >= record.lease_expires:
            self._reap_one(record)
            raise SessionExpired(
                f"session {session_id} lease lapsed; reclaimed")
        record.lease_expires = current + self.lease.ttl_s
        return record.lease_expires

    def expire_lease(self, session_id: str) -> None:
        """Force a session's lease into the past (test/chaos hook: the
        next access or reap sweep reclaims it)."""
        self._record(session_id).lease_expires = float("-inf")

    def reap(self, now: Optional[float] = None) -> List[str]:
        """Reclaim every session whose lease has lapsed; returns their
        ids.  Called by the :class:`SessionReaper` and safe to call
        directly any time."""
        current = self.clock() if now is None else now
        reaped = [record for record in self._sessions.values()
                  if current >= record.lease_expires]
        for record in reaped:
            self._reap_one(record)
        return [record.session_id for record in reaped]

    def _reap_one(self, record: _Session) -> None:
        self._sessions.pop(record.session_id, None)
        self.store.pop(record.session_id)
        self._counters["leases_expired"] += 1

    # -- stepping --------------------------------------------------------------

    def next_solution(self, session_id: str) -> Optional[dict]:
        """Pull the session's next solution; ``None`` when the search
        is exhausted (the session auto-closes).  Raises
        :class:`SessionExpired` / :class:`SessionStepFailed` /
        :class:`UnknownSession`."""
        outcome = self.advance([session_id])[0]
        if outcome.status == EXPIRED:
            raise SessionExpired(
                f"session {session_id} lease lapsed; reclaimed")
        if outcome.status == FAILED:
            raise SessionStepFailed(session_id, outcome.error)
        return outcome.solution

    def advance(self, session_ids: Sequence[str]) -> List[StepOutcome]:
        """Advance a batch of sessions one solution each.

        One :meth:`~repro.serve.service.QueryService.run_steps` round:
        the steps micro-batch across the worker pool together.  Expired
        sessions are reaped up front and reported ``EXPIRED`` without
        consuming capacity; each surviving step renews its session's
        lease.  A session whose hibernated engine fails verification on
        wake fails alone (``FAILED``, ``EngineStoreCorrupt``); the rest
        of the round still advances.
        """
        if self._closed:
            raise RuntimeError("session service is closed")
        if len(set(session_ids)) != len(session_ids):
            raise ValueError("duplicate session ids in one advance round")
        now = self.clock()
        outcomes: List[Optional[StepOutcome]] = [None] * len(session_ids)
        live = []
        for slot, session_id in enumerate(session_ids):
            record = self._record(session_id)
            if now >= record.lease_expires:
                self._reap_one(record)
                outcomes[slot] = StepOutcome(session_id=session_id,
                                             status=EXPIRED)
                continue
            if record.finished:
                outcomes[slot] = self._finish(record)
                continue
            live.append((slot, record))
        # Tokens wake only after the loop above released every expired
        # session's bytes: a wake can spill other tokens, so this order
        # decides which of them hibernate.
        steps, stepping = [], []
        for slot, record in live:
            try:
                payload = (self.store.get(record.session_id)
                           if record.started else None)
            except EngineStoreCorrupt as err:
                outcomes[slot] = self._fail(record, QueryError(
                    "EngineStoreCorrupt", str(err), attempts=0), attempts=0)
                continue
            steps.append((record.program, record.query, payload))
            stepping.append((slot, record))
        if steps:
            results = self._run_round(steps)
            for (slot, record), result in zip(stepping, results):
                outcomes[slot] = self._absorb(record, result)
        return outcomes  # type: ignore[return-value]  # every slot filled

    def drain(self, session_id: str) -> StepOutcome:
        """Advance one session until its search finishes; returns the
        terminal :class:`StepOutcome` (``DONE`` with final stats, or the
        first non-solution verdict)."""
        while True:
            outcome = self.advance([session_id])[0]
            if outcome.status != SOLUTION:
                return outcome

    def _run_round(self, steps: List[tuple]) -> List[ServiceResult]:
        self._round += 1
        chaos = self.chaos
        if chaos is not None:
            # Reseed per round: plans are pure in (seed, slot, attempt)
            # and every round restarts at slot 0 / attempt 1, so a
            # fixed seed would replay identical mischief forever.
            chaos = dataclasses.replace(
                chaos, seed=chaos.seed + self._round)
        return self.service.run_steps(
            steps, timeout_s=self.timeout_s, retry=self.retry,
            checkpoint_every=self.checkpoint_every, chaos=chaos)

    def _absorb(self, record: _Session,
                result: ServiceResult) -> StepOutcome:
        """Fold one step result into the session record."""
        crashed_attempts = max(0, result.attempts - 1)
        if not result.ok:
            return self._fail(record, result.error, result.attempts,
                              result.worker)
        record.lease_expires = self.clock() + self.lease.ttl_s
        record.started = True
        record.worker = result.worker
        record.migrations += crashed_attempts
        self._counters["migrations"] += crashed_attempts
        fresh = result.solutions[len(record.delivered):]
        record.delivered.extend(fresh)
        if result.paused:
            self.store.put(record.session_id, result.session_payload)
            return StepOutcome(
                session_id=record.session_id, status=SOLUTION,
                solution=fresh[-1] if fresh else None,
                solutions=list(record.delivered),
                migrated=crashed_attempts > 0,
                attempts=result.attempts, worker=result.worker)
        # Search finished: the terminal step's solutions/stats are
        # those of the equivalent uninterrupted all-solutions run.
        self.store.pop(record.session_id)
        if fresh:
            # The last answer coincided with exhaustion: deliver it as
            # a SOLUTION now and park the final stats — the next
            # advance reports DONE so the stream's contract (SOLUTION
            # carries exactly one fresh answer, DONE carries none)
            # holds.
            record.finished = True
            record.final_stats = result.stats
            return StepOutcome(
                session_id=record.session_id, status=SOLUTION,
                solution=fresh[-1], solutions=list(record.delivered),
                migrated=crashed_attempts > 0,
                attempts=result.attempts, worker=result.worker)
        self._sessions.pop(record.session_id, None)
        self._counters["sessions_done"] += 1
        return StepOutcome(
            session_id=record.session_id, status=DONE,
            solutions=list(record.delivered), stats=result.stats,
            migrated=crashed_attempts > 0,
            attempts=result.attempts, worker=result.worker)

    def _fail(self, record: _Session, error: QueryError,
              attempts: int = 1, worker: int = -1) -> StepOutcome:
        """Close a session on a final error and reclaim its engine."""
        self._sessions.pop(record.session_id, None)
        self.store.pop(record.session_id)
        self._counters["sessions_failed"] += 1
        return StepOutcome(session_id=record.session_id, status=FAILED,
                           error=error, attempts=attempts, worker=worker)

    def _finish(self, record: _Session) -> StepOutcome:
        """Deliver the parked DONE of a session whose last solution
        coincided with exhaustion (see :class:`_Session.finished`)."""
        self._sessions.pop(record.session_id, None)
        self._counters["sessions_done"] += 1
        return StepOutcome(
            session_id=record.session_id, status=DONE,
            solutions=list(record.delivered),
            stats=record.final_stats, worker=record.worker)

    # -- introspection ---------------------------------------------------------

    def health(self) -> ServiceHealth:
        """The underlying service's health with the session-layer
        gauges filled in."""
        health = self.service.health()
        health.active_sessions = len(self._sessions)
        health.hibernated_engines = self.store.hibernated_count
        health.migrations = self._counters["migrations"]
        health.leases_expired = self._counters["leases_expired"]
        return health

    @property
    def counters(self) -> Dict[str, int]:
        """Session disposition counters (exactly-once accounting:
        ``opened == done + failed + closed + leases_expired`` once all
        traffic has drained)."""
        return dict(self._counters)

    def session(self, session_id: str) -> _Session:
        """The (mutable) record for one open session — read-only use."""
        return self._record(session_id)

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    def _record(self, session_id: str) -> _Session:
        record = self._sessions.get(session_id)
        if record is None:
            raise UnknownSession(f"no open session {session_id!r}")
        return record


class SessionReaper:
    """Periodic orphan collection for a :class:`SessionService`.

    Cooperative, not threaded: call :meth:`tick` from the serving loop
    (or a cron-like driver) and the reaper sweeps at most once per
    ``interval_s``, with a seeded jitter so many reapers sharing a
    deployment don't sweep in lockstep.  Every sweep delegates to
    :meth:`SessionService.reap`, which records reclaims in the
    ``leases_expired`` counter.
    """

    def __init__(self, service: SessionService,
                 interval_s: float = 5.0,
                 jitter: float = 0.2,
                 seed: int = 0,
                 clock: Optional[Callable[[], float]] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.service = service
        self.interval_s = interval_s
        self.jitter = jitter
        self.clock = clock if clock is not None else service.clock
        self._rng = random.Random(seed)
        self._next_sweep = self.clock() + self._period()
        self.sweeps = 0
        self.reaped_total = 0

    def _period(self) -> float:
        spread = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return self.interval_s * spread

    def tick(self, now: Optional[float] = None) -> List[str]:
        """Sweep if the interval has elapsed; returns the reaped ids
        (empty when it isn't time yet)."""
        current = self.clock() if now is None else now
        if current < self._next_sweep:
            return []
        self._next_sweep = current + self._period()
        reaped = self.service.reap(current)
        self.sweeps += 1
        self.reaped_total += len(reaped)
        return reaped
