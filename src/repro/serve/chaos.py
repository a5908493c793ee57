"""Deterministic chaos harness for the query service.

A :class:`ChaosPolicy` is a seeded generator of per-(slot, attempt)
:class:`ChaosPlan`\\ s, shipped to workers inside the task options:

- **kills** — the worker executes the query in cycle slices
  (:meth:`~repro.core.machine.Machine.run_sliced`) and commits suicide
  at the planned simulated-cycle threshold, after flushing any
  checkpoints already queued, so the parent observes a dead process
  mid-query exactly as a real crash would present;
- **delays** — the worker sleeps before delivering its result, widening
  the window for the timeout-expiry race the service must win in the
  result's favour;
- **injected machine faults** — the plan arms a
  :class:`~repro.recovery.FaultInjector` schedule (page faults, zone
  squeezes, spurious traps) inside the worker, with recovery handlers
  installed, exercising checkpoint/resume *across* trap recovery.

Everything is a pure function of ``(policy, slot index, attempt)``:
kills and delays are drawn per attempt (so a killed slot's retry runs
clean once ``max_kills_per_slot`` is spent), while the injector spec is
drawn per *slot* — every attempt of a slot replays the identical fault
schedule, which is what makes a resumed-from-checkpoint attempt and a
from-scratch retry agree bit-for-bit with the uninterrupted run.

:func:`verify_chaos_invariant` is the acceptance gate used by the tests
and the CI chaos smoke job: chaos-ridden ``run_many`` must return
solutions and statuses identical to the fault-free reference, with no
slot lost or duplicated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class ChaosKilled(Exception):
    """Raised inside a worker when its chaos plan says to die here.

    Internal control flow: the worker loop catches it, flushes its
    result pipe (checkpoints already shipped must survive — the crash
    model is SIGKILL between IPC writes, not a torn write) and calls
    ``os._exit``.
    """


@dataclass(frozen=True)
class ChaosPlan:
    """The concrete mischief for one (slot, attempt) execution."""

    kill_after_cycles: Optional[int] = None   # worker suicide threshold
    delay_result_s: float = 0.0               # sleep before result delivery
    inject: Optional[Dict[str, int]] = None   # FaultInjector kwargs
    #: interpret the kill threshold relative to the cycles the run
    #: starts at (session steps resume mid-stream at high cumulative
    #: counts an absolute window could never reach).
    kill_relative: bool = False

    @property
    def empty(self) -> bool:
        """Whether this plan changes nothing."""
        return (self.kill_after_cycles is None
                and not self.delay_result_s and self.inject is None)

    def apply(self, opts: dict) -> dict:
        """Task options with this plan folded in (the input is not
        mutated — plans differ per slot, the base options are shared)."""
        if self.empty:
            return opts
        merged = dict(opts)
        if self.kill_after_cycles is not None:
            merged["chaos_kill_cycles"] = self.kill_after_cycles
            if self.kill_relative:
                merged["chaos_kill_relative"] = True
        if self.delay_result_s:
            merged["chaos_delay_s"] = self.delay_result_s
        if self.inject is not None:
            merged["inject"] = self.inject
        return merged


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded chaos source for :meth:`QueryService.run_many`.

    Rates are probabilities per slot (kills/delays re-drawn per
    attempt).  ``max_kills_per_slot`` bounds how many attempts of one
    slot may be killed, so a kill-heavy policy still converges within a
    retry budget of ``max_kills_per_slot + 1`` attempts.
    """

    seed: int = 0
    kill_rate: float = 0.0
    kill_window: Tuple[int, int] = (1_000, 120_000)
    #: draw kill thresholds relative to each run's starting cycle count
    #: instead of as absolute simulated-time windows.  Session streams
    #: accumulate cycles across steps, so only a relative threshold
    #: keeps late steps killable (see ``ChaosPlan.kill_relative``).
    kill_relative: bool = False
    max_kills_per_slot: int = 1
    #: restrict kills to these batch slots (None: every slot draws).
    #: The poison-query tests use a single-slot tuple to model one
    #: query that murders every worker it touches while its batchmates
    #: run clean.
    kill_slots: Optional[Tuple[int, ...]] = None
    delay_rate: float = 0.0
    max_delay_s: float = 0.05
    inject_rate: float = 0.0
    inject_page_faults: int = 1
    inject_zone_squeezes: int = 1
    inject_spurious: int = 1
    inject_horizon: int = 50_000

    def plan(self, index: int, attempt: int) -> ChaosPlan:
        """The deterministic plan for execution ``attempt`` (1-based)
        of batch slot ``index``."""
        slot_rng = random.Random(self.seed * 2_000_003 + index * 7_919)
        inject = None
        if slot_rng.random() < self.inject_rate:
            inject = {
                "seed": self.seed * 65_537 + index,
                "page_faults": self.inject_page_faults,
                "zone_squeezes": self.inject_zone_squeezes,
                "spurious": self.inject_spurious,
                "horizon": self.inject_horizon,
            }
        attempt_rng = random.Random(self.seed * 4_000_037
                                    + index * 104_729 + attempt)
        kill_after = None
        killable = (self.kill_slots is None or index in self.kill_slots)
        if killable and attempt <= self.max_kills_per_slot \
                and attempt_rng.random() < self.kill_rate:
            low, high = self.kill_window
            kill_after = attempt_rng.randrange(low, high)
        delay = 0.0
        if attempt_rng.random() < self.delay_rate:
            delay = attempt_rng.random() * self.max_delay_s
        return ChaosPlan(kill_after_cycles=kill_after,
                         delay_result_s=delay, inject=inject,
                         kill_relative=self.kill_relative)

    def injects(self, index: int) -> bool:
        """Whether slot ``index`` runs with injected machine faults
        (injection is per slot, identical across attempts)."""
        return self.plan(index, 1).inject is not None


def verify_chaos_invariant(programs: Dict[str, str],
                           batch: Sequence,
                           chaos: ChaosPolicy,
                           retry=None,
                           workers: int = 2,
                           checkpoint_every: Optional[int] = 20_000,
                           timeout_s: Optional[float] = None,
                           all_solutions: bool = False,
                           **service_kwargs) -> Dict[str, object]:
    """Run ``batch`` fault-free and under ``chaos``; compare.

    The invariant (ISSUE 5 acceptance): solutions and statuses must be
    bit-identical to the fault-free in-process reference for every
    slot, with no slot lost or duplicated.  Simulated ``RunStats`` must
    additionally match for every slot whose plan injects no machine
    faults (injected faults legitimately add recovery cycles and trap
    counts; kills, delays and timeouts are host events that may never
    move simulated time).

    Returns a report dict with ``ok`` plus the mismatch lists the CI
    smoke job prints on failure.  Extra ``service_kwargs`` go to the
    chaos-ridden service (e.g. ``batch_max``, to pin the invariant
    across IPC protocol configurations).
    """
    from repro.serve.retry import RetryPolicy
    from repro.serve.service import QueryService

    if retry is None:
        retry = RetryPolicy(max_attempts=chaos.max_kills_per_slot + 2)
    with QueryService(programs, workers=0,
                      all_solutions=all_solutions) as reference_service:
        reference = reference_service.run_many(batch)
    with QueryService(programs, workers=workers,
                      all_solutions=all_solutions,
                      **service_kwargs) as service:
        chaotic = service.run_many(batch, timeout_s=timeout_s,
                                   retry=retry, chaos=chaos,
                                   checkpoint_every=checkpoint_every)
        health = service.health()

    mismatches: List[str] = []
    if len(chaotic) != len(batch):
        mismatches.append(f"slot count {len(chaotic)} != {len(batch)}")
    indices = [result.index for result in chaotic]
    if indices != list(range(len(batch))):
        mismatches.append(f"slot indices wrong or duplicated: {indices}")
    stats_checked = 0
    for expected, got in zip(reference, chaotic):
        where = f"slot {expected.index} ({expected.program!r})"
        if got.solutions != expected.solutions:
            mismatches.append(f"{where}: solutions differ")
        expected_kind = expected.error.kind if expected.error else None
        got_kind = got.error.kind if got.error else None
        if got_kind != expected_kind:
            mismatches.append(f"{where}: status {got_kind!r} "
                              f"!= {expected_kind!r}")
        if not chaos.injects(expected.index):
            stats_checked += 1
            if got.stats != expected.stats:
                mismatches.append(f"{where}: RunStats differ")
    return {
        "ok": not mismatches,
        "slots": len(batch),
        "stats_checked": stats_checked,
        "mismatches": mismatches,
        "health": health,
    }


def verify_session_chaos_invariant(programs: Dict[str, str],
                                   mix: Sequence[Tuple[str, str]],
                                   chaos: ChaosPolicy,
                                   retry=None,
                                   workers: int = 2,
                                   checkpoint_every: Optional[int] = 5_000,
                                   expire_slots: Optional[
                                       Dict[int, int]] = None,
                                   seed: int = 0,
                                   store_budget: Optional[int] = None,
                                   **session_kwargs) -> Dict[str, object]:
    """The session-layer chaos invariant (ISSUE 10 acceptance).

    Opens one session per ``mix`` slot, advances them round-robin
    (every still-open session steps in each round, so the steps
    micro-batch together) under ``chaos`` kills plus forced lease
    expiries, and checks:

    - every *surviving* session's solution sequence — and its final
      ``RunStats`` — is bit-identical to the fault-free in-process
      all-solutions reference for the same query;
    - expired sessions were reclaimed exactly as planned
      (``leases_expired`` matches, no surviving stream for them);
    - no engine leaked: the store and the active-session gauge are
      both zero once all traffic drained, and the disposition counters
      balance (``opened == done + failed + expired``).

    ``expire_slots`` maps slot index to the 1-based round *before*
    which its lease is forced to lapse; ``None`` draws a seeded plan
    expiring roughly a third of the slots in rounds 1-3.  Fault
    injection is rejected: injected traps legitimately add recovery
    cycles, which would make the bit-identity check vacuous.

    Returns a report dict shaped like :func:`verify_chaos_invariant`.
    """
    from repro.serve.engine import EngineStore
    from repro.serve.retry import RetryPolicy
    from repro.serve.session import (DONE, EXPIRED, FAILED, SOLUTION,
                                     SessionService)
    if chaos.inject_rate:
        raise ValueError("session invariant requires inject_rate == 0: "
                         "injected faults move simulated time")
    if retry is None:
        retry = RetryPolicy(max_attempts=chaos.max_kills_per_slot + 2)
    if expire_slots is None:
        rng = random.Random(seed)
        expire_slots = {index: rng.randrange(1, 4)
                        for index in range(len(mix))
                        if rng.random() < 0.34}

    from repro.serve.service import QueryService
    with QueryService(programs, workers=0,
                      all_solutions=True) as reference_service:
        reference = reference_service.run_many(list(mix))

    store = (EngineStore(budget_bytes=store_budget)
             if store_budget is not None else EngineStore())
    streams: Dict[int, List[dict]] = {i: [] for i in range(len(mix))}
    finals: Dict[int, object] = {}
    expired: set = set()
    failures: Dict[int, object] = {}
    migrations_seen = 0
    with SessionService(programs, workers=workers, chaos=chaos,
                        retry=retry, checkpoint_every=checkpoint_every,
                        store=store, **session_kwargs) as service:
        session_ids = [service.open(name, query) for name, query in mix]
        slot_of = {sid: i for i, sid in enumerate(session_ids)}
        open_ids = list(session_ids)
        round_number = 0
        while open_ids:
            round_number += 1
            for slot, when in expire_slots.items():
                if when == round_number and session_ids[slot] in open_ids:
                    service.expire_lease(session_ids[slot])
            outcomes = service.advance(open_ids)
            still_open = []
            for session_id, outcome in zip(open_ids, outcomes):
                slot = slot_of[session_id]
                migrations_seen += max(0, outcome.attempts - 1)
                if outcome.status == SOLUTION:
                    streams[slot].append(outcome.solution)
                    still_open.append(session_id)
                elif outcome.status == DONE:
                    finals[slot] = outcome
                elif outcome.status == EXPIRED:
                    expired.add(slot)
                else:
                    assert outcome.status == FAILED
                    failures[slot] = outcome.error
            open_ids = still_open
        health = service.health()
        counters = service.counters
        leaked = (len(service.store), service.active_sessions)

    mismatches: List[str] = []
    stats_checked = 0
    for slot, expected in enumerate(reference):
        name = mix[slot][0]
        where = f"slot {slot} ({name!r})"
        if slot in expired:
            if slot in finals:
                mismatches.append(f"{where}: both expired and finished")
            continue
        if slot in failures:
            mismatches.append(f"{where}: failed — {failures[slot]}")
            continue
        if slot not in finals:
            mismatches.append(f"{where}: never finished")
            continue
        outcome = finals[slot]
        if streams[slot] != expected.solutions:
            mismatches.append(f"{where}: streamed solutions differ")
        if outcome.solutions != expected.solutions:
            mismatches.append(f"{where}: final solutions differ")
        stats_checked += 1
        if outcome.stats != expected.stats:
            mismatches.append(f"{where}: RunStats differ")
    planned = {slot for slot, when in expire_slots.items()
               if slot in expired}
    if expired - set(expire_slots):
        mismatches.append(
            f"unplanned expiries: {sorted(expired - set(expire_slots))}")
    if health.leases_expired != len(expired):
        mismatches.append(
            f"leases_expired {health.leases_expired} != {len(expired)}")
    if leaked != (0, 0):
        mismatches.append(
            f"engines leaked at drain: store={leaked[0]} "
            f"active={leaked[1]}")
    opened = counters["sessions_opened"]
    settled = (counters["sessions_done"] + counters["sessions_failed"]
               + counters["leases_expired"] + counters["sessions_closed"])
    if opened != settled:
        mismatches.append(
            f"disposition imbalance: opened {opened} != settled {settled}")
    return {
        "ok": not mismatches,
        "slots": len(mix),
        "stats_checked": stats_checked,
        "expired": sorted(expired),
        "planned_expiries": sorted(planned),
        "migrations": migrations_seen,
        "mismatches": mismatches,
        "health": health,
    }
