"""The multiprocess query service (ISSUE 3): ordered results, the
sequential-vs-parallel identity guarantee, per-query structured
failures (bad programs, cycle budgets, wall timeouts) that never kill
the pool, and the no-heap-retention contract of service results.

Worker processes are real ``spawn`` children, so this file keeps one
small pool per test and closes it promptly."""

import time

import pytest

from repro.serve import (
    ChaosPolicy, DEFAULT_PROGRAM, QueryError, QueryService, RetryPolicy,
)
from repro.serve.chaos import ChaosPlan
from repro.serve.service import _DEADLINE_GRACE

APPEND = ("append([], L, L). "
          "append([H|T], L, [H|R]) :- append(T, L, R).")
NREV = (APPEND +
        " nrev([], []). "
        "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).")
FACTS = "colour(red). colour(green). colour(blue)."
LOOP = "loop :- loop."

PROGRAMS = {"append": APPEND, "nrev": NREV, "facts": FACTS}

BATCH = [
    ("append", "append([1, 2], [3], X)"),
    ("facts", "colour(C)"),
    ("nrev", "nrev([1, 2, 3, 4, 5], R)"),
    ("facts", "colour(C)"),
    ("append", "append(X, [z], [a, z])"),
]


def _signature(result):
    return (result.index, result.program, result.query,
            result.solutions, result.stats, result.output)


# -- in-process path ---------------------------------------------------------

def test_results_come_back_in_input_order():
    with QueryService(PROGRAMS, workers=0) as service:
        results = service.run_many(BATCH)
    assert [r.index for r in results] == list(range(len(BATCH)))
    assert [(r.program, r.query) for r in results] == BATCH
    assert all(r.ok for r in results)


def test_single_program_string_uses_default_name():
    with QueryService(FACTS, workers=0) as service:
        result = service.run("colour(C)")
    assert result.ok
    assert result.program == DEFAULT_PROGRAM
    assert len(result.solutions) == 1      # first solution only


def test_all_solutions_option():
    with QueryService(FACTS, workers=0, all_solutions=True) as service:
        assert len(service.run("colour(C)").solutions) == 3
    with QueryService(FACTS, workers=0) as service:
        assert len(service.run("colour(C)",
                               all_solutions=True).solutions) == 3


def test_unknown_program_is_a_per_slot_failure():
    with QueryService(PROGRAMS, workers=0) as service:
        results = service.run_many([
            ("append", "append([], [], X)"),
            ("no_such_program", "whatever(X)"),
            ("facts", "colour(C)"),
        ])
    assert results[0].ok and results[2].ok
    assert not results[1].ok
    assert results[1].error.kind == "UnknownProgram"


def test_compile_error_is_captured_not_raised():
    programs = dict(PROGRAMS, broken="this is not prolog ((((")
    with QueryService(programs, workers=0) as service:
        results = service.run_many([
            ("broken", "anything(X)"),
            ("facts", "colour(C)"),
        ])
    assert not results[0].ok
    assert isinstance(results[0].error, QueryError)
    assert results[0].error.message        # human-readable
    assert results[1].ok                   # the pool survived


def test_cycle_budget_is_a_per_slot_failure():
    programs = dict(PROGRAMS, loop=LOOP)
    with QueryService(programs, workers=0) as service:
        results = service.run_many([
            ("loop", "loop"),
            ("facts", "colour(C)"),
        ], max_cycles=50_000)
    assert not results[0].ok
    assert results[0].error.kind == "CycleLimitExceeded"
    assert results[0].error.cycles is not None
    assert results[1].ok


def test_float_literal_overflow_fails_its_own_slot():
    """A query literal beyond single precision fails its own slot as
    an ArithmeticError_ instead of aborting the whole batch."""
    with QueryService(PROGRAMS, workers=0) as service:
        results = service.run_many([("facts", "colour(1.0e40)"),
                                    ("facts", "colour(C)")])
    assert not results[0].ok
    assert results[0].error.kind == "ArithmeticError_"
    assert results[1].ok


def test_service_result_holds_no_machine():
    with QueryService(FACTS, workers=0) as service:
        result = service.run("colour(C)")
    assert not hasattr(result, "machine")
    assert "machine" not in vars(result)


def test_closed_service_rejects_work():
    service = QueryService(FACTS, workers=0)
    service.close()
    with pytest.raises(RuntimeError):
        service.run("colour(C)")
    service.close()                        # idempotent


# -- worker pool -------------------------------------------------------------

def test_pool_matches_sequential_bit_for_bit():
    """The acceptance cross-check: per-query solutions and simulated
    RunStats identical between workers=0 and a real pool."""
    with QueryService(PROGRAMS, workers=0) as sequential:
        expected = [_signature(r) for r in sequential.run_many(BATCH)]
    with QueryService(PROGRAMS, workers=2) as pooled:
        first = pooled.run_many(BATCH)
        second = pooled.run_many(BATCH)    # warm engines, same answers
    assert all(r.ok for r in first)
    assert [_signature(r) for r in first] == expected
    assert [_signature(r) for r in second] == expected
    assert {r.worker for r in first} <= {0, 1}


def test_pool_captures_failures_and_keeps_serving():
    programs = dict(PROGRAMS, loop=LOOP)
    with QueryService(programs, workers=1) as service:
        results = service.run_many([
            ("loop", "loop"),
            ("facts", "colour(C)"),
        ], max_cycles=50_000)
        assert results[0].error.kind == "CycleLimitExceeded"
        assert results[1].ok
        # The same worker process is still alive and serving.
        assert service.run(("facts", "colour(C)")).ok


def _never_quiet(monkeypatch, service, sender):
    """Make every collector poll also return a heartbeat from worker
    ``sender``, so no poll comes back empty, as when another worker
    keeps sending."""
    collect = service._collect_messages

    def chatty(timeout):
        return collect(timeout) + [("hb", sender, time.monotonic())]

    monkeypatch.setattr(service, "_collect_messages", chatty)


class _Wedge:
    """Chaos that wedges slot 0's first attempt outside the engine: the
    worker sleeps after the run, where no in-engine deadline check
    reaches."""

    def __init__(self, seconds):
        self.seconds = seconds

    def plan(self, index, attempt):
        return ChaosPlan(delay_result_s=(self.seconds
                                         if (index, attempt) == (0, 1)
                                         else 0.0))


def test_wall_timeout_kills_and_respawns_worker(monkeypatch):
    """A worker wedged outside the engine is killed by the parent's
    backstop, ``_DEADLINE_GRACE`` after the deadline: the slot fails
    WallTimeout and the respawned worker serves the batch-mate, also
    when every collector poll brings a message."""
    timeout_s = 0.5
    wedge = _Wedge(timeout_s + _DEADLINE_GRACE + 8.0)
    for chatty in (False, True):
        with QueryService(PROGRAMS, workers=1) as service:
            if chatty:
                _never_quiet(monkeypatch, service, sender=0)
            started = time.monotonic()
            results = service.run_many([
                ("facts", "colour(C)"),          # wedged after its run
                ("append", "append([1], [2], X)"),
            ], timeout_s=timeout_s, chaos=wedge)
            elapsed = time.monotonic() - started
            health = service.health()
        assert not results[0].ok
        assert results[0].error.kind == "WallTimeout"
        assert results[0].error.transient      # retryable host condition
        # The respawned worker served the rest of the batch.
        assert results[1].ok
        assert health.timeouts == 1 and health.respawns == 1
        assert health.deadline_abandons == 0   # killed, not abandoned
        assert elapsed < wedge.seconds         # the kill ended the wedge


def test_dead_worker_is_reaped_while_another_keeps_sending(monkeypatch):
    """A chaos-killed worker is reaped, and its slot retried, in the
    turn its pipe closes, even when every poll brings a heartbeat from
    the other worker.  A collector that reaped only after an empty
    poll left the slot in flight until the batch deadline."""
    chaos = ChaosPolicy(seed=3, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=1)
    with QueryService(PROGRAMS, workers=2) as service:
        survivor = service._processes[0].pid
        _never_quiet(monkeypatch, service, sender=0)
        result = service.run_many(
            [("nrev", f"nrev({list(range(30))}, R)")], chaos=chaos,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
            deadline_s=5.0)[0]
        health = service.health()
        # The heartbeats came from the worker that lived: the killed
        # slot ran on worker 1, the most recently idled one.
        assert service._processes[0].pid == survivor
    assert result.ok, result.error
    assert result.attempts == 2
    assert health.crashes == 1 and health.respawns == 1


def test_delivered_result_beats_expired_deadline():
    """Regression for the timeout-expiry race: a result that reached
    the parent's queue within the same poll interval as its wall
    deadline must win — the reaper drains deliveries before judging
    deadlines, so the query is never reported WallTimeout with its
    answer already in hand."""
    from collections import deque

    from repro.serve.cache import image_key
    from repro.serve.service import _BatchState

    with QueryService(PROGRAMS, workers=1) as service:
        assert service.run(("facts", "colour(C)")).ok    # warm everything
        queries = [("facts", "colour(C)")]
        results = [None]
        image = service.cache.get(FACTS, "colour(C)")
        state = _BatchState(
            queries=queries,
            prepared=[(image_key(FACTS, "colour(C)"), image)],
            opts={"all_solutions": False, "max_cycles": None,
                  "recovery": False, "checkpoint_every": None},
            timeout_s=30.0, results=results, policy=None, chaos=None,
            batch_deadline=None, runnable=deque(), idle=deque())
        service._dispatch_chunk([0], 0, state)
        # Wait for the worker's answer to be *delivered* (sitting in
        # the result pipe, not yet collected).
        patience = time.monotonic() + 15.0
        while not service._result_conns[0].poll(0):
            assert time.monotonic() < patience, "worker never answered"
            time.sleep(0.02)
        # Now expire the wall deadline out from under it and reap: the
        # seed service killed the worker and reported WallTimeout here.
        attempt, _ = state.inflight[0][0]
        # -5.0 beats the kill backstop's grace window too, so the
        # drain-before-judging order is what saves the slot, nothing
        # else.
        state.inflight[0][0] = (attempt, time.monotonic() - 5.0)
        service._reap(state)
        assert results[0] is not None
        assert results[0].ok, results[0].error
        assert service.health().timeouts == 0


# -- one execution path ------------------------------------------------------

def _observed(result):
    """Everything a caller can see of one slot, minus host timings."""
    error = result.error
    return (result.ok, error and error.kind, error and error.transient,
            result.solutions, result.stats, result.output, result.paused)


def test_in_process_worker_and_collapsed_paths_agree():
    """``workers=0``, a worker process and a collapsed pool's
    in-process fallback all run tasks through one execute function:
    per-slot answers, errors and RunStats agree, and so do the
    completed/failed counters."""
    from repro.serve import ChaosPolicy, RetryPolicy, SupervisorPolicy

    programs = dict(PROGRAMS, div="div(X, Y, Z) :- Z is X / Y.")
    services = [
        QueryService(programs, workers=0),
        QueryService(programs, workers=1),
        QueryService(programs, workers=1,
                     supervisor=SupervisorPolicy(max_respawns=0)),
    ]
    try:
        collapsed = services[2]
        collapsed.run_many(
            [("nrev", f"nrev({list(range(30))}, R)")],
            chaos=ChaosPolicy(seed=7, kill_rate=1.0,
                              kill_window=(500, 2_000),
                              max_kills_per_slot=10),
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01))
        assert collapsed.health().degraded
        seen = []
        for service in services:
            calls = []

            def call(method, batch):
                before = service.health()
                results = method(batch)
                after = service.health()
                calls.append(([_observed(result) for result in results],
                              after.completed - before.completed,
                              after.failed - before.failed))
                return results

            call(service.run_many, [("facts", "colour(C)"),
                                    ("div", "div(1, 0, Z)")])
            opened = call(service.run_steps,
                          [("facts", "colour(C)", None)])
            call(service.run_steps, [
                ("facts", "colour(C)", opened[0].session_payload),
                ("facts", "colour(C)", b"garbage-not-a-pickle"),
                ("facts", "colour(C)", None)])
            seen.append(calls)
    finally:
        for service in services:
            service.close()
    assert seen[0] == seen[1] == seen[2]
    batch, opened, stepped = seen[0]
    assert batch[0][1][:2] == (False, "ArithmeticError_")
    assert batch[0][1][4] is not None       # partial stats travel too
    assert opened[0][0][6]                  # paused at the first answer
    assert [slot[1] for slot in stepped[0]] == [
        None, "UnpicklingError", None]
    assert (stepped[1], stepped[2]) == (2, 1)
