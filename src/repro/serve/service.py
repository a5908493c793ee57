"""Multiprocess query service over warm machine pools.

``QueryService`` turns the single-shot :func:`repro.api.run_query` into
a persistent serving loop, the shape BinProlog's first-class logic
engines suggest (PAPERS.md): compile once, keep engines warm, fan
queries out.

Architecture
    The parent owns the compile-once image cache
    (:mod:`repro.serve.cache`) and ``workers`` persistent **spawn**
    processes.  Each worker runs :func:`_worker_main`: a loop over a
    private task queue, executing queries on an :class:`EnginePool` —
    one warm :class:`~repro.core.machine.Machine` per image, returned
    to power-on state between queries by
    :meth:`~repro.core.machine.Machine.reset_for_reuse`, whose
    run-after-reuse ≡ run-on-fresh guarantee is what makes results
    independent of which worker (and which machine incarnation) served
    a query.

Spawn safety and image transport
    Workers are started with the ``spawn`` method — nothing is
    inherited by fork, so the protocol must ship everything explicitly.
    Images cross the boundary pickled (builtin handlers travel as
    (name, arity) specs, rebuilt on arrival); machines are built inside
    the worker, so the unpicklable fused memory closures and dispatch
    tables never cross at all.  An image is pickled **once per
    service** and queued as ``("image", key, payload)`` on a worker's
    task queue **once per worker incarnation** (every respawn after a
    crash receives it again before its first chunk).  Only the
    collector's thread puts image, task and drop messages, so each
    worker's FIFO queue delivers an image before every chunk that names
    it and before the ``("drop", key)`` that retires it.  An
    :class:`~repro.serve.cache.ImageCache` eviction may fire on any
    thread that calls the cache; the listener only parks the key, and
    the collector applies every parked eviction at the end of each
    batch (:meth:`QueryService._apply_drops`) and :meth:`close` clears
    what is left.

One execution path
    Every query, wherever it runs, goes through :func:`_execute`: a
    worker calls it for each task of a chunk, and the parent calls it
    for ``workers=0`` and for a collapsed pool.  It returns the
    outcome tuple a worker ships over its pipe, and
    :meth:`QueryService._finish_outcome` turns that outcome into the
    slot's :class:`ServiceResult` and counters on both sides.
    :meth:`EnginePool._drive` runs every query through
    ``run_sliced``/``resume_sliced``; a run with no stops is the plain
    run.

Scheduling and ordering
    ``run_many`` dispatches **micro-batches**: up to ``batch_max``
    runnable slots sharing one image key coalesce into a single
    ``("tasks", key, [(index, attempt, opts, ckpt), ...])`` message —
    one queue hop and one image lookup amortized over the chunk — and
    each worker holds at most one chunk in flight, so a slow query
    delays only its own worker.  Workers **stream** outcomes back in
    coalesced ``("done", ...)`` messages: sub-millisecond chunk-mates
    usually return as one reply, while anything slower flushes on a
    short cadence, so completion never waits for a whole chunk.
    Results are collected into the input slot order —
    ``run_many(queries)[i]`` always answers ``queries[i]`` — and
    failures are captured per query as structured :class:`QueryError`
    records; a failed query never kills the pool.  Deadline, retry,
    quarantine and chaos semantics stay **per-query**: each task in a
    chunk carries its own attempt counter and is disposed of
    individually (see ``_lose_worker`` for how a dead worker's chunk
    is accounted).

Resilience (docs/RESILIENCE.md)
    Failures are classified transient vs permanent
    (:mod:`repro.serve.retry`); with a :class:`RetryPolicy`,
    ``run_many`` re-dispatches transiently-failed slots after
    deterministic exponential backoff.  With ``checkpoint_every``, a
    worker executes long queries in cycle slices, shipping a
    :class:`~repro.core.traps.MachineCheckpoint` to the parent at each
    boundary; a retry after a crash **resumes** the
    query on a fresh worker from its last checkpoint, bit-identical to
    an uninterrupted run.  ``max_queue_depth`` bounds admission —
    excess slots fail fast with ``QueryError(kind="Shed")`` instead of
    queueing unboundedly — ``deadline_s`` bounds the whole batch, and
    :meth:`QueryService.health` reports a :class:`ServiceHealth`
    counter snapshot.  The deterministic chaos harness
    (:mod:`repro.serve.chaos`) drives all of it under seeded worker
    kills, delivery delays and injected machine faults.

    Every resilience feature is opt-in and costs nothing in the
    machine when idle: with no retry policy, no checkpoint cadence, no
    deadline and no chaos, a sliced run has no stops, so the machine
    inner loops run exactly as in a plain run (the parallel-service
    benchmark pins this).

The collector
    :meth:`QueryService._run_pooled` serves a batch in turns.  Every
    turn respawns the workers that are due, dispatches runnable chunks
    to idle workers, collects and delivers worker messages, then reaps
    (:meth:`QueryService._reap`): a dead worker is handled in the turn
    its pipe closes, however busy the other workers are.  Every dead
    worker — crashed, killed at its deadline backstop, or found dead
    when claimed for a chunk — leaves service through
    :meth:`QueryService._recycle_worker`, which charges the supervisor,
    and comes back through :meth:`QueryService._respawn_due` on a later
    turn (at once without a supervisor, after its backoff under one).

Timeouts
    Two budgets per query: ``max_cycles`` bounds *simulated* time (the
    machine's own watchdog raises ``CycleLimitExceeded``, captured like
    any error), and ``timeout_s`` bounds *host* time.  The deadline
    ships with the task and the engine abandons the query
    cooperatively at the next check of a ``_DEADLINE_CHECK_CYCLES``
    grid — the worker survives and reports a ``WallTimeout`` failure;
    the parent kills and respawns the worker only ``_DEADLINE_GRACE``
    after the deadline, as the backstop for a worker wedged outside
    the interpreter.  A result that reaches the parent in the same turn
    as its deadline wins over the expiry: the reaper drains delivered
    messages before it judges deadlines.

Overload hardening (docs/RESILIENCE.md §7, :mod:`repro.serve.overload`)
    Per-query deadlines **propagate to workers**: the engine pool folds
    a cycle-grid stop check into ``run_sliced`` and abandons an expired
    query cooperatively (:class:`~repro.serve.overload.
    DeadlineAbandoned`), so a timeout costs the cycles to the next
    check instead of a worker kill and respawn; the parent's reaper and
    ``_expire_batch`` give in-flight workers a grace window to
    self-report before falling back to the kill.  A
    :class:`~repro.serve.overload.QuarantinePolicy` arms a per-query-key
    circuit breaker: a query whose attempts repeatedly kill workers or
    exhaust budgets is failed with ``QueryError(kind="poisoned")`` —
    immediately, on this and every later submission — instead of being
    retried forever.  A :class:`~repro.serve.overload.SupervisorPolicy`
    bounds worker respawns with exponential backoff; when every worker
    slot has exhausted its budget the pool has collapsed and the
    service turns **degraded**, draining the remaining work through the
    parent's in-process driver (still correct, no longer parallel).
    Admission control sheds by **priority class and age**
    (``run_many(..., priorities=...)``) rather than FIFO position.

``workers=0`` serves in-process through the same driver a collapsed
pool drains through (:meth:`QueryService._serve_in_process`): no
processes, no pickling of results; the parallel-service benchmark uses
it as the warm sequential baseline.  The in-process path cannot
preempt, kill or respawn anything, so its failures are final and
retry policies, admission control, quarantine strikes and chaos are
worker-pool features; ``max_cycles``, ``checkpoint_every``
(cycle-sliced execution) and — via the in-engine deadline check —
``timeout_s``/``deadline_s`` work everywhere.
"""

from __future__ import annotations

import gc
import heapq
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import multiprocessing as mp
from multiprocessing import connection as mp_connection

from repro.compiler.linker import LinkedImage
from repro.core.machine import Machine
from repro.core.statistics import RunStats
from repro.core.traps import MachineCheckpoint
from repro.errors import KCMError
from repro.serve.cache import ImageCache, default_image_cache, image_key
from repro.serve.chaos import ChaosKilled, ChaosPolicy
from repro.serve.overload import (
    POISONED, DeadlineAbandoned, QuarantineBreaker, QuarantinePolicy,
    SupervisorPolicy, WorkerSupervisor,
)
from repro.serve.retry import RetryPolicy, is_transient

#: default name a bare-string program is registered under.
DEFAULT_PROGRAM = "main"

#: how long the collector waits on the result pipes per poll when no
#: wall deadline is pending (also bounds crash detection latency).
_POLL_SECONDS = 1.0

#: seconds a worker gets to exit voluntarily on close() before being
#: terminated.
_CLOSE_GRACE = 5.0

#: exit status a chaos-killed worker dies with (distinguishable from a
#: SIGKILL'd or faulted worker in the process table; the parent treats
#: both identically as WorkerCrashed).
_CHAOS_EXIT = 13

#: cycle cadence of the in-engine deadline stop check (armed only when
#: the query carries a host deadline).
_DEADLINE_CHECK_CYCLES = 25_000

#: grace the parent gives a deadline-carrying worker to abandon the
#: query and self-report before it kills the worker (the backstop for
#: a worker wedged outside the interpreter).
_DEADLINE_GRACE = 1.5

#: default micro-batch size: how many same-image tasks may coalesce
#: into one ``("tasks", ...)`` message (and, usually, one reply).
_BATCH_MAX = 8

#: how far into the runnable queue the chunker looks for same-image
#: tasks to coalesce (bounds the per-dispatch scan on huge batches).
_COALESCE_WINDOW = 256

#: a worker flushes buffered outcomes at least this often while a
#: chunk is still producing results — short queries batch into one
#: reply, anything slower streams back as it finishes.
_STREAM_FLUSH_S = 0.05

#: minimum interval between worker liveness signals while a sliced
#: run is in progress (checkpoint / deadline-check boundaries).
_HB_INTERVAL = 0.5

#: a worker runs with the cyclic garbage collector disabled and
#: collects explicitly every this many completed tasks — collection
#: happens between micro-batches, off the query path.  The in-process
#: (workers=0) path never touches GC state: it runs in the caller's
#: interpreter, which is not ours to tune.
_GC_DEFER_TASKS = 200


@dataclass
class QueryError:
    """A structured per-query failure (the pool survives it).

    ``transient`` marks host-side failure kinds (worker death, wall
    budget, shedding — see :mod:`repro.serve.retry`) that may succeed
    if re-submitted; deterministic machine failures reproduce exactly
    and are permanent.  ``attempts`` counts how many executions the
    slot consumed before the failure became final (0: never
    dispatched).
    """

    kind: str                       # exception class name or budget kind
    message: str
    pc: Optional[int] = None        # faulting PC for machine errors
    cycles: Optional[int] = None    # simulated cycles at the failure
    transient: bool = False
    attempts: int = 1

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class ServiceHealth:
    """A point-in-time snapshot of service liveness and lifetime
    counters (:meth:`QueryService.health`)."""

    workers: int                    # configured pool size
    workers_alive: int              # processes currently alive
    queue_depth: int                # admitted-but-undispatched slots
    inflight: int                   # queries currently on workers
    degraded: bool                  # worker pool collapsed; serving
                                    # through the local fallback path
    quarantined_keys: int           # query keys with an open breaker
    respawns: int                   # worker processes restarted
    retries: int                    # transient failures re-dispatched
    resumes: int                    # retries resumed from a checkpoint
    sheds: int                      # slots refused by admission control
    timeouts: int                   # WallTimeout expiries
    crashes: int                    # WorkerCrashed detections
    completed: int                  # slots finished ok
    failed: int                     # slots finished with a final error
    checkpoints_received: int       # checkpoint payloads collected
    quarantines: int                # slots failed poisoned by the breaker
    deadline_abandons: int          # queries abandoned cooperatively
                                    # at an in-engine deadline check
    local_fallbacks: int            # slots served by the degraded-mode
                                    # in-process fallback pool
    workers_retired: int            # worker slots past their restart
                                    # budget (never respawned again)
    # Session-layer gauges and counters (zero on a bare QueryService;
    # filled in by repro.serve.session.SessionService.health()).
    active_sessions: int = 0        # open sessions holding an engine
    hibernated_engines: int = 0     # paused engines spilled to disk
    migrations: int = 0             # session steps recovered on another
                                    # worker after a mid-stream crash
    leases_expired: int = 0         # sessions reclaimed by the reaper
    #: seconds since each worker was last heard from (startup herald or
    #: any result/checkpoint message).
    heartbeat_age_s: Dict[int, float] = field(default_factory=dict)


@dataclass
class ServiceResult:
    """One query's outcome, detached from any machine or image.

    Unlike :class:`repro.api.QueryResult`, a service result never
    references a machine: a batch of 10k results retains solutions and
    statistics, not 10k simulated heaps.
    """

    index: int                      # position in the run_many batch
    program: str
    query: str
    solutions: List[dict] = field(default_factory=list)
    stats: Optional[RunStats] = None
    output: str = ""
    error: Optional[QueryError] = None
    worker: int = -1                # -1: parent (in-process or pre-run)
    host_seconds: float = 0.0       # wall time inside the engine
    #: session streaming (:meth:`QueryService.run_steps`): the engine
    #: paused at a fresh solution instead of running to exhaustion;
    #: ``session_payload`` is its pickled checkpoint, the token the
    #: next step resumes from.  ``attempts`` counts executions this
    #: step consumed (>1 means crashed attempts were recovered).
    paused: bool = False
    session_payload: Optional[bytes] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """Whether the query executed to completion."""
        return self.error is None

    @property
    def succeeded(self) -> bool:
        """Whether it completed with at least one solution."""
        return self.error is None and bool(self.solutions)


class EnginePool:
    """Warm machines keyed by image, reset between queries.

    Shared by the worker processes and the ``workers=0`` in-process
    path, so both execute queries through identical code.  The pool is
    LRU-bounded on machines; evicting a machine is always safe because
    a fresh machine over the same image produces bit-identical results
    (the warm-reuse determinism guarantee).
    """

    def __init__(self, max_machines: int = 64):
        self.max_machines = max_machines
        self._machines: "OrderedDict[str, Machine]" = OrderedDict()
        #: constructor-default cycle budget, restored before every
        #: query so a per-query ``max_cycles`` never leaks to the next.
        self._default_budget: Dict[str, int] = {}
        #: keys whose pooled machine has recovery handlers installed
        #: (reset_for_reuse keeps trap handlers, so once is enough).
        self._recovered: Set[str] = set()

    def machine_for(self, key: str, image: LinkedImage,
                    recovery: bool = False) -> Machine:
        """A power-on-state machine loaded with ``image``."""
        machine = self._machines.get(key)
        if machine is None:
            machine = Machine(symbols=image.symbols)
            image.install(machine)
            machine.image = image
            while len(self._machines) >= self.max_machines:
                evicted_key, _ = self._machines.popitem(last=False)
                self._default_budget.pop(evicted_key, None)
                self._recovered.discard(evicted_key)
            self._machines[key] = machine
            self._default_budget[key] = machine.max_cycles
        else:
            self._machines.move_to_end(key)
            machine.max_cycles = self._default_budget[key]
            machine.reset_for_reuse()
        if recovery and key not in self._recovered:
            from repro.recovery import install_default_recovery
            install_default_recovery(machine)
            self._recovered.add(key)
        return machine

    def drop(self, key: str) -> None:
        """Forget the warm machine for ``key`` (safe at any time: a
        fresh machine over the same image is bit-identical)."""
        self._machines.pop(key, None)
        self._default_budget.pop(key, None)
        self._recovered.discard(key)

    def run(self, key: str, image: LinkedImage, opts: dict,
            on_checkpoint: Optional[Callable] = None,
            resume_from: Optional[MachineCheckpoint] = None,
            on_slice: Optional[Callable[[], None]] = None,
            ) -> Tuple[Machine, RunStats, float]:
        """Execute one query; returns (machine, stats, host_seconds).

        With ``resume_from``, the query continues from a
        :class:`MachineCheckpoint` captured by an earlier (possibly
        dead) incarnation instead of starting over; with
        ``opts["checkpoint_every"]`` and an ``on_checkpoint`` callback,
        execution proceeds in cycle slices and each boundary's
        checkpoint is handed to the callback.  Raises
        whatever the run raises — the caller owns failure capture.
        """
        inject = opts.get("inject")
        machine = self.machine_for(
            key, image,
            recovery=bool(opts.get("recovery")) or inject is not None)
        if inject is not None:
            from repro.recovery import FaultInjector
            # Rebuilt from the same spec on every attempt: the schedule
            # is a pure function of its arguments, and restore() below
            # re-applies the checkpointed mid-run progress on resume.
            FaultInjector(**inject).attach(machine)
        if resume_from is not None:
            # The stub gives resume() its exit continuation (the run
            # bootstrap normally writes it); the checkpoint then
            # overwrites registers, store, timing and host state.  The
            # checkpoint's saved cycle budget is the *slice* target it
            # was captured under — restore the real budget after.
            machine._bootstrap_stub(image.entry)
            resume_from.restore(machine)
            machine.max_cycles = (opts["max_cycles"]
                                  if opts.get("max_cycles") is not None
                                  else self._default_budget[key])
        elif opts.get("max_cycles") is not None:
            machine.max_cycles = opts["max_cycles"]
        # Assigned (not just set) every run: a pooled machine must not
        # leak one query's stop-at-solution mode into the next, and a
        # restored checkpoint's captured flag must yield to the step's.
        machine.stop_on_solution = bool(opts.get("stop_on_solution"))
        return self._drive(machine, image, opts, on_checkpoint, resume_from,
                           on_slice)

    def _drive(self, machine: Machine, image: LinkedImage, opts: dict,
               on_checkpoint: Optional[Callable],
               resume_from: Optional[MachineCheckpoint],
               on_slice: Optional[Callable[[], None]] = None,
               ) -> Tuple[Machine, RunStats, float]:
        """Run (or resume) the machine in cycle slices: stops at the
        checkpoint grid, a chaos kill threshold and, when the query
        carries a host deadline, the ``_DEADLINE_CHECK_CYCLES`` grid.
        A run with none of them has no stops, which is the plain
        run."""
        every = opts.get("checkpoint_every")
        kill_at = opts.get("chaos_kill_cycles")
        deadline = opts.get("deadline_monotonic")
        started = time.perf_counter()
        # A chaos kill planned at a cycle the resumed run is already
        # past stays disarmed — otherwise a resume could die instantly
        # at its first boundary, forever.  Relative plans instead arm
        # at start + threshold: a session step deep into a stream (high
        # cumulative cycles) stays killable mid-step.
        start_cycles = machine.cycles if resume_from is not None else 0
        if kill_at is not None and opts.get("chaos_kill_relative"):
            kill_at = start_cycles + kill_at
        armed_kill = (kill_at if kill_at is not None
                      and start_cycles < kill_at else None)

        def next_stop(cycles: int) -> Optional[int]:
            targets = []
            if every is not None:
                # Cycle-aligned grid: a resumed run stops at the same
                # absolute boundaries an uninterrupted one does.
                targets.append(cycles - cycles % every + every)
            if armed_kill is not None:
                targets.append(armed_kill)
            if deadline is not None:
                targets.append(cycles - cycles % _DEADLINE_CHECK_CYCLES
                               + _DEADLINE_CHECK_CYCLES)
            return min(targets) if targets else None

        def on_stop(m: Machine) -> None:
            # Liveness first: a worker slicing a long query signals the
            # parent even when this boundary is about to raise.
            if on_slice is not None:
                on_slice()
            if armed_kill is not None and m.cycles >= armed_kill:
                raise ChaosKilled(f"chaos kill at cycle {m.cycles}")
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineAbandoned(
                    opts.get("deadline_kind", "WallTimeout"), m.cycles)
            if every is not None and on_checkpoint is not None:
                on_checkpoint(MachineCheckpoint.capture(m))

        if resume_from is None:
            stats = machine.run_sliced(
                image.entry, next_stop, on_stop,
                collect_all=opts.get("all_solutions", False),
                answer_names=image.query_variable_names)
        else:
            stats = machine.resume_sliced(next_stop, on_stop)
        return machine, stats, time.perf_counter() - started


def _capture_error(err: BaseException,
                   machine: Optional[Machine]) -> QueryError:
    if machine is not None:
        cycles = machine.cycles
    else:
        # MachineError carries the partial run statistics; compile-time
        # errors carry neither and report no cycle count.
        stats = getattr(err, "stats", None)
        cycles = stats.cycles if stats is not None else None
    kind = type(err).__name__
    return QueryError(
        kind=kind,
        message=str(err),
        pc=getattr(err, "pc", None),
        cycles=cycles,
        transient=is_transient(kind),
    )


def _execute(pool: EnginePool, key: str, image: LinkedImage, opts: dict,
             payload: Optional[bytes],
             on_checkpoint: Optional[Callable] = None,
             on_slice: Optional[Callable[[], None]] = None) -> tuple:
    """Run one task on ``pool`` and return its outcome, the tuple a
    worker ships back over its pipe:

    - ``("ok", solutions, stats, output, seconds)``;
    - ``("paused", solutions, stats, output, seconds, ckpt_payload)``
      for a stop-at-solution step with search left, the payload being
      the pickled checkpoint the next step resumes from;
    - ``("err", QueryError, partial_stats_or_None)``.

    ``payload`` is a pickled :class:`MachineCheckpoint` to resume from
    (``None``: run from the query entry).  Every failure becomes an
    ``"err"`` outcome except :class:`ChaosKilled`, which propagates: a
    worker must die of it.
    """
    machine: Optional[Machine] = None
    try:
        deadline = opts.get("deadline_monotonic")
        if deadline is not None and time.monotonic() >= deadline:
            # Expired while queued behind its chunk-mates: same
            # cooperative abandonment, zero cycles spent.
            raise DeadlineAbandoned(
                opts.get("deadline_kind", "WallTimeout"), 0)
        resume_from = pickle.loads(payload) if payload is not None else None
        machine, stats, seconds = pool.run(
            key, image, opts, on_checkpoint=on_checkpoint,
            resume_from=resume_from, on_slice=on_slice)
        delay = opts.get("chaos_delay_s")
        if delay:
            time.sleep(delay)
        result = (machine.solutions, stats, "".join(machine.output), seconds)
        if (machine.solution_paused
                and not machine.halted and not machine.exhausted):
            # Stop-at-solution: the engine paused with a fresh answer
            # and more search left.  Its checkpoint is the resume
            # token; the machine itself stays behind only as a warm
            # pool entry, so a later step may resume anywhere.
            return ("paused",) + result + (pickle.dumps(
                MachineCheckpoint.capture(machine),
                protocol=pickle.HIGHEST_PROTOCOL),)
        return ("ok",) + result
    except ChaosKilled:
        raise
    except DeadlineAbandoned as err:
        # Cooperative deadline expiry: a typed transient failure, and
        # nobody has to kill anything.
        return ("err", QueryError(kind=err.kind, message=str(err),
                                  cycles=err.cycles, transient=True), None)
    except Exception as err:
        return ("err", _capture_error(err, machine),
                getattr(err, "stats", None))


class _ResultSender:
    """Worker-side result streaming: buffer per-task outcomes and ship
    them in coalesced ``("done", ...)`` messages.

    Short queries amortize — a whole micro-batch of sub-millisecond
    tasks usually returns as one pipe message — while anything slower
    streams: :meth:`add` flushes whenever ``flush_interval_s`` has
    passed since the last send, so the parent sees results (and
    liveness) at that granularity without a per-task round-trip.
    :meth:`tick` is the sliced-run liveness hook: called at checkpoint
    and deadline-check boundaries, it flushes stale buffers and emits
    an explicit heartbeat when there is nothing else to say.  The clock
    is injectable for tests.
    """

    def __init__(self, result_conn, worker_id: int,
                 flush_interval_s: float = _STREAM_FLUSH_S,
                 hb_interval_s: float = _HB_INTERVAL,
                 clock: Callable[[], float] = time.monotonic):
        self._conn = result_conn
        self._worker_id = worker_id
        self._flush_interval = flush_interval_s
        self._hb_interval = hb_interval_s
        self._clock = clock
        self._buffer: List[tuple] = []
        self._last_send = clock()

    def send_now(self, message: tuple) -> None:
        """Ship ``message`` immediately (checkpoints, heartbeats)."""
        self._conn.send(message)
        self._last_send = self._clock()

    def heartbeat(self) -> None:
        self.send_now(("hb", self._worker_id, time.monotonic()))

    def checkpoint(self, index: int, attempt: int,
                   ckpt: MachineCheckpoint) -> None:
        """Ship a task's mid-run checkpoint immediately (a buffered one
        would be useless after a crash)."""
        self.send_now(("ckpt", self._worker_id, index, attempt,
                       pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)))

    def add(self, outcome: tuple) -> None:
        """Buffer one task outcome; flush if the stream went stale."""
        self._buffer.append(outcome)
        if self._clock() - self._last_send >= self._flush_interval:
            self.flush()

    def flush(self) -> None:
        """Ship everything buffered as one ``("done", ...)`` message."""
        if self._buffer:
            self._conn.send(("done", self._worker_id, self._buffer))
            self._buffer = []
            self._last_send = self._clock()

    def tick(self) -> None:
        """Mid-run liveness: flush or heartbeat if we have been quiet
        longer than the heartbeat interval."""
        if self._clock() - self._last_send < self._hb_interval:
            return
        if self._buffer:
            self.flush()
        else:
            self.heartbeat()


def _worker_main(worker_id: int, task_queue, result_conn,
                 max_machines: int) -> None:
    """The worker process loop (must stay a module-level function: the
    spawn start method imports this module and looks it up by name).

    Protocol, parent to worker, all on one FIFO task queue that only
    the parent's collector thread writes (so an image always arrives
    before the chunks that name it):
      ``("image", key, payload)`` — register a pickled image,
      ``("drop", key)`` — forget a registered image (cache eviction),
      ``("tasks", key, [(index, attempt, opts, ckpt_or_None), ...])``
      — execute a micro-batch of same-image queries in order,
      ``None`` — exit.
    Worker to parent (a per-worker result pipe — single writer, no
    queue feeder thread; every outcome carries the attempt number so
    replies from a superseded execution are dropped):
      ``("hb", worker_id, monotonic_ts)`` — startup herald / liveness,
      ``("ckpt", worker_id, index, attempt, payload)`` — shipped
      immediately (a buffered checkpoint would be useless after a
      crash),
      ``("done", worker_id, [(index, attempt, *outcome), ...])`` —
      streamed batches of task outcomes as :func:`_execute` returns
      them.

    The worker defers cyclic garbage collection: the collector is
    disabled at startup and run explicitly between micro-batches every
    ``_GC_DEFER_TASKS`` tasks — a dedicated serving process can move
    GC pauses off the query path, which an in-process library call
    (workers=0 shares the caller's interpreter) must not do.

    A chaos-killed worker (:class:`ChaosKilled` from its plan's cycle
    threshold) flushes buffered outcomes and checkpoints — completed
    work already handed to IPC must survive; the crash model is death
    *between* IPC writes, not a torn write — then dies via
    ``os._exit`` so the parent observes a dead process mid-chunk: the
    flushed tasks stand, the rest fail ``WorkerCrashed`` and retry.
    """
    images: Dict[str, LinkedImage] = {}
    pool = EnginePool(max_machines=max_machines)
    sender = _ResultSender(result_conn, worker_id)
    sender.heartbeat()
    gc.disable()
    tasks_since_collect = 0
    while True:
        message = task_queue.get()
        if message is None:
            sender.flush()
            return
        kind = message[0]
        if kind == "image":
            _, key, payload = message
            images[key] = pickle.loads(payload)
            continue
        if kind == "drop":
            _, key = message
            images.pop(key, None)
            pool.drop(key)
            continue
        _, key, tasks = message
        image = images[key]
        try:
            for index, attempt, opts, payload in tasks:
                sender.add((index, attempt) + _execute(
                    pool, key, image, opts, payload,
                    partial(sender.checkpoint, index, attempt),
                    sender.tick))
        except ChaosKilled:
            sender.flush()
            result_conn.close()
            os._exit(_CHAOS_EXIT)
        sender.flush()
        tasks_since_collect += len(tasks)
        if tasks_since_collect >= _GC_DEFER_TASKS:
            gc.collect()
            tasks_since_collect = 0


#: a query is a bare string (against the default program) or an
#: explicit (program_name, query_text) pair.
Query = Union[str, Tuple[str, str]]


@dataclass
class _BatchState:
    """Everything one batch tracks, on the worker pool or in-process.

    A dispatch resumes a slot from its last checkpoint, else from its
    base payload, else runs it from the query entry.
    """

    queries: Sequence
    prepared: List
    opts: dict
    timeout_s: Optional[float]
    results: List
    policy: Optional[RetryPolicy]
    chaos: Optional[ChaosPolicy]
    batch_deadline: Optional[float]
    runnable: deque
    idle: deque
    #: worker_id -> {slot index: (attempt, host deadline)}.  One entry
    #: per worker holds its whole in-flight micro-batch; tasks leave
    #: the inner dict as their outcomes stream back.  Insertion order
    #: is chunk order, so the first remaining entry is the task the
    #: worker is currently running (the ones behind it are queued).
    inflight: Dict[int, Dict[int, Tuple[int, Optional[float]]]] = \
        field(default_factory=dict)
    #: min-heap of (ready time, worker_id) awaiting a respawn (ready at
    #: once without a supervisor, after its backoff under one)
    respawn_ready: List[Tuple[float, int]] = field(default_factory=list)
    #: slot index -> executions started so far
    attempts: Dict[int, int] = field(default_factory=dict)
    #: slot index -> latest checkpoint payload from the live attempt
    #: (kept when the attempt is lost, so its retry resumes from it)
    checkpoints: Dict[int, bytes] = field(default_factory=dict)
    #: slot index -> the payload the slot *started* from (session
    #: steps).  A retry with no mid-run checkpoint must fall back to
    #: this, never to a from-scratch run: restarting a mid-session
    #: step from the query entry would re-find solution #1.
    base_payload: Dict[int, bytes] = field(default_factory=dict)
    #: min-heap of (ready time, slot index) awaiting retry backoff
    retry_ready: List[Tuple[float, int]] = field(default_factory=list)

    def payload_for(self, index: int) -> Optional[bytes]:
        """The payload slot ``index``'s next attempt resumes from."""
        return self.checkpoints.get(index, self.base_payload.get(index))


class QueryService:
    """A warm, optionally multiprocess query server for fixed programs.

    ``program`` is one source text (registered as ``"main"``) or a
    ``{name: source}`` mapping.  ``workers=0`` serves in-process on one
    engine pool; ``workers>=1`` starts that many persistent spawn
    workers.  Use as a context manager, or call :meth:`close`.

    Resilience knobs (all opt-in, see the module docstring):
    ``retry`` (a :class:`~repro.serve.retry.RetryPolicy`),
    ``checkpoint_every`` (cycles between checkpoints of long queries),
    ``max_queue_depth`` (admission bound beyond the worker count), and
    ``chaos`` (a :class:`~repro.serve.chaos.ChaosPolicy`, tests/CI
    only).  Each has a per-batch override on :meth:`run_many`.

    Overload knobs (:mod:`repro.serve.overload`): ``quarantine`` arms
    the poison-query circuit breaker, and ``supervisor`` bounds worker
    respawns (exhausting every budget degrades the service to the
    in-process fallback path).  A query that carries a deadline is
    always watched inside the engine; the parent kills its worker only
    as a backstop.
    """

    def __init__(self, program: Union[str, Dict[str, str]],
                 workers: int = 0,
                 io_mode: str = "stub",
                 all_solutions: bool = False,
                 max_cycles: Optional[int] = None,
                 recovery: bool = False,
                 cache: Optional[ImageCache] = None,
                 max_machines: int = 64,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_every: Optional[int] = None,
                 max_queue_depth: Optional[int] = None,
                 chaos: Optional[ChaosPolicy] = None,
                 quarantine: Optional[QuarantinePolicy] = None,
                 supervisor: Optional[SupervisorPolicy] = None,
                 batch_max: int = _BATCH_MAX):
        if isinstance(program, str):
            self.programs = {DEFAULT_PROGRAM: program}
        else:
            if not program:
                raise ValueError("no programs given")
            self.programs = dict(program)
        self.default_program = next(iter(self.programs))
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.workers = workers
        self.batch_max = batch_max
        self.io_mode = io_mode
        self.all_solutions = all_solutions
        self.max_cycles = max_cycles
        self.recovery = recovery
        self.max_machines = max_machines
        self.retry = retry
        self.checkpoint_every = checkpoint_every
        self.max_queue_depth = max_queue_depth
        self.chaos = chaos
        self.quarantine = quarantine
        self.cache = cache if cache is not None else default_image_cache()

        self._closed = False
        #: the parent's own engine pool: all of a ``workers=0`` service's
        #: work, or what a collapsed pool drains through.
        self._local_pool: Optional[EnginePool] = None
        self._degraded = False
        self._breaker = (QuarantineBreaker(quarantine)
                         if quarantine is not None else None)
        self._supervisor = (WorkerSupervisor(supervisor)
                            if supervisor is not None else None)
        #: key -> the image pickled once per service, queued to each
        #: worker incarnation that needs it (``_shipped``).
        self._payloads: Dict[str, bytes] = {}
        #: keys the cache evicted, parked by the listener (on whatever
        #: thread called the cache) until the collector applies them.
        self._pending_drops: Set[str] = set()
        self._drops_lock = threading.Lock()
        self._eviction_listener: Optional[Callable[[str], None]] = None
        self._context = mp.get_context("spawn")
        #: per-worker result pipes (receive ends).  One single-writer
        #: pipe per worker instead of one shared queue: no feeder
        #: threads on the result path, and a dead worker announces
        #: itself instantly as EOF instead of waiting out a liveness
        #: poll.
        self._result_conns: List = [None] * workers
        self._task_queues: List = [None] * workers
        self._processes: List = [None] * workers
        self._shipped: List[set] = [set() for _ in range(workers)]
        #: image key of each worker's last dispatched chunk, for the
        #: hot-worker affinity pick in :meth:`_claim_worker`.
        self._worker_last_key: Dict[int, str] = {}
        self._batch: Optional[_BatchState] = None
        self._last_seen: Dict[int, float] = {}
        self._counters: Dict[str, int] = {
            "respawns": 0, "retries": 0, "resumes": 0, "sheds": 0,
            "timeouts": 0, "crashes": 0, "completed": 0, "failed": 0,
            "checkpoints_received": 0, "quarantines": 0,
            "deadline_abandons": 0, "local_fallbacks": 0,
            "workers_retired": 0,
        }
        if workers:
            for worker_id in range(workers):
                self._spawn_worker(worker_id)
            # Keep the parent's derived per-key state (payloads and
            # worker shipped-image records) in step with the cache.
            # The listener holds the service only weakly: the
            # process-global cache outlives any one service, and a
            # strong reference from it would keep a dropped service —
            # and its worker processes — alive forever.
            self_ref = weakref.ref(self)

            def _on_evict(key: str, _ref=self_ref) -> None:
                service = _ref()
                if service is not None:
                    service._on_cache_eviction(key)

            self._eviction_listener = _on_evict
            self.cache.add_eviction_listener(_on_evict)

    # -- lifecycle -------------------------------------------------------------

    def _spawn_worker(self, worker_id: int) -> None:
        """Start worker ``worker_id``'s process with a fresh task queue,
        result pipe (the old ones may hold undelivered messages) and
        shipped-images record."""
        task_queue = self._context.Queue()
        receive_conn, send_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, task_queue, send_conn,
                  self.max_machines),
            daemon=True,
            name=f"kcm-query-worker-{worker_id}")
        if self._result_conns[worker_id] is not None:
            try:
                self._result_conns[worker_id].close()
            except Exception:
                pass
        self._task_queues[worker_id] = task_queue
        self._result_conns[worker_id] = receive_conn
        self._processes[worker_id] = process
        self._shipped[worker_id] = set()
        self._worker_last_key.pop(worker_id, None)
        process.start()
        # Close the parent's copy of the send end so the receive end
        # reaches EOF the instant the worker dies.
        send_conn.close()

    def _recycle_worker(self, worker_id: int, state: _BatchState) -> None:
        """Worker ``worker_id`` is gone (crashed, killed for an overrun,
        or found dead when claimed): charge its supervisor, reap the
        process, then retire the slot when its restart budget is spent
        or schedule its respawn — at once without a supervisor, after
        a deterministic backoff under one."""
        delay = (self._supervisor.on_death(worker_id)
                 if self._supervisor is not None else 0.0)
        process = self._processes[worker_id]
        if process.is_alive():
            process.terminate()
        process.join(timeout=_CLOSE_GRACE)
        if delay is None:
            self._counters["workers_retired"] += 1
            return
        heapq.heappush(state.respawn_ready,
                       (time.monotonic() + delay, worker_id))

    def _respawn_due(self, state: _BatchState,
                     now: Optional[float] = None) -> None:
        """Spawn every worker whose respawn is due at ``now`` — or, at
        batch end (``now=None``), every one still waiting: the backoff
        paces respawns within a batch, and the next batch deserves its
        full pool.  A respawned worker joins the idle stack."""
        ready = state.respawn_ready
        while ready and (now is None or ready[0][0] <= now):
            _, worker_id = heapq.heappop(ready)
            self._counters["respawns"] += 1
            self._spawn_worker(worker_id)
            state.idle.append(worker_id)

    def close(self) -> None:
        """Stop every worker and release the pools.

        Idempotent, and safe to call from ``__del__`` during
        interpreter shutdown: queue and process teardown failures
        (half-torn-down multiprocessing state, closed pipes) are
        swallowed — close never raises.
        """
        if getattr(self, "_closed", True):
            # Also covers __del__ after a failed __init__ (validation
            # raised before _closed was assigned).
            return
        self._closed = True
        listener = getattr(self, "_eviction_listener", None)
        if listener is not None:
            try:
                self.cache.remove_eviction_listener(listener)
            except Exception:
                pass
            self._eviction_listener = None
        for task_queue in self._task_queues:
            try:
                task_queue.put_nowait(None)
            except Exception:
                pass
        try:
            # Drain the result pipes *while* joining: a worker with a
            # backlog of undelivered results blocks at exit in
            # ``Connection.send`` until the pipe empties, so a plain
            # join would always burn the grace window and fall through
            # to terminate().  Draining lets it flush, see the
            # sentinel, and exit cleanly.
            deadline = time.monotonic() + _CLOSE_GRACE
            pending = list(self._processes)
            while pending and time.monotonic() < deadline:
                for conn in self._result_conns:
                    try:
                        while (conn is not None and not conn.closed
                               and conn.poll(0)):
                            conn.recv()
                    except Exception:
                        pass
                still_alive = []
                for process in pending:
                    try:
                        process.join(timeout=0.05)
                        if process.is_alive():
                            still_alive.append(process)
                    except Exception:
                        pass
                pending = still_alive
            for process in pending:
                try:
                    process.terminate()
                    process.join(timeout=_CLOSE_GRACE)
                except Exception:
                    pass
            # Stop every queue's feeder thread now: a live one keeps
            # the queue's semaphores registered with the resource
            # tracker past close().  A worker that did not exit cleanly
            # may have left messages unread, which the feeder could
            # block on forever, so its queue is not waited for.
            for process, task_queue in zip(self._processes,
                                           self._task_queues):
                if process.exitcode != 0:
                    task_queue.cancel_join_thread()
                task_queue.close()
                task_queue.join_thread()
        except Exception:
            pass
        for conn in self._result_conns:
            try:
                conn.close()
            except Exception:
                pass
        self._payloads = {}
        self._pending_drops = set()
        self._processes = []
        self._task_queues = []
        self._result_conns = []
        self._shipped = []
        self._worker_last_key = {}
        self._local_pool = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- health ----------------------------------------------------------------

    def health(self) -> ServiceHealth:
        """Liveness plus lifetime counters (cheap; callable any time,
        including between batches and after :meth:`close`)."""
        now = time.monotonic()
        state = self._batch
        return ServiceHealth(
            workers=self.workers,
            workers_alive=sum(1 for process in self._processes
                              if process.is_alive()),
            queue_depth=(len(state.runnable) + len(state.retry_ready)
                         if state is not None else 0),
            inflight=(sum(len(entries)
                          for entries in state.inflight.values())
                      if state is not None else 0),
            degraded=self._degraded,
            quarantined_keys=(len(self._breaker.open_keys)
                              if self._breaker is not None else 0),
            heartbeat_age_s={worker_id: now - seen
                             for worker_id, seen in self._last_seen.items()},
            **self._counters)

    # -- the batched API -------------------------------------------------------

    def run(self, query: Query, **options) -> ServiceResult:
        """One query through the batched path."""
        return self.run_many([query], **options)[0]

    def run_many(self, queries: Sequence[Query],
                 all_solutions: Optional[bool] = None,
                 max_cycles: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 checkpoint_every: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 chaos: Optional[ChaosPolicy] = None,
                 priorities: Optional[Sequence[int]] = None,
                 ) -> List[ServiceResult]:
        """Execute a batch; returns one :class:`ServiceResult` per query
        in input order, failures captured per slot.

        ``timeout_s`` is the per-query host wall budget; ``deadline_s``
        bounds the whole batch — slots not finished when it passes fail
        with ``DeadlineExceeded``.  Both travel into the engines as
        cooperative stop checks on a cycle grid, so they work on worker
        pools *and* the in-process path; on a worker pool the parent
        kills a worker that has not reported ``_DEADLINE_GRACE`` after
        the deadline.  ``retry``, ``checkpoint_every`` and ``chaos``
        override the service-level defaults for this batch.

        ``priorities`` assigns each slot a priority class (smaller is
        more important, default 0).  Admission control sheds by
        (priority, age): when the batch exceeds capacity, the
        lowest-priority youngest slots go first — never FIFO tail
        position — and dispatch order favours important slots, while
        results stay in input order.
        """
        return self._run_batch(
            queries, {"all_solutions": self.all_solutions
                      if all_solutions is None else all_solutions},
            max_cycles, timeout_s, retry, checkpoint_every, chaos,
            deadline_s=deadline_s, priorities=priorities)

    def _run_batch(self, queries: Sequence[Query], opts: dict,
                   max_cycles: Optional[int], timeout_s: Optional[float],
                   retry: Optional[RetryPolicy],
                   checkpoint_every: Optional[int],
                   chaos: Optional[ChaosPolicy],
                   deadline_s: Optional[float] = None,
                   priorities: Optional[Sequence[int]] = None,
                   payloads: Optional[Dict[int, bytes]] = None,
                   ) -> List[ServiceResult]:
        """The batch runner behind :meth:`run_many` and
        :meth:`run_steps`: compile, reject quarantined slots, admit,
        then serve on the worker pool or in-process.  Session steps
        (``payloads`` given, slot index to resume token) skip admission
        control: a session is admitted once, when it opens."""
        if self._closed:
            raise RuntimeError("service is closed")
        if priorities is not None and len(priorities) != len(queries):
            raise ValueError("priorities must match queries 1:1")
        opts = dict(opts,
                    max_cycles=(self.max_cycles if max_cycles is None
                                else max_cycles),
                    recovery=self.recovery,
                    checkpoint_every=(self.checkpoint_every
                                      if checkpoint_every is None
                                      else checkpoint_every))
        results, prepared, runnable = self._prepare(queries)
        state = _BatchState(
            queries=queries, prepared=prepared, opts=opts,
            timeout_s=timeout_s, results=results,
            policy=retry if retry is not None else self.retry,
            chaos=chaos if chaos is not None else self.chaos,
            batch_deadline=(time.monotonic() + deadline_s
                            if deadline_s is not None else None),
            runnable=runnable, idle=deque())
        self._reject_quarantined(state)
        if payloads is None:
            self._admit(state, priorities)
        else:
            state.base_payload.update(payloads)
        if self.workers:
            self._run_pooled(state)
        else:
            self._serve_in_process(state)
        missing = [index for index, result in enumerate(results)
                   if result is None]
        if missing:
            raise RuntimeError(
                f"internal error: batch slots {missing} were never filled")
        return results  # type: ignore[return-value]  # every slot filled

    def _prepare(self, queries: Sequence[Query]):
        """Compile every slot in the parent (once per distinct
        program/query pair, so a batch of N identical queries costs one
        compile no matter how many workers serve it); unknown programs
        and compile failures finalise immediately."""
        results: List[Optional[ServiceResult]] = [None] * len(queries)
        prepared: List[Optional[Tuple[str, LinkedImage]]] = []
        for index, query in enumerate(queries):
            name, text = self._normalize(query)
            try:
                source = self.programs[name]
            except KeyError:
                results[index] = ServiceResult(
                    index=index, program=name, query=text,
                    error=QueryError("UnknownProgram",
                                     f"no program registered as {name!r}"))
                prepared.append(None)
                continue
            try:
                image = self.cache.get(source, text, io_mode=self.io_mode)
            except KCMError as err:
                results[index] = ServiceResult(
                    index=index, program=name, query=text,
                    error=_capture_error(err, None))
                prepared.append(None)
                continue
            prepared.append((image_key(source, text, self.io_mode), image))
        runnable = deque(index for index, item in enumerate(prepared)
                         if item is not None)
        return results, prepared, runnable

    # -- the session-step API --------------------------------------------------

    def run_steps(self, steps: Sequence[Tuple[str, str, Optional[bytes]]],
                  timeout_s: Optional[float] = None,
                  retry: Optional[RetryPolicy] = None,
                  checkpoint_every: Optional[int] = None,
                  chaos: Optional[ChaosPolicy] = None,
                  max_cycles: Optional[int] = None,
                  ) -> List[ServiceResult]:
        """Advance a batch of session steps one solution each.

        Each step is ``(program, query, payload)``: ``payload=None``
        opens the stream (the query runs from entry), a payload from an
        earlier step's ``session_payload`` resumes its search.  Every
        step runs in stop-at-solution mode — the engine pauses at each
        fresh answer instead of running to exhaustion — and its result
        reports ``paused=True`` plus the next resume token, or
        ``paused=False`` when the search finished (the final
        solutions/stats are those of the equivalent uninterrupted
        all-solutions run, bit-identically).

        Rides the full :meth:`run_many` data plane: micro-batching,
        retry-with-resume (a crashed step resumes from its last mid-run
        checkpoint, or from the payload it started from — never from
        scratch), quarantine, chaos, degraded fallback.  This is the
        primitive :class:`repro.serve.session.SessionService` builds
        ``next_solution`` on.
        """
        return self._run_batch(
            [(name, text) for name, text, _ in steps],
            {"all_solutions": True, "stop_on_solution": True},
            max_cycles, timeout_s, retry, checkpoint_every, chaos,
            payloads={index: payload
                      for index, (_, _, payload) in enumerate(steps)
                      if payload is not None})

    def _reject_quarantined(self, state: _BatchState) -> None:
        """Fail every slot whose query key has an open poison breaker
        — before admission, so a quarantined query cannot consume
        capacity another query could have used."""
        if self._breaker is None:
            return
        admitted = deque()
        for index in state.runnable:
            if not self._breaker.quarantined(state.prepared[index][0]):
                admitted.append(index)
                continue
            self._counters["quarantines"] += 1
            self._settle(state, index, "failed", error=QueryError(
                POISONED,
                f"query key quarantined after "
                f"{self.quarantine.threshold} worker-killing or "
                f"budget-exhausting attempts; rejected without "
                f"dispatch", attempts=0))
        state.runnable = admitted

    def _admit(self, state: _BatchState,
               priorities: Optional[Sequence[int]] = None) -> None:
        """Admission control: bound the queue beyond worker capacity,
        shedding by priority class and age.

        Runnable slots are ordered by ``(priority, input position)`` —
        input position is submission age within the batch, oldest
        first.  With ``max_queue_depth`` set, the first
        ``workers + max_queue_depth`` of that order are admitted and
        the rest shed immediately with a transient ``Shed`` error: the
        cheapest-to-lose work (lowest priority, youngest) goes first,
        and the caller sees backpressure now instead of unbounded
        latency later.  The priority order also becomes dispatch
        order, so important slots reach workers first; results stay in
        input order regardless.
        """
        if priorities is not None:
            state.runnable = deque(sorted(state.runnable,
                                          key=lambda i: (priorities[i], i)))
        if not self.workers or self.max_queue_depth is None:
            return
        capacity = self.workers + self.max_queue_depth
        ranked = list(state.runnable)
        state.runnable = deque(ranked[:capacity])
        for position, index in enumerate(ranked[capacity:], capacity):
            priority = priorities[index] if priorities is not None else 0
            self._settle(state, index, "sheds", error=QueryError(
                "Shed",
                f"admission control: priority-{priority} slot ranked "
                f"{position} by (priority, age) exceeds capacity "
                f"{capacity} "
                f"({self.workers} workers + {self.max_queue_depth} queued)",
                transient=True, attempts=0))

    def _normalize(self, query: Query) -> Tuple[str, str]:
        if isinstance(query, str):
            return self.default_program, query
        name, text = query
        return name, text

    def _settle(self, state: _BatchState, index: int, counter: str,
                **fields) -> None:
        """Give slot ``index`` its final result, counted under
        ``counter``."""
        self._counters[counter] += 1
        name, text = self._normalize(state.queries[index])
        state.results[index] = ServiceResult(
            index=index, program=name, query=text, **fields)

    def _finish_outcome(self, index: int, attempt: int, outcome: tuple,
                        state: _BatchState, worker_id: int = -1) -> None:
        """Turn one :func:`_execute` outcome into slot ``index``'s
        result and counters.  A failure on a worker goes through
        :meth:`_dispose_failure` (quarantine, retry); an in-process
        failure (``worker_id`` -1) is final."""
        state.checkpoints.pop(index, None)
        status = outcome[0]
        if status != "err":
            solutions, stats, output, seconds = outcome[1:5]
            self._settle(
                state, index, "completed", solutions=solutions,
                stats=stats, output=output, worker=worker_id,
                host_seconds=seconds, paused=(status == "paused"),
                session_payload=(outcome[5] if status == "paused"
                                 else None),
                attempts=attempt)
            return
        _, error, partial_stats = outcome
        # Machine and compile failures are deterministic and permanent;
        # a deadline abandonment (WallTimeout/DeadlineExceeded) is a
        # transient host event — same disposition as a parent-side
        # expiry, minus the kill and respawn.
        error.attempts = attempt
        if error.kind in ("WallTimeout", "DeadlineExceeded"):
            self._counters["deadline_abandons"] += 1
            if error.kind == "WallTimeout":
                self._counters["timeouts"] += 1
        if worker_id < 0:
            self._settle(state, index, "failed", stats=partial_stats,
                         error=error)
        else:
            self._dispose_failure(index, attempt, error, state,
                                  worker_id=worker_id,
                                  partial_stats=partial_stats)

    # -- in-process serving ----------------------------------------------------

    @staticmethod
    def _deadline_opts(opts: dict, timeout_s: Optional[float],
                       batch_deadline: Optional[float],
                       ) -> Tuple[dict, Optional[float]]:
        """Task options with the effective deadline folded in.

        Returns ``(opts, deadline)``: the tighter of the per-query and
        batch deadlines, tagged with the error kind it should expire
        as, for the engine to watch.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        kind = "WallTimeout"
        if batch_deadline is not None and (deadline is None
                                           or batch_deadline <= deadline):
            deadline = batch_deadline
            kind = "DeadlineExceeded"
        if deadline is None:
            return opts, None
        return dict(opts, deadline_monotonic=deadline,
                    deadline_kind=kind), deadline

    def _serve_in_process(self, state: _BatchState) -> None:
        """Serve every pending slot of the batch, in order, on the
        parent's own engine pool.

        This is all of a ``workers=0`` service's work, and where a
        collapsed worker pool (every slot retired) drains the rest of
        its batches: the service turns degraded and counts each slot
        in ``local_fallbacks``.  Still correct — the warm-reuse
        determinism guarantee makes a parent-side machine produce
        bit-identical results — just not parallel, not preemptable and
        not chaos-ridden (chaos models worker death).  A slot resumes
        from its last shipped checkpoint, else from its step payload.
        Failures here are final: no retry, no quarantine strike.
        """
        if self.workers:
            self._degraded = True
        if self._local_pool is None:
            self._local_pool = EnginePool(max_machines=self.max_machines)
        for index in self._take_pending(state):
            if (state.batch_deadline is not None
                    and time.monotonic() >= state.batch_deadline):
                self._expire_slot(state, index)
                continue
            attempt = state.attempts.get(index, 0) + 1
            state.attempts[index] = attempt
            if self.workers:
                self._counters["local_fallbacks"] += 1
            opts, _ = self._deadline_opts(
                state.opts, state.timeout_s, state.batch_deadline)
            key, image = state.prepared[index]
            self._finish_outcome(index, attempt, _execute(
                self._local_pool, key, image, opts,
                state.payload_for(index)), state)

    @staticmethod
    def _take_pending(state: _BatchState) -> List[int]:
        """Empty the runnable queue and the retry heap; returns their
        slots, runnable ones first, then retries in ready order."""
        pending = list(state.runnable)
        pending.extend(index for _, index in sorted(state.retry_ready))
        state.runnable.clear()
        state.retry_ready.clear()
        return pending

    def _expire_slot(self, state: _BatchState, index: int) -> None:
        """Fail a slot whose batch deadline passed before dispatch."""
        self._settle(state, index, "failed", error=QueryError(
            "DeadlineExceeded",
            "batch deadline passed before the query was dispatched",
            transient=True, attempts=state.attempts.get(index, 0)))

    # -- pooled serving --------------------------------------------------------

    def _ship_image(self, worker_id: int, key: str,
                    image: LinkedImage) -> None:
        """Queue ``key``'s image to ``worker_id`` unless this worker
        incarnation already holds it.  The image is pickled once per
        service; the chunk queued after it on the same FIFO queue
        always finds it registered."""
        if key in self._shipped[worker_id]:
            return
        payload = self._payloads.get(key)
        if payload is None:
            payload = pickle.dumps(image, protocol=pickle.HIGHEST_PROTOCOL)
            self._payloads[key] = payload
        self._task_queues[worker_id].put(("image", key, payload))
        self._shipped[worker_id].add(key)

    def _on_cache_eviction(self, key: str) -> None:
        """The :class:`ImageCache` dropped ``key``.  This may run on any
        thread that calls the cache, so it only parks the key: the
        collector's thread applies it (:meth:`_apply_drops`) at the end
        of the batch that saw it, or of the next batch, and
        :meth:`close` discards what is left."""
        if self._closed:
            return
        with self._drops_lock:
            self._pending_drops.add(key)

    def _apply_drops(self) -> None:
        """Apply every parked eviction on the collector's thread: forget
        the key's pickle and shipped records, and queue ``("drop",
        key)`` to each live worker that holds it, behind every image
        and chunk already queued to that worker."""
        with self._drops_lock:
            keys, self._pending_drops = self._pending_drops, set()
        for key in keys:
            self._payloads.pop(key, None)
            for worker_id, shipped in enumerate(self._shipped):
                if key not in shipped:
                    continue
                shipped.discard(key)
                if self._processes[worker_id].is_alive():
                    self._task_queues[worker_id].put(("drop", key))

    def _run_pooled(self, state: _BatchState) -> None:
        """The collector: serve the batch on the worker pool in turns.

        Every turn respawns the workers that are due, dispatches
        runnable chunks to idle workers, collects and delivers worker
        messages, then reaps, so a dead or overdue worker is handled
        in the turn its pipe closes or its deadline passes, however
        busy the other workers are.
        """
        supervisor = self._supervisor
        state.idle.extend(worker_id for worker_id in range(self.workers)
                          if supervisor is None
                          or not supervisor.retired(worker_id))
        self._batch = state
        try:
            while state.runnable or state.retry_ready or state.inflight:
                now = time.monotonic()
                if (state.batch_deadline is not None
                        and now >= state.batch_deadline):
                    self._expire_batch(state)
                    break
                self._respawn_due(state, now)
                while state.retry_ready and state.retry_ready[0][0] <= now:
                    _, index = heapq.heappop(state.retry_ready)
                    state.runnable.append(index)
                while state.runnable and state.idle:
                    chunk = self._next_chunk(state)
                    worker_id = self._claim_worker(
                        state, state.prepared[chunk[0]][0])
                    if self._processes[worker_id].is_alive():
                        self._dispatch_chunk(chunk, worker_id, state)
                        continue
                    # Died while idle (a chaos exit racing its last
                    # result): it comes back on a later turn.
                    state.runnable.extendleft(reversed(chunk))
                    self._recycle_worker(worker_id, state)
                if (not state.inflight and not state.idle
                        and not state.respawn_ready
                        and (state.runnable or state.retry_ready)):
                    # Every worker slot is retired and nothing is in
                    # flight: the pool has collapsed.  Serve the rest
                    # of the batch in-process.
                    self._serve_in_process(state)
                    break
                for message in self._collect_messages(
                        self._wait_interval(state)):
                    self._deliver(message, state)
                self._reap(state)
        finally:
            self._respawn_due(state)
            self._batch = None
            self._apply_drops()

    def _wait_interval(self, state: _BatchState) -> float:
        """How long the collector may block before something (a kill
        backstop, a retry or respawn becoming ready, the batch
        deadline) needs attention."""
        wait = _POLL_SECONDS
        now = time.monotonic()
        for entries in state.inflight.values():
            for _, deadline in entries.values():
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline + _DEADLINE_GRACE
                                         - now) + 0.01)
        if state.retry_ready:
            wait = min(wait, max(0.0, state.retry_ready[0][0] - now) + 0.01)
        if state.respawn_ready:
            wait = min(wait,
                       max(0.0, state.respawn_ready[0][0] - now) + 0.01)
        if state.batch_deadline is not None:
            wait = min(wait,
                       max(0.0, state.batch_deadline - now) + 0.01)
        return wait

    def _claim_worker(self, state: _BatchState, key: str) -> int:
        """Pick an idle worker for a chunk keyed ``key``.

        Prefers the most recently idled worker whose last chunk used
        the same image (its :class:`EnginePool` already holds warm
        machines for the key), then the most recently idled worker
        outright.  Hot-worker (LIFO) reuse keeps a lightly loaded
        pool's working set on as few processes as possible — the spare
        workers stay parked instead of rotating through the CPU caches
        — while a saturated pool still engages every worker, because
        the idle stack drains whenever chunks outnumber idlers.
        """
        idle = state.idle
        for position in range(len(idle) - 1, -1, -1):
            if self._worker_last_key.get(idle[position]) == key:
                worker_id = idle[position]
                del idle[position]
                return worker_id
        return idle.pop()

    def _next_chunk(self, state: _BatchState) -> List[int]:
        """Pop the head of the runnable queue plus up to
        ``batch_max - 1`` more slots sharing its image key.

        Only same-key slots coalesce — a chunk is one image, one
        quarantine key, one shipped payload — and the scan is bounded
        by ``_COALESCE_WINDOW`` so dispatch stays O(window) on huge
        batches.  Skipped (different-key) slots return to the front of
        the queue in their original order, so they dispatch to the
        next idle worker; a skipped slot is delayed by at most one
        chunk, which priority ordering tolerates.
        """
        head = state.runnable.popleft()
        chunk = [head]
        if self.batch_max <= 1 or not state.runnable:
            return chunk
        key = state.prepared[head][0]
        skipped: List[int] = []
        scanned = 0
        while (state.runnable and len(chunk) < self.batch_max
               and scanned < _COALESCE_WINDOW):
            index = state.runnable.popleft()
            scanned += 1
            if state.prepared[index][0] == key:
                chunk.append(index)
            else:
                skipped.append(index)
        state.runnable.extendleft(reversed(skipped))
        return chunk

    def _dispatch_chunk(self, indices: List[int], worker_id: int,
                        state: _BatchState) -> None:
        """Hand a micro-batch of same-image slots to ``worker_id`` as
        one ``("tasks", ...)`` message.

        The chunk shares one host deadline, computed here: a per-query
        wall budget starts at dispatch, and a task that expires while
        queued behind its chunk-mates is abandoned by the worker's
        pre-run check without spending a cycle.
        """
        key, image = state.prepared[indices[0]]
        self._ship_image(worker_id, key, image)
        base_opts, deadline = self._deadline_opts(
            state.opts, state.timeout_s, state.batch_deadline)
        tasks = []
        entries: Dict[int, Tuple[int, Optional[float]]] = {}
        for index in indices:
            attempt = state.attempts.get(index, 0) + 1
            state.attempts[index] = attempt
            opts = base_opts
            if state.chaos is not None:
                opts = state.chaos.plan(index, attempt).apply(opts)
            tasks.append((index, attempt, opts, state.payload_for(index)))
            entries[index] = (attempt, deadline)
        self._task_queues[worker_id].put(("tasks", key, tasks))
        self._worker_last_key[worker_id] = key
        state.inflight[worker_id] = entries

    def _deliver(self, message, state: _BatchState) -> None:
        """Apply one worker message to the batch state."""
        kind, worker_id = message[0], message[1]
        self._last_seen[worker_id] = time.monotonic()
        if kind == "hb":
            return
        entries = state.inflight.get(worker_id)
        if kind == "ckpt":
            _, _, index, attempt, payload = message
            current = entries.get(index) if entries is not None else None
            if current is None or current[0] != attempt:
                return  # stale: a killed or superseded attempt
            state.checkpoints[index] = payload
            self._counters["checkpoints_received"] += 1
            return
        # kind == "done": a streamed batch of per-task outcomes.
        outcomes = message[2]
        for outcome in outcomes:
            index, attempt = outcome[0], outcome[1]
            current = entries.get(index) if entries is not None else None
            if current is None or current[0] != attempt:
                continue    # stale outcome from a superseded incarnation
            del entries[index]
            self._finish_outcome(index, attempt, outcome[2:], state,
                                 worker_id)
        if entries is not None and not entries:
            del state.inflight[worker_id]
            state.idle.append(worker_id)

    def _collect_messages(self, timeout: float) -> List[tuple]:
        """Block up to ``timeout`` for worker messages; return every
        message readable without blocking further.

        A connection at EOF means its worker died mid-write or exited:
        the parent closes its end (so the dead pipe stops reporting
        ready) and joins the process briefly so the reaper's liveness
        check sees the death immediately instead of next poll.
        """
        by_conn = {}
        for worker_id, conn in enumerate(self._result_conns):
            if conn is not None and not conn.closed:
                by_conn[conn] = worker_id
        if not by_conn:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return []
        messages: List[tuple] = []
        for conn in mp_connection.wait(list(by_conn), timeout):
            try:
                messages.append(conn.recv())
                while conn.poll(0):
                    messages.append(conn.recv())
            except (EOFError, OSError):
                try:
                    conn.close()
                except Exception:
                    pass
                try:
                    self._processes[by_conn[conn]].join(timeout=1.0)
                except Exception:
                    pass
        return messages

    def _drain(self, state: _BatchState) -> None:
        """Deliver everything already sitting in the result pipes."""
        for message in self._collect_messages(0):
            self._deliver(message, state)

    def _reap(self, state: _BatchState) -> None:
        """Handle overdue and dead workers; the collector calls it at
        the end of every turn.

        Liveness is sampled, then the pipes are drained, then the
        reaper judges: a result that arrived within the same turn as
        its deadline expiry wins over the expiry, so a query is never
        reported ``WallTimeout`` with its answer already in the pipe,
        and a worker that flushed its last results and died loses only
        the tasks it never reported.
        """
        dead = {worker_id for worker_id in state.inflight
                if not self._processes[worker_id].is_alive()}
        self._drain(state)
        now = time.monotonic()
        for worker_id in list(state.inflight):
            entries = state.inflight.get(worker_id)
            if not entries:
                continue
            # The chunk shares one deadline (computed at dispatch), so
            # the first remaining entry speaks for all of them.  The
            # engine abandons the query itself at its deadline; the
            # parent only kills the worker after a grace window (a
            # worker wedged outside the interpreter — or one whose
            # result delivery is delayed — still cannot overrun
            # forever).
            _, deadline = next(iter(entries.values()))
            if deadline is not None and now >= deadline + _DEADLINE_GRACE:
                if (state.batch_deadline is not None
                        and now >= state.batch_deadline):
                    self._lose_worker(
                        worker_id, "DeadlineExceeded",
                        "batch deadline passed while the query was "
                        "in flight; worker restarted", state)
                else:
                    self._lose_worker(
                        worker_id, "WallTimeout",
                        "query exceeded its host wall budget; "
                        "worker restarted", state)
            elif worker_id in dead:
                self._lose_worker(
                    worker_id, "WorkerCrashed",
                    "worker process died while serving the query; "
                    "worker restarted", state)

    def _lose_worker(self, worker_id: int, kind: str, message: str,
                     state: _BatchState) -> None:
        """A worker (and every task still in flight on it) is gone:
        recycle the worker through the supervisor, then dispose of
        each lost slot — quarantine, retry (resuming from the
        attempt's last checkpoint when one arrived) or final failure.

        Accounting is per event where the event is the worker's (one
        ``crashes`` tick per death, however many chunk-mates it takes
        down) and per task where the condition is the task's (one
        ``timeouts`` tick per expired slot).  Only the first remaining
        task — the one the worker was actually running — strikes the
        quarantine breaker: the tasks queued behind it are collateral,
        and striking them too would triple-charge one poison event
        (see :mod:`repro.serve.overload`).
        """
        entries = state.inflight.pop(worker_id)
        if kind == "WorkerCrashed":
            self._counters["crashes"] += 1
        self._recycle_worker(worker_id, state)
        for position, (index, (attempt, _)) in enumerate(entries.items()):
            if kind == "WallTimeout":
                self._counters["timeouts"] += 1
            text = (message if position == 0 else
                    f"lost with worker {worker_id} while queued behind "
                    f"its micro-batch ({kind} on the running task)")
            self._dispose_failure(
                index, attempt,
                QueryError(kind, text, transient=is_transient(kind),
                           attempts=attempt),
                state, worker_id=worker_id, strike=(position == 0))

    def _dispose_failure(self, index: int, attempt: int,
                         error: QueryError, state: _BatchState,
                         worker_id: int = -1,
                         partial_stats=None,
                         strike: bool = True) -> None:
        """One attempt failed with a host-side condition: quarantine
        the query if its breaker just opened (or already was open),
        schedule a retry if the policy grants one, or finalise.

        ``strike=False`` records nothing with the breaker (collateral
        chunk-mates of a lost worker) but still honours an already-open
        quarantine — chunk-mates share the head task's key, so if the
        head just poisoned it they are the same poison query.
        """
        key = state.prepared[index][0]
        if self._breaker is not None:
            if strike:
                self._breaker.record(key, error.kind)
            if self._breaker.quarantined(key):
                self._counters["quarantines"] += 1
                self._settle(state, index, "failed", worker=worker_id,
                             error=QueryError(
                                 POISONED,
                                 f"query key quarantined: "
                                 f"{self._breaker.strikes(key)} "
                                 f"worker-killing or budget-exhausting "
                                 f"attempts (last: {error.kind}: "
                                 f"{error.message})", attempts=attempt))
                return
        now = time.monotonic()
        policy = state.policy
        within_deadline = (state.batch_deadline is None
                           or now < state.batch_deadline)
        if (policy is not None and within_deadline
                and policy.retryable(error.kind, attempt)):
            self._counters["retries"] += 1
            # The retry resumes from the lost attempt's last mid-run
            # checkpoint, else from the payload the step started from
            # (a session step must never restart from the query entry).
            if state.payload_for(index) is not None:
                self._counters["resumes"] += 1
            heapq.heappush(state.retry_ready,
                           (now + policy.delay_s(index, attempt), index))
            return
        self._settle(state, index, "failed", worker=worker_id,
                     stats=partial_stats, error=error)

    def _expire_batch(self, state: _BatchState) -> None:
        """The batch deadline passed: give the in-flight workers, whose
        engines watch that deadline, a grace window to abandon and
        self-report (what already finished still wins), then fail
        everything unfinished."""
        grace_end = time.monotonic() + _DEADLINE_GRACE
        while state.inflight:
            remaining = grace_end - time.monotonic()
            if remaining <= 0:
                break
            for message in self._collect_messages(min(0.05, remaining)):
                self._deliver(message, state)
        for worker_id in list(state.inflight):
            self._lose_worker(
                worker_id, "DeadlineExceeded",
                "batch deadline passed while the query was in flight; "
                "worker restarted", state)
        for index in self._take_pending(state):
            self._expire_slot(state, index)
