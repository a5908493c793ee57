"""Runs one workload in this process and computes its metrics.

A run has four phases, in order:

1. **reference** — every distinct operation of the workload runs once
   on the seed interpreter (``Machine(fast_path=False)``, no image
   cache), giving the solutions and full ``RunStats`` each output must
   equal;
2. **set-up** — ``setup_samples`` fresh starts, each a new
   ``ImageCache`` and a new service (spawning the pool's workers) up to
   the first answer of every program in the mix.  Their median is
   ``setup_s``; the last start's service serves the window;
3. **warm-up** — untimed traffic that brings the service to the steady
   state the window measures (nothing to do for ``suite_warm``, whose
   set-up already warms every machine);
4. **window** — the workload's load for ``seconds``; afterwards every
   output is compared with the reference.

With a :class:`~tracing.Tracer`, phases 2–4 record spans around the
calls into each layer, and the run reports per-layer metrics instead of
end-to-end ones.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from collections import defaultdict, namedtuple
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import run_query
from repro.compiler.linker import Linker
from repro.core import machine as machine_module
from repro.core.machine import Machine
from repro.core.superops import SuperopFuser
from repro.core.traps import MachineCheckpoint
from repro.serve import (
    EnginePool, EngineStore, ImageCache, QueryService, SessionService,
)
from repro.serve.session import DONE, SOLUTION

import workloads
from tracing import (
    END, NAME, OP, PARENT, SIZE, START, NullTracer, Tracer, percentile,
    self_times,
)

#: where traces (and any spilled session engine) are written.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: the calls a traced run wraps: (owner, attribute, payload-size getter).
LAYER_CALLS = [
    (Linker, "link", None),
    (ImageCache, "get", None),
    (Machine, "__init__", None),
    (machine_module, "predecode", None),
    (SuperopFuser, "fuse", None),
    (EnginePool, "machine_for", None),
    (EnginePool, "run", None),
    (Machine, "run", None),
    (Machine, "resume", None),
    (Machine, "run_sliced", None),
    (Machine, "resume_sliced", None),
    (Machine, "reset_for_reuse", None),
    (MachineCheckpoint, "capture", None),
    (MachineCheckpoint, "restore", None),
    (QueryService, "run", None),
    (QueryService, "run_many", None),
    (QueryService, "run_steps", None),
    (EngineStore, "put", lambda args: len(args[2])),
    (EngineStore, "get", None),
    (SessionService, "advance", None),
]

#: span names of the interpreter loop (Machine.run and its variants).
INTERPRETER = ("Machine.run", "Machine.resume", "Machine.run_sliced",
               "Machine.resume_sliced")

POOL_WORKERS = 2
OPEN_SESSIONS = 8

#: untimed batches before the pool's window, so both workers hold their
#: images and warm machines when measurement starts.
POOL_WARMUP_BATCHES = 20

#: one window operation: ``sent`` is when it was sent and ``done`` when
#: its answer returned (for the pool, when its batch returned).
#: ``result`` is a ServiceResult, or a StepOutcome for sessions, whose
#: ``session`` numbers the session the step advanced.
Record = namedtuple("Record", "op_id sent done op result")
SessionRecord = namedtuple("SessionRecord", Record._fields + ("session",))

#: verdicts of the output check, one per record.
OK, FAILED, MISMATCH = "ok", "failed", "mismatch"


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`LAYER_CALLS`."""
    for owner, attr, size in LAYER_CALLS:
        name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        tracer.wrap(owner, attr, name, size)


# -- workloads ---------------------------------------------------------------

class QueryWorkload:
    """Common parts of the workloads whose operation is one query
    answered by a :class:`~repro.serve.QueryService`."""

    workers = 0
    programs: Dict[str, str]
    distinct_ops: List[Tuple[str, str]]
    first_ops: List[Tuple[str, str]]

    def __init__(self, seed: int):
        self.seed = seed

    def start(self, cache: ImageCache):
        return QueryService(self.programs, workers=self.workers, cache=cache)

    def first_answers(self, service) -> None:
        service.run_many(self.first_ops)

    def reference(self, op: Tuple[str, str]):
        program, query = op
        return run_query(self.programs[program], query,
                         machine=Machine(fast_path=False),
                         use_cache=False).detach()

    def warm(self, service, tracer) -> None:
        pass

    def check(self, records, references) -> List[str]:
        """One verdict per record: its solutions and RunStats must equal
        the reference's."""
        verdicts = []
        for record in records:
            result = record.result
            expected = references[record.op]
            if not result.ok:
                verdicts.append(FAILED)
            elif (result.solutions == expected.solutions
                    and result.stats == expected.stats):
                verdicts.append(OK)
            else:
                verdicts.append(MISMATCH)
        return verdicts

    def inferences(self, records, references) -> Tuple[int, List[int]]:
        """Simulated inferences of the window, and the ops they ran in."""
        return (sum(references[record.op].stats.inferences
                    for record in records),
                [record.op_id for record in records])


def closed_loop(service, rounds, seconds: float, tracer):
    """One client: each query is sent when the previous one returns.
    The window closes at the first round boundary after ``seconds``;
    returns (records, window length)."""
    records = []
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds
    while clock() < deadline:
        for op in next(rounds):
            with tracer.root("op") as op_id:
                sent = clock()
                result = service.run(op)
                done = clock()
            records.append(Record(op_id, sent, done, op, result))
    return records, clock() - started


class SuiteWarm(QueryWorkload):
    """Closed loop over all 14 PLM pure queries on warm machines."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.programs = workloads.suite_programs()
        self.distinct_ops = [(name, workloads.SUITE[name].query_pure)
                             for name in self.programs]
        self.first_ops = self.distinct_ops

    def drive(self, service, seconds: float, tracer):
        return closed_loop(service, workloads.suite_rounds(self.seed),
                           seconds, tracer)


class AdhocChurn(QueryWorkload):
    """Closed loop over 96 distinct images drawn Zipf(1.0)."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.programs = dict(workloads.ADHOC_PROGRAMS)
        self.distinct_ops = workloads.adhoc_pool(seed)
        # The top-ranked query of each kind: one per program.
        self.first_ops = self.distinct_ops[:len(workloads.ADHOC_KINDS)]

    def warm(self, service, tracer) -> None:
        # Steady state: every image compiled, and the machine pool
        # holding the most popular images (least popular run first, so
        # the LRU keeps the top ones).
        with tracer.root("warmup"):
            for program, query in self.distinct_ops:
                service.cache.get(self.programs[program], query)
            service.run_many(
                self.distinct_ops[:service.max_machines][::-1])

    def drive(self, service, seconds: float, tracer):
        pool = self.distinct_ops
        rounds = ([pool[rank]] for rank in workloads.zipf_ranks(self.seed))
        return closed_loop(service, rounds, seconds, tracer)


class PoolBatches(QueryWorkload):
    """Closed loop of seeded batches into a 2-worker pool."""

    workers = POOL_WORKERS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.programs = workloads.pool_programs()
        self.distinct_ops = [(name, workloads.SUITE[name].query_pure)
                             for name in self.programs]
        self.first_ops = self.distinct_ops

    def warm(self, service, tracer) -> None:
        # Batches of their own, not a prefix of the window's.
        batches = workloads.pool_batches(self.seed + 1_000_003)
        with tracer.root("warmup"):
            for _ in range(POOL_WARMUP_BATCHES):
                service.run_many(next(batches))

    def drive(self, service, seconds: float, tracer):
        """One client sends each batch when the previous one returns;
        ``run_many`` returns a batch's results together, so each query's
        latency is its batch's."""
        batches = workloads.pool_batches(self.seed)
        records = []
        clock = time.perf_counter
        started = clock()
        deadline = started + seconds
        while clock() < deadline:
            batch = next(batches)
            with tracer.root("op") as op_id:
                sent = clock()
                results = service.run_many(batch)
                done = clock()
            records.extend(Record(op_id, sent, done, op, result)
                           for op, result in zip(batch, results))
        return records, clock() - started


class SessionStream:
    """Eight open sessions advanced round-robin, one step at a time."""

    workers = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.programs = dict(workloads.SESSION_PROGRAMS)
        self.distinct_ops = workloads.session_pool(seed)
        # One session per program: density/2, the longest concat, queens.
        self.first_ops = [self.distinct_ops[0], self.distinct_ops[-1],
                          self.distinct_ops[2]]

    def start(self, cache: ImageCache):
        OUT_DIR.mkdir(exist_ok=True)
        return SessionService(self.programs, workers=0, cache=cache,
                              store=EngineStore(directory=str(OUT_DIR)))

    def _one_step_each(self, service, ops) -> None:
        ids = [service.open(program, query) for program, query in ops]
        service.advance(ids)
        for session_id in ids:
            service.close_session(session_id)

    def first_answers(self, service) -> None:
        self._one_step_each(service, self.first_ops)

    def reference(self, op):
        program, query = op
        return run_query(self.programs[program], query, all_solutions=True,
                         machine=Machine(fast_path=False),
                         use_cache=False).detach()

    def warm(self, service, tracer) -> None:
        # One step of every distinct session query: each image compiled
        # and its machine warm before the window opens.
        with tracer.root("warmup"):
            self._one_step_each(service, self.distinct_ops)

    def drive(self, service, seconds: float, tracer):
        pool = self.distinct_ops
        opens = workloads.session_opens(self.seed, pool)
        numbers = itertools.count()

        def open_one():
            op = pool[next(opens)]
            return service.open(*op), op, next(numbers)

        live = [open_one() for _ in range(OPEN_SESSIONS)]
        records = []
        clock = time.perf_counter
        started = clock()
        deadline = started + seconds
        slot = 0
        while clock() < deadline:
            session_id, op, session = live[slot]
            with tracer.root("op") as op_id:
                sent = clock()
                outcome = service.advance([session_id])[0]
                done = clock()
            records.append(SessionRecord(op_id, sent, done, op, outcome,
                                         session))
            if outcome.status != SOLUTION:
                live[slot] = open_one()
            slot = (slot + 1) % OPEN_SESSIONS
        elapsed = clock() - started
        for session_id, _, _ in live:
            service.close_session(session_id)
        return records, elapsed

    def check(self, records, references) -> List[str]:
        """Each SOLUTION step must stream the reference's next answer,
        and a DONE step must carry its full solutions and RunStats."""
        verdicts = []
        streamed: Dict[int, int] = defaultdict(int)
        for record in records:
            outcome = record.result
            expected = references[record.op]
            if outcome.status == SOLUTION:
                position = streamed[record.session]
                streamed[record.session] += 1
                good = (position < len(expected.solutions)
                        and outcome.solution == expected.solutions[position])
            elif outcome.status == DONE:
                good = (streamed[record.session] == len(expected.solutions)
                        and outcome.solutions == expected.solutions
                        and outcome.stats == expected.stats)
            else:
                verdicts.append(FAILED)
                continue
            verdicts.append(OK if good else MISMATCH)
        return verdicts

    def inferences(self, records, references) -> Tuple[int, List[int]]:
        """Sessions report RunStats only when they finish: count the
        sessions that finished inside the window, over all their steps."""
        done = [record for record in records if record.result.status == DONE]
        finished = {record.session for record in done}
        return (sum(references[record.op].stats.inferences
                    for record in done),
                [record.op_id for record in records
                 if record.session in finished])


WORKLOADS = {
    "suite_warm": SuiteWarm,
    "adhoc_churn": AdhocChurn,
    "session_stream": SessionStream,
    "pool_batches": PoolBatches,
}


# -- one run -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, setup_samples: int,
        tracer: Optional[Tracer] = None) -> dict:
    """Run workload ``name``; returns the result object the command
    prints (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    workload = WORKLOADS[name](seed)
    references = {op: workload.reference(op) for op in workload.distinct_ops}
    # The garbage of each phase (reference machines, closed services)
    # is collected before the next, so that peak RSS does not depend on
    # when the cyclic collector happens to run.
    gc.collect()
    active = tracer if tracer is not None else NullTracer()
    if tracer is not None:
        install(tracer)
    setup_times = []
    service = None
    try:
        for _ in range(setup_samples):
            if service is not None:
                service.close()
                gc.collect()
            with active.root("setup"):
                started = time.perf_counter()
                service = workload.start(ImageCache())
                workload.first_answers(service)
                setup_times.append(time.perf_counter() - started)
        workload.warm(service, active)
        records, elapsed = workload.drive(service, seconds, active)
        health = service.health()
    finally:
        # close() is idempotent: on every path out, the last service
        # started (and with it the pool's workers) is stopped.
        if service is not None:
            service.close()
        if tracer is not None:
            tracer.restore()
    verdicts = workload.check(records, references)
    if tracer is None:
        metrics = end_to_end(records, verdicts, elapsed, setup_times)
    else:
        metrics = per_layer(workload, tracer, records, references,
                            verdicts.count(OK), elapsed, health)
    failed = len(verdicts) - verdicts.count(OK)
    return {"correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": metrics}


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    child, the pool's biggest worker (``ru_maxrss`` is in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(records, verdicts: Sequence[str], elapsed: float,
               setup_times: Sequence[float]) -> dict:
    """The end-to-end metrics of an untraced run."""
    latencies = [record.done - record.sent for record in records]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_ops_s": {"value": verdicts.count(OK) / elapsed,
                             "unit": "ops/s"},
        "latency_p50_ms": {"value": 1e3 * percentile(latencies, 0.50),
                           "unit": "ms"},
        "latency_p95_ms": {"value": 1e3 * percentile(latencies, 0.95),
                           "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


# -- per-layer metrics -------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.machine.run_ms_per_op", "ms", "lower"),
    ("core.machine.host_klips", "klips", "higher"),
    ("core.machine.run_share", "ratio", "higher"),
    ("core.machine.reset_ms_per_op", "ms", "lower"),
    ("core.machine.construct_calls", "count", "lower"),
    ("core.machine.construct_ms_per_call", "ms", "lower"),
    ("core.predecode.translate_calls", "count", "lower"),
    ("core.predecode.translate_ms_per_call", "ms", "lower"),
    ("core.superops.fuse_ms_per_translate", "ms", "lower"),
    ("compiler.link_calls", "count", "lower"),
    ("compiler.link_ms_per_call", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.engine_pool.miss_ratio", "ratio", "lower"),
    ("core.traps.capture_ms_per_call", "ms", "lower"),
    ("core.traps.restore_ms_per_call", "ms", "lower"),
    ("serve.service.step_payload_kb", "KB", "lower"),
    ("serve.service.step_overhead_ms", "ms", "lower"),
    ("serve.engine.store_ms_per_step", "ms", "lower"),
    ("serve.service.local_overhead_ms", "ms", "lower"),
    ("serve.service.engine_ms_p50", "ms", "lower"),
    ("serve.service.dataplane_ms_p50", "ms", "lower"),
    ("serve.service.dataplane_ms_p95", "ms", "lower"),
    ("serve.service.respawns", "count", "lower"),
    ("serve.service.sheds", "count", "lower"),
    ("sim.inferences_per_op", "count", "lower"),
    ("setup.link_share", "ratio", "lower"),
    ("setup.construct_share", "ratio", "lower"),
    ("setup.translate_share", "ratio", "lower"),
    ("trace.self_time_coverage", "ratio", "higher"),
    ("trace.throughput_ops_s", "ops/s", "higher"),
]


class _Layers:
    """Calls, total and self time and payload size per span name, over
    the spans of one set of operations."""

    def __init__(self, spans, selfs, ops: set):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.size: Dict[str, float] = defaultdict(float)
        #: (parent name, child name) -> parent spans with such a child
        self.with_child: Dict[Tuple[str, str], int] = defaultdict(int)
        self.roots = 0.0
        for index, span in enumerate(spans):
            if span[OP] not in ops:
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] += 1
            self.total[name] += duration
            self.own[name] += selfs[index]
            if span[SIZE] is not None:
                self.size[name] += span[SIZE]
            if span[PARENT] < 0:
                self.roots += duration
            else:
                self.with_child[(spans[span[PARENT]][NAME], name)] += 1

    def per_call(self, name: str) -> float:
        calls = self.calls[name]
        return 1e3 * self.total[name] / calls if calls else 0.0

    def share(self, name: str) -> float:
        return self.total[name] / self.roots if self.roots else 0.0


def per_layer(workload, tracer: Tracer, records, references, ok: int,
              elapsed: float, health) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    roots = [span for span in spans if span[PARENT] < 0]
    window = {span[OP] for span in roots if span[NAME] == "op"}
    setup = {span[OP] for span in roots if span[NAME] == "setup"}
    layers = _Layers(spans, selfs, window)
    setup_layers = _Layers(spans, selfs, setup)
    ops = len(records)

    interpreter = sum(layers.own[name] for name in INTERPRETER)
    op_interpreter: Dict[int, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span[NAME] in INTERPRETER and span[OP] in window:
            op_interpreter[span[OP]] += selfs[index]
    inferences, counted_ops = workload.inferences(records, references)
    counted_time = sum(op_interpreter[op] for op in set(counted_ops))

    translates = layers.calls["predecode"]
    gets = layers.calls["ImageCache.get"]
    machine_fors = layers.calls["EnginePool.machine_for"]
    puts = layers.calls["EngineStore.put"]
    engine_runs = layers.total["EnginePool.run"]
    service_calls = (layers.total["QueryService.run"]
                     + layers.total["QueryService.run_steps"])

    engine_ms = [1e3 * record.result.host_seconds for record in records
                 if not isinstance(record, SessionRecord)]
    # The pool's data plane, per batch: its wall time minus the host
    # time its queries spent in the engines, shared over the workers.
    batches: Dict[int, list] = defaultdict(list)
    for record in records if workload.workers else ():
        batches[record.op_id].append(record)
    dataplane = [1e3 * (batch[0].done - batch[0].sent
                        - sum(r.result.host_seconds for r in batch)
                        / workload.workers)
                 for batch in batches.values()]

    values = {
        "core.machine.run_ms_per_op": 1e3 * interpreter / ops,
        "core.machine.host_klips": (inferences / counted_time / 1e3
                                    if counted_time else 0.0),
        "core.machine.run_share": interpreter / elapsed,
        "core.machine.reset_ms_per_op":
            1e3 * layers.total["Machine.reset_for_reuse"] / ops,
        "core.machine.construct_calls": layers.calls["Machine.__init__"],
        "core.machine.construct_ms_per_call":
            layers.per_call("Machine.__init__"),
        "core.predecode.translate_calls": translates,
        "core.predecode.translate_ms_per_call": layers.per_call("predecode"),
        "core.superops.fuse_ms_per_translate":
            (1e3 * layers.total["SuperopFuser.fuse"] / translates
             if translates else 0.0),
        "compiler.link_calls": layers.calls["Linker.link"],
        "compiler.link_ms_per_call": layers.per_call("Linker.link"),
        "serve.cache.hit_ratio":
            (1.0 - layers.with_child[("ImageCache.get", "Linker.link")] / gets
             if gets else 0.0),
        "serve.engine_pool.miss_ratio":
            (layers.with_child[("EnginePool.machine_for",
                                "Machine.__init__")] / machine_fors
             if machine_fors else 0.0),
        "core.traps.capture_ms_per_call":
            layers.per_call("MachineCheckpoint.capture"),
        "core.traps.restore_ms_per_call":
            layers.per_call("MachineCheckpoint.restore"),
        "serve.service.step_payload_kb":
            (layers.size["EngineStore.put"] / puts / 1024 if puts else 0.0),
        "serve.service.step_overhead_ms":
            (1e3 * (layers.total["SessionService.advance"] - interpreter) / ops
             if layers.calls["SessionService.advance"] else 0.0),
        "serve.engine.store_ms_per_step":
            1e3 * (layers.total["EngineStore.put"]
                   + layers.total["EngineStore.get"]) / ops,
        "serve.service.local_overhead_ms":
            (1e3 * (service_calls - engine_runs) / ops if engine_runs
             else 0.0),
        "serve.service.engine_ms_p50": percentile(engine_ms, 0.50),
        "serve.service.dataplane_ms_p50": percentile(dataplane, 0.50),
        "serve.service.dataplane_ms_p95": percentile(dataplane, 0.95),
        "serve.service.respawns": health.respawns,
        "serve.service.sheds": health.sheds,
        "sim.inferences_per_op": (inferences / len(counted_ops)
                                  if counted_ops else 0.0),
        "setup.link_share": setup_layers.share("Linker.link"),
        "setup.construct_share": setup_layers.share("Machine.__init__"),
        "setup.translate_share": setup_layers.share("predecode"),
        "trace.self_time_coverage":
            sum(selfs[index] for index, span in enumerate(spans)
                if span[OP] in window) / elapsed,
        "trace.throughput_ops_s": ok / elapsed,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
