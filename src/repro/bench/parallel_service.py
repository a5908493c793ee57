"""Query-service throughput: compile-once + warm pool vs the seed path.

Like :mod:`repro.bench.host_throughput`, this module measures the
simulator on the *host*: end-to-end queries per second over a batch of
PLM-suite queries, under four serving configurations:

``naive_sequential``
    The seed ``run_query`` path: every query recompiles its program
    and builds a fresh :class:`~repro.core.machine.Machine`.  This is
    the sequential baseline the acceptance gate compares against — it
    is what every call cost before the serving subsystem existed.
``cached_sequential``
    ``QueryService(workers=0)``: compile-once image cache plus a warm
    engine pool, still one query at a time in-process.  Isolates the
    amortization win from the multiprocessing machinery.
``service_wN``
    ``QueryService(workers=N)``: the full multiprocess pool.

The batch is a short-query-heavy traffic mix (each short suite program
repeated ``short_reps`` times, the longer ones once): the serving
subsystem exists precisely because compile/load overhead and engine
construction dominate end-to-end latency for *short* queries — for a
50 ms query the seed path's fixed ~18 ms overhead is noise, for con1's
60 µs it is a 300x tax.

Every mode's per-slot results are cross-checked against the naive
reference: identical solutions and bit-identical simulated
:class:`~repro.core.statistics.RunStats`, so the speedup never comes
from computing something different.  Worker processes are warmed with
one untimed pass (image shipping and machine construction amortize
across a service's lifetime; the report measures the steady state —
see docs/SERVING.md for the methodology).

The committed ``BENCH_parallel_service.json`` is the CI baseline; the
gate compares the dimensionless speedup-vs-naive ratio at the highest
measured worker count, so runner hardware (and its core count) does
not matter.  On a single-core host the multiprocess ratio measures
amortization plus IPC overhead, not parallelism; multicore hosts add
real parallel scaling on top.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import run_query
from repro.bench.programs import SUITE, SUITE_ORDER
from repro.serve import QueryService

#: suite programs short enough that fixed per-query overhead dominates
#: the seed path; the batch repeats these to model short-query traffic.
SHORT_PROGRAMS = ("con1", "con6", "divide10", "log10", "ops8", "times10")

#: CI smoke configuration: short programs plus one medium, few reps.
QUICK_PROGRAMS = list(SHORT_PROGRAMS) + ["nrev1"]

#: the committed serving-throughput batch: the short programs repeated
#: heavily plus the two medium ones.  Serving traffic is what the
#: subsystem exists for — many short queries whose cost is dominated
#: by fixed overhead — so that is what the committed baseline (and the
#: parallelism-pays gate) measures; one-shot long-query interpretation
#: speed is BENCH_host_throughput's domain, not this benchmark's.
SERVING_PROGRAMS = list(SHORT_PROGRAMS) + ["nrev1", "qs4"]

FULL_REPS = 15
FULL_SHORT_REPS = 8
QUICK_REPS = 2

#: naive passes are ~15x slower than served ones and only anchor the
#: speedup-vs-naive ratio (the beats-cached gate never reads them), so
#: the best-of-N rep count is capped for that mode.
MAX_NAIVE_REPS = 5


def build_batch(programs: Optional[List[str]] = None,
                short_reps: int = 4,
                variant: str = "pure"
                ) -> Tuple[Dict[str, str], List[Tuple[str, str]]]:
    """The benchmark workload: ``(sources, batch)`` where ``batch`` is
    an ordered list of (program_name, query_text) slots."""
    names = list(programs) if programs is not None else list(SUITE_ORDER)
    sources: Dict[str, str] = {}
    batch: List[Tuple[str, str]] = []
    for name in names:
        benchmark = SUITE[name]
        if variant == "pure":
            source, query = benchmark.source_pure, benchmark.query_pure
        elif variant == "timed":
            source, query = benchmark.source_timed, benchmark.query_timed
        else:
            raise ValueError(f"unknown variant {variant!r}")
        sources[name] = source
        repeats = short_reps if name in SHORT_PROGRAMS else 1
        batch.extend([(name, query)] * repeats)
    return sources, batch


def _naive_pass(sources: Dict[str, str],
                batch: List[Tuple[str, str]]) -> Tuple[float, list]:
    """One seed-path pass: compile + fresh machine per query."""
    outcomes = []
    started = time.perf_counter()
    for name, query in batch:
        result = run_query(sources[name], query, use_cache=False)
        outcomes.append((result.solutions, result.stats))
    return time.perf_counter() - started, outcomes


def _service_pass(service: QueryService,
                  batch: List[Tuple[str, str]]) -> Tuple[float, list]:
    """One batched pass through a service (any worker count)."""
    started = time.perf_counter()
    results = service.run_many(batch)
    elapsed = time.perf_counter() - started
    for result in results:
        if not result.ok:
            raise AssertionError(
                f"benchmark query failed: {batch[result.index]}: "
                f"{result.error}")
    return elapsed, [(r.solutions, r.stats) for r in results]


def _check_identity(mode: str, reference: list, outcomes: list,
                    batch: List[Tuple[str, str]]) -> None:
    for slot, ((ref_solutions, ref_stats),
               (solutions, stats)) in enumerate(zip(reference, outcomes)):
        if solutions != ref_solutions or stats != ref_stats:
            raise AssertionError(
                f"{mode}: slot {slot} ({batch[slot]}) diverged from the "
                f"naive reference")


def measure_service(programs: Optional[List[str]] = None,
                    short_reps: int = 4,
                    reps: int = FULL_REPS,
                    workers: Sequence[int] = (1, 2, 4),
                    variant: str = "pure") -> Dict:
    """Measure every serving mode over the same batch; returns the
    report dict.  Raises ``AssertionError`` if any mode's solutions or
    simulated statistics ever diverge from the naive reference."""
    sources, batch = build_batch(programs=programs, short_reps=short_reps,
                                 variant=variant)
    timings: Dict[str, float] = {}

    # The naive reference: best-of-N passes, reference outcomes from
    # the first (cross-checked to be rep-stable).
    best = float("inf")
    reference: Optional[list] = None
    for _ in range(min(reps, MAX_NAIVE_REPS)):
        elapsed, outcomes = _naive_pass(sources, batch)
        if reference is None:
            reference = outcomes
        else:
            _check_identity("naive_sequential", reference, outcomes, batch)
        best = min(best, elapsed)
    timings["naive_sequential"] = best

    # Service modes are measured interleaved: every rep runs one pass
    # of every mode before the next rep starts.  Block-per-mode timing
    # lets a slow system epoch (scheduler churn, page cache pressure)
    # land entirely on one mode and decide the beats-cached verdict;
    # interleaving exposes every mode to the same epochs, so best-of-N
    # compares like with like.
    modes = [("cached_sequential", 0)] + [
        (f"service_w{count}", count) for count in workers]
    services: Dict[str, QueryService] = {}
    try:
        for mode, count in modes:
            service = QueryService(sources, workers=count, io_mode="stub")
            services[mode] = service
            _service_pass(service, batch)      # warm: ship images, build
            timings[mode] = float("inf")       # machines, fill caches
        for _ in range(reps):
            for mode, _count in modes:
                elapsed, outcomes = _service_pass(services[mode], batch)
                _check_identity(mode, reference, outcomes, batch)
                timings[mode] = min(timings[mode], elapsed)
    finally:
        for service in services.values():
            service.close()

    size = len(batch)
    naive = timings["naive_sequential"]
    cached = timings["cached_sequential"]
    gate_mode = f"service_w{max(workers)}"
    report_modes = {
        mode: {
            "seconds": round(seconds, 4),
            "queries_per_second": round(size / seconds, 2),
            "speedup_vs_naive": round(naive / seconds, 3),
            "qps_vs_cached": round(cached / seconds, 3),
            "beats_cached": seconds < cached,
        }
        for mode, seconds in timings.items()
    }
    return {
        "suite": f"kcm-{variant}",
        "reps": reps,
        # The beats-cached verdicts only carry meaning relative to
        # this: on a single-core host the pool cannot overlap work
        # with the parent, so service_wN measures pure data-plane
        # overhead against cached_sequential; with >= 2 cores the
        # same comparison measures overhead minus real parallelism.
        "host": {"cpu_count": os.cpu_count() or 1},
        "batch": {
            "queries": size,
            "programs": sorted(sources),
            "short_reps": short_reps,
            "short_programs": [name for name in SHORT_PROGRAMS
                               if name in sources],
        },
        "modes": report_modes,
        "gate": {
            "mode": gate_mode,
            "workers": max(workers),
            "speedup_vs_naive": report_modes[gate_mode]["speedup_vs_naive"],
            # The parallelism-pays gate: every measured service_wN with
            # N >= 2 must beat the warm single-process baseline.
            "beats_cached": {
                f"service_w{count}":
                    report_modes[f"service_w{count}"]["beats_cached"]
                for count in workers if count >= 2
            },
        },
        "identity_checked": True,
    }


def write_report(report: Dict, path: str) -> None:
    """Write ``report`` as the JSON artifact."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_regression(report: Dict, baseline_path: str,
                     max_regression: float = 0.35) -> str:
    """Compare ``report`` against a committed baseline report.

    Gates the dimensionless speedup-vs-naive ratio at the gate worker
    count, which transfers across runner hardware.  The tolerance is
    wider than the host-throughput gate's because the ratio folds in
    process scheduling and IPC, which are noisier than pure
    interpretation.  Raises ``AssertionError`` when the current ratio
    has lost more than ``max_regression`` of the committed one.

    Speedup-vs-naive depends on the batch composition (a shorter-query
    mix amortizes more), so that dimension only gates when the current
    run measured the same batch the baseline did — a ``--quick`` smoke
    gated against the committed full-batch report skips it and relies
    on the qps-vs-cached dimension, which compares two modes over the
    *same* batch and therefore transfers across batch mixes.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    committed = baseline["gate"]["speedup_vs_naive"]
    current = report["gate"]["speedup_vs_naive"]
    floor = committed * (1.0 - max_regression)
    same_batch = report.get("batch") == baseline.get("batch")
    if same_batch:
        assert current >= floor, (
            f"parallel-service regression: speedup {current:.3f}x at "
            f"{report['gate']['mode']} is below {floor:.3f}x "
            f"({100 * max_regression:.0f}% under the committed "
            f"{committed:.3f}x)")
    # Second dimension: the data-plane overhead ratio.  qps-vs-cached
    # strips the naive path out entirely, so it catches a regression
    # in the worker transport itself (serialization, batching, pipe
    # handling) that speedup-vs-naive would hide behind a slow naive
    # pass.  Also dimensionless: more cores only raise it.
    mode = report["gate"]["mode"]
    committed_ratio = baseline["modes"].get(mode, {}).get("qps_vs_cached")
    if committed_ratio is not None:
        current_ratio = report["modes"][mode]["qps_vs_cached"]
        ratio_floor = committed_ratio * (1.0 - max_regression)
        assert current_ratio >= ratio_floor, (
            f"parallel-service data-plane regression: {mode} at "
            f"{current_ratio:.3f}x cached_sequential is below "
            f"{ratio_floor:.3f}x (committed {committed_ratio:.3f}x)")
    if not same_batch:
        if committed_ratio is None:
            return ("baseline has no qps_vs_cached and a different "
                    "batch — nothing comparable to gate")
        return (f"{mode} qps {report['modes'][mode]['qps_vs_cached']:.3f}x "
                f"cached vs committed {committed_ratio:.3f}x — ok "
                f"(different batch; speedup-vs-naive not compared)")
    return (f"{report['gate']['mode']} speedup {current:.3f}x vs "
            f"committed {committed:.3f}x (floor {floor:.3f}x) — ok")


def check_beats_cached(report: Dict, min_workers: int = 2) -> str:
    """Assert the parallelism-pays invariant: every measured
    ``service_wN`` with ``N >= min_workers`` ran the batch faster than
    ``cached_sequential`` (one warm in-process worker).  This is the
    gate the micro-batched, streamed data plane exists to hold —
    a pool that loses to a single warm worker is pure overhead.
    """
    losers = []
    checked = []
    for mode, info in sorted(report["modes"].items()):
        if not mode.startswith("service_w"):
            continue
        count = int(mode[len("service_w"):])
        if count < min_workers:
            continue
        checked.append(f"{mode} {info['qps_vs_cached']:.3f}x")
        if not info["beats_cached"]:
            cached_qps = (report["modes"]["cached_sequential"]
                          ["queries_per_second"])
            losers.append(
                f"{mode}: {info['queries_per_second']:.1f} qps <= "
                f"cached_sequential {cached_qps:.1f} qps")
    assert checked, (
        f"no service_wN modes with N >= {min_workers} in the report")
    assert not losers, (
        "parallel service loses to one warm worker: " + "; ".join(losers))
    return ("beats-cached gate: " + ", ".join(checked) + " — ok")
