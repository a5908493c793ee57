"""Session capacity and stream latency under hibernation pressure
(docs/SESSIONS.md).

Soaks a :class:`~repro.serve.session.SessionService` with a concurrent
PLM-corpus session mix twice — once with every paused engine resident,
once under a deliberately tiny :class:`~repro.serve.engine.EngineStore`
budget so (nearly) every step must wake a hibernated resume token from
disk — and reports sessions-per-worker capacity, solution-stream step
latency (p50/p99) for both modes, and the dimensionless **hibernation
overhead** ratio (hibernated p50 / resident p50) the regression gate
holds against the committed ``BENCH_sessions.json``: the ratio strips
hardware speed out, so it transfers across runners the way the other
bench gates do.

``--chaos`` instead runs the ISSUE 10 session chaos smoke:
:func:`~repro.serve.chaos.verify_session_chaos_invariant` over the
corpus — seeded worker kills plus forced lease expiries mid-stream must
leave every surviving session's solution sequence and ``RunStats``
bit-identical to the fault-free reference, with no engine leaked.

Run under pytest (``pytest benchmarks/bench_sessions.py``) or
standalone::

    PYTHONPATH=src python benchmarks/bench_sessions.py --output BENCH_sessions.json
    PYTHONPATH=src python benchmarks/bench_sessions.py --chaos --seed 2026
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: session-friendly PLM corpus: queens/mutest stream several solutions
#: each (so sessions live across many steps), the short ones exercise
#: the open/done churn path, query exercises the zero-solution stream.
CORPUS = ["queens", "mutest", "con1", "nrev1", "divide10", "query"]

#: forces hibernation: below every pickled checkpoint of the corpus
#: (13-18 KB for queens and mutest), so every idle session's resume
#: token spills and every step wakes one.
PRESSURE_BUDGET = 4_096


def _soak(programs, mix, spec, workers, store_budget) -> dict:
    from repro.serve import EngineStore, SessionService
    from repro.serve.loadgen import run_session_soak

    store = (EngineStore(budget_bytes=store_budget)
             if store_budget is not None else EngineStore())
    started = time.perf_counter()
    with SessionService(programs, workers=workers, store=store) as service:
        report = run_session_soak(service, spec, mix)
    seconds = time.perf_counter() - started
    effective_workers = max(1, workers)
    return {
        "elapsed_s": round(seconds, 3),
        "rounds": report.rounds,
        "solutions_streamed": report.solutions_streamed,
        "done": report.done,
        "expired": report.expired,
        "failed": report.failed,
        "accounting_ok": report.accounting_ok,
        "solutions_ok": report.solutions_ok,
        "mismatches": report.mismatches,
        "hibernation_spills": report.hibernation_spills,
        "hibernation_wakes": report.hibernation_wakes,
        "p50_step_latency_s": round(report.p50_step_latency_s, 6),
        "p99_step_latency_s": round(report.p99_step_latency_s, 6),
        "steps_per_s": round((report.solutions_streamed + report.done)
                             / seconds, 1) if seconds > 0 else 0.0,
        "sessions_per_worker_per_s": round(
            report.done / seconds / effective_workers, 2)
            if seconds > 0 else 0.0,
    }


def run_sessions_bench(seed: int = 2026, sessions: int = 24,
                       workers: int = 0) -> dict:
    from repro.bench.programs import SUITE
    from repro.serve.loadgen import SessionLoadSpec

    programs = {name: SUITE[name].source_pure for name in CORPUS}
    mix = [(name, SUITE[name].query_pure) for name in CORPUS]
    spec = SessionLoadSpec(sessions=sessions, seed=seed,
                           abandon_rate=0.2)
    resident = _soak(programs, mix, spec, workers, store_budget=None)
    hibernated = _soak(programs, mix, spec, workers,
                       store_budget=PRESSURE_BUDGET)
    overhead = (hibernated["p50_step_latency_s"]
                / resident["p50_step_latency_s"]
                if resident["p50_step_latency_s"] > 0 else 0.0)
    return {
        "seed": seed,
        "sessions": sessions,
        "workers": workers,
        "corpus": CORPUS,
        "resident": resident,
        "hibernated": hibernated,
        "gate": {"hibernation_overhead": round(overhead, 3)},
    }


def run_sessions_chaos_smoke(seed: int = 2026, workers: int = 2,
                             checkpoint_every: int = 2_000) -> dict:
    from repro.bench.programs import SUITE
    from repro.serve import ChaosPolicy, RetryPolicy
    from repro.serve.chaos import verify_session_chaos_invariant

    programs = {name: SUITE[name].source_pure for name in CORPUS}
    mix = [(name, SUITE[name].query_pure) for name in CORPUS]
    chaos = ChaosPolicy(seed=seed, kill_rate=0.5,
                        kill_window=(200, 4_000), kill_relative=True,
                        max_kills_per_slot=1)
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.02, seed=seed)
    started = time.perf_counter()
    report = verify_session_chaos_invariant(
        programs, mix, chaos, retry=retry, workers=workers,
        checkpoint_every=checkpoint_every, seed=seed,
        store_budget=PRESSURE_BUDGET)
    seconds = time.perf_counter() - started
    health = report["health"]
    return {
        "seed": seed,
        "workers": workers,
        "checkpoint_every": checkpoint_every,
        "slots": report["slots"],
        "ok": report["ok"],
        "mismatches": report["mismatches"],
        "stats_checked": report["stats_checked"],
        "expired": report["expired"],
        "migrations": report["migrations"],
        "elapsed_s": round(seconds, 3),
        "crashes": health.crashes,
        "retries": health.retries,
        "resumes": health.resumes,
        "leases_expired": health.leases_expired,
    }


def _report_bench(row: dict) -> None:
    print(f"\n  session soak: seed {row['seed']}, {row['sessions']} "
          f"sessions, {row['workers']} workers, corpus of "
          f"{len(row['corpus'])}")
    for mode in ("resident", "hibernated"):
        r = row[mode]
        print(f"  {mode:>10}: {r['done']} done / {r['expired']} expired "
              f"in {r['rounds']} rounds, {r['solutions_streamed']} "
              f"solutions, {r['steps_per_s']:.0f} steps/s, "
              f"p50 {r['p50_step_latency_s']*1e3:.2f}ms "
              f"p99 {r['p99_step_latency_s']*1e3:.2f}ms, "
              f"spills {r['hibernation_spills']} "
              f"wakes {r['hibernation_wakes']}")
    print(f"  hibernation overhead (p50 ratio): "
          f"{row['gate']['hibernation_overhead']:.3f}x; capacity "
          f"{row['resident']['sessions_per_worker_per_s']:.2f} "
          f"sessions/worker/s resident")


def _report_chaos(row: dict) -> None:
    print(f"\n  session chaos smoke: seed {row['seed']}, "
          f"{row['workers']} workers, {row['slots']} sessions")
    print(f"  invariant {'HELD' if row['ok'] else 'VIOLATED'}: "
          f"{row['stats_checked']} survivors bit-identical, "
          f"expired {row['expired']}, migrations {row['migrations']}, "
          f"crashes {row['crashes']}, resumes {row['resumes']}, "
          f"leases expired {row['leases_expired']} "
          f"in {row['elapsed_s']:.2f}s")
    for mismatch in row["mismatches"]:
        print(f"    mismatch: {mismatch}")


def _gate_bench(row: dict) -> list:
    failures = []
    for mode in ("resident", "hibernated"):
        if not row[mode]["accounting_ok"]:
            failures.append(f"{mode}: exactly-once accounting violated")
        if not row[mode]["solutions_ok"]:
            failures.append(f"{mode}: streams diverged from reference")
        if row[mode]["failed"]:
            failures.append(f"{mode}: {row[mode]['failed']} sessions "
                            f"failed")
    if row["hibernated"]["hibernation_spills"] == 0:
        failures.append("pressure budget produced no hibernation")
    if row["resident"]["hibernation_spills"] != 0:
        failures.append("resident mode unexpectedly hibernated")
    return failures


def check_regression(report: dict, baseline_path: str,
                     max_regression: float = 0.75) -> str:
    """Gate the dimensionless hibernation-overhead ratio against the
    committed baseline: hardware speed cancels out of the ratio, so a
    ceiling of ``committed * (1 + max_regression)`` transfers across
    runners.  The tolerance is wide because both numerators are
    single-digit-millisecond step latencies.  Raises AssertionError on
    regression; returns the gate message otherwise."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    committed = baseline["gate"]["hibernation_overhead"]
    current = report["gate"]["hibernation_overhead"]
    ceiling = committed * (1.0 + max_regression)
    assert current <= ceiling, (
        f"session bench regression: hibernation overhead {current:.3f}x "
        f"exceeds {ceiling:.3f}x ({100 * max_regression:.0f}% over the "
        f"committed {committed:.3f}x)")
    return (f"hibernation overhead {current:.3f}x within "
            f"{ceiling:.3f}x ceiling (committed {committed:.3f}x)")


# -- pytest harness ----------------------------------------------------------

def test_sessions_smoke():
    row = run_sessions_bench(sessions=8)
    _report_bench(row)
    assert not _gate_bench(row), _gate_bench(row)


def test_sessions_chaos_smoke():
    row = run_sessions_chaos_smoke()
    _report_chaos(row)
    assert row["ok"], row["mismatches"]


# -- standalone CI smoke -----------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--sessions", type=int, default=24)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--chaos", action="store_true",
                        help="run the session chaos invariant smoke "
                             "instead of the capacity/latency soak")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized soak (8 sessions)")
    parser.add_argument("--baseline",
                        help="gate against this committed report")
    parser.add_argument("--output", help="write the report as JSON here")
    args = parser.parse_args(argv)

    if args.chaos:
        row = run_sessions_chaos_smoke(seed=args.seed,
                                       workers=args.workers or 2)
        _report_chaos(row)
        failures = [] if row["ok"] else ["session chaos invariant violated"]
    else:
        if args.quick:
            args.sessions = 8
        row = run_sessions_bench(seed=args.seed, sessions=args.sessions,
                                 workers=args.workers)
        _report_bench(row)
        failures = _gate_bench(row)
        if args.baseline and not failures:
            try:
                print(f"  gate: {check_regression(row, args.baseline)}")
            except AssertionError as err:
                failures.append(str(err))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(row, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {args.output}")
    for failure in failures:
        print(f"  GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                    os.pardir, "src"))
    sys.exit(main())
