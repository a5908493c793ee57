#!/usr/bin/env python3
"""End-to-end benchmark of the KCM reproduction's serving stack.

Four seeded workloads run against the public APIs of ``repro.serve``
and ``repro.core``; every output is checked against the seed
interpreter.  See README.md in this directory for the workloads, the
metrics and how to read them.

One workload, one result (the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``)::

    python3 benchmarks/e2e/run.py --workload suite_warm --seed 1 \\
        --seconds 15 --trace 0

Every workload, each in its own fresh subprocess, as a table; with
``--trace`` also the traced runs, their per-layer numbers and the
tracing overhead; ``--quick`` for 3 s windows and one set-up sample::

    python3 benchmarks/e2e/run.py --seed 2026 [--trace] [--quick]

Exits non-zero when an output differs from the reference or an
operation fails.  The program under test is built from ``src/`` of the
checkout this file sits in; without it the command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]
SETUP_SAMPLES = 5
QUICK_SECONDS = 3
#: headroom a child gets past its window for reference, set-up,
#: warm-up and the output check.
CHILD_TIMEOUT_S = 170


def stop_processes() -> None:
    """Stop every process this one started and wait for each to end:
    any pool worker a service left behind, and the resource tracker
    that multiprocessing starts for the pool and its shared memory,
    which would otherwise outlive this process."""
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker
    for process in multiprocessing.active_children():
        process.kill()
        process.join()
    # The closed services' queues and locks unregister from the tracker
    # when they are finalized; one finalized after the tracker stopped
    # would start a new one.
    gc.collect()
    resource_tracker._resource_tracker._stop()


def run_one(args) -> int:
    import harness
    from tracing import Tracer, spans_to_json
    tracer = Tracer() if args.trace else None
    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             1 if args.quick else SETUP_SAMPLES, tracer)
    finally:
        stop_processes()
    if tracer is not None:
        harness.OUT_DIR.mkdir(exist_ok=True)
        path = harness.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w") as handle:
            json.dump(dict(workload=args.workload, seed=args.seed,
                           **spans_to_json(tracer.spans)), handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child(name: str, args, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + (["--quick"] if args.quick else [])
    # In a session of its own, so that a child that overruns is killed
    # together with the pool workers it started.
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as process:
        try:
            stdout, _ = process.communicate(
                timeout=args.seconds + CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit {process.returncode})")
    return json.loads(lines[-1])


def run_all(args) -> int:
    import harness
    print(f"seed {args.seed}, {args.seconds} s windows")
    correct = True
    for name in WORKLOAD_NAMES:
        result = child(name, args, 0)
        correct &= result["correct"]
        metrics = result["metrics"]
        failed_ratio = result["failed"] / result["attempted"]
        print(f"\n{name}: {result['attempted']} ops, "
              f"correct={result['correct']}")
        for metric, entry in metrics.items():
            print(f"  {metric:<18} {entry['value']:>12.4f} {entry['unit']}")
        print(f"  {'failed_ratio':<18} {failed_ratio:>12.4f} ratio")
        if args.trace:
            traced = child(name, args, 1)
            correct &= traced["correct"]
            layers = traced["metrics"]
            overhead = (layers["trace.throughput_ops_s"]["value"]
                        / metrics["throughput_ops_s"]["value"])
            print(f"  traced: throughput {overhead:.3f}x untraced")
            for metric, _, _ in harness.PER_LAYER:
                entry = layers[metric]
                print(f"    {metric:<38} {entry['value']:>12.4f} "
                      f"{entry['unit']}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process and print "
                             "its JSON result (default: all, as a table)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured window per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows, one set-up sample")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        parser.exit(2, f"{parser.prog}: no program under test: "
                       f"{SRC / 'repro'} is missing\n")
    if args.seconds is None:
        args.seconds = (QUICK_SECONDS if args.quick
                        else BENCHMARK["run_seconds"])
    sys.path[:0] = [str(SRC)]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
