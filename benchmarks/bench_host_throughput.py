"""Host throughput: the predecoded fast path vs the seed interpreter.

Measures the simulator's own wall-clock on the KCM suite under
``Machine(fast_path=True)`` (predecoded threaded dispatch plus the
fused memory path, see docs/PERF.md) and under the ablation
(``fast_path=False``, the seed per-instruction loop), cross-checking
on every round that both produce bit-identical simulated statistics.
Each rep also times a fresh machine over each cached image to the end
of its first run (``cold_ms``).  Emits ``BENCH_host_throughput.json``;
the committed copy at the repository root is the CI regression
baseline, gated on two dimensionless ratios (the speedup and
``cold_over_warm``) so runner hardware does not matter.

Run under pytest-benchmark (``pytest benchmarks/bench_host_throughput.py
--benchmark-only``) or standalone for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_host_throughput.py --quick \
        --baseline BENCH_host_throughput.json
"""

from __future__ import annotations

import argparse
import sys

#: Best-of-N rounds; the full report uses more rounds than the smoke
#: run because the committed baseline should be low-noise.  Three
#: smoke rounds let one host speed step decide ``cold_over_warm``
#: (0.99-2.43x over twelve runs); five keep it within 1.43-1.80x.
FULL_REPS = 8
QUICK_REPS = 5


def _report(report: dict) -> None:
    rows = report["programs"]
    print(f"\n  {'program':>10} {'fast ms':>9} {'ablation ms':>12} "
          f"{'speedup':>8} {'host klips':>11} {'cold ms':>9}")
    for name, row in rows.items():
        print(f"  {name:>10} {row['fast_ms']:>9.2f} "
              f"{row['ablation_ms']:>12.2f} {row['speedup']:>7.2f}x "
              f"{row['host_klips_fast']:>11.1f} {row['cold_ms']:>9.2f}")
    agg = report["aggregate"]
    print(f"  {'TOTAL':>10} {agg['fast_ms_total']:>9.2f} "
          f"{agg['ablation_ms_total']:>12.2f} {agg['speedup']:>7.2f}x "
          f"{'':>11} {agg['cold_ms_total']:>9.2f}")
    print(f"  geomean speedup {agg['geomean_speedup']:.2f}x, "
          f"cold over warm {agg['cold_over_warm']:.2f}x")


# -- pytest-benchmark harness ------------------------------------------------

def test_host_throughput(benchmark):
    from repro.bench.host_throughput import measure_suite

    report = benchmark.pedantic(
        lambda: measure_suite(reps=QUICK_REPS), rounds=1, iterations=1)
    _report(report)
    benchmark.extra_info["aggregate_speedup"] = \
        report["aggregate"]["speedup"]
    benchmark.extra_info["geomean_speedup"] = \
        report["aggregate"]["geomean_speedup"]
    assert report["identity_checked"]
    # The fast path must decisively be one: with superinstruction
    # fusion the full suite runs ~2.5x on an idle host, so even a
    # noisy shared runner clears 1.8x with margin — dropping under it
    # means the fusion layer (or the predecode layer under it) has
    # stopped carrying its weight.
    assert report["aggregate"]["speedup"] > 1.8


# -- standalone CI smoke -----------------------------------------------------

def main(argv=None) -> int:
    from repro.bench.host_throughput import (
        QUICK_PROGRAMS, check_regression, measure_suite, write_report,
    )

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="four programs, fewer rounds (CI smoke)")
    parser.add_argument("--output", default="BENCH_host_throughput.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None,
                        help="committed report to gate the speedup "
                             "and cold_over_warm ratios against")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional loss of the committed "
                             "speedup ratio (default 0.25)")
    args = parser.parse_args(argv)

    programs = QUICK_PROGRAMS if args.quick else None
    reps = QUICK_REPS if args.quick else FULL_REPS
    report = measure_suite(programs=programs, reps=reps)
    _report(report)
    # Gate against the baseline BEFORE writing: --output may name the
    # same file, and writing first would make the regression check
    # compare the report against itself.
    gate_failure = None
    gate_message = None
    if args.baseline:
        try:
            gate_message = check_regression(report, args.baseline,
                                            args.max_regression)
        except AssertionError as exc:
            gate_failure = exc
    write_report(report, args.output)
    print(f"\n  report written to {args.output}")
    if gate_message:
        print("  " + gate_message)
    if gate_failure is not None:
        raise gate_failure
    return 0


if __name__ == "__main__":
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                    os.pardir, "src"))
    sys.exit(main())
