"""Tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e/test_e2e.py`` (the quick
runs take about a minute).
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.serve import EnginePool, ImageCache, QueryService, image_key  # noqa: E402
from tracing import Tracer, percentile, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_same_seed_same_inputs():
    for seed in (0, 2026):
        assert _take(workloads.suite_rounds(seed), 20) == \
            _take(workloads.suite_rounds(seed), 20)
        assert workloads.adhoc_pool(seed) == workloads.adhoc_pool(seed)
        assert _take(workloads.zipf_ranks(seed), 2000) == \
            _take(workloads.zipf_ranks(seed), 2000)
        pool = workloads.session_pool(seed)
        assert pool == workloads.session_pool(seed)
        assert _take(workloads.session_opens(seed, pool), 500) == \
            _take(workloads.session_opens(seed, pool), 500)
        assert _take(workloads.pool_batches(seed), 20) == \
            _take(workloads.pool_batches(seed), 20)
    assert workloads.adhoc_pool(1) != workloads.adhoc_pool(2)
    assert _take(workloads.pool_batches(1), 5) != \
        _take(workloads.pool_batches(2), 5)


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_adhoc_pool_is_96_distinct_images(seed):
    pool = workloads.adhoc_pool(seed)
    keys = {image_key(workloads.ADHOC_PROGRAMS[program], query)
            for program, query in pool}
    assert len(pool) == len(keys) == workloads.ADHOC_POOL_SIZE == 96


def test_adhoc_pool_sits_between_machine_pool_and_image_cache():
    """The workload exists to miss the machine pool but hit the image
    cache; a changed default must fail here, not silently change it."""
    service_default = inspect.signature(QueryService).parameters[
        "max_machines"].default
    assert EnginePool().max_machines == service_default
    assert service_default < workloads.ADHOC_POOL_SIZE
    assert workloads.ADHOC_POOL_SIZE < ImageCache().max_entries


def _span(op, name, start, end, parent):
    return [op, name, start, end, parent, None]


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span(0, "op", 0.0, 10.0, -1),          # 0
        _span(0, "service", 1.0, 9.0, 0),       # 1
        _span(0, "machine_for", 1.5, 3.0, 1),   # 2
        _span(0, "construct", 1.5, 2.5, 2),     # 3
        _span(0, "run", 3.0, 8.0, 1),           # 4
        _span(0, "predecode", 3.0, 4.0, 4),     # 5
        _span(1, "op", 10.0, 12.0, -1),         # 6
    ]
    assert self_times(spans) == pytest.approx(
        [2.0, 1.5, 0.5, 1.0, 4.0, 1.0, 2.0])
    # Self times of a tree sum to its root's duration.
    assert sum(self_times(spans)[:6]) == pytest.approx(10.0)


def test_percentile_takes_the_higher_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.95) == 3.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0
    assert percentile(list(range(100)), 0.95) == 95
    assert percentile(list(range(10)), 0.25) == 2
    assert percentile(list(range(10)), 0.75) == 7


class _Toy:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return (cls, x)


def test_tracer_records_spans_and_restores_originals():
    originals = (_Toy.__dict__["method"], _Toy.__dict__["make"])
    tracer = Tracer()
    tracer.wrap(_Toy, "method", "Toy.method")
    tracer.wrap(_Toy, "make", "Toy.make", size=lambda args: args[1])
    with tracer.root("op") as op_id:
        assert _Toy().method(1) == 2
        assert _Toy.make(7) == (_Toy, 7)
    _Toy().method(0)                      # outside every root
    tracer.restore()
    assert (_Toy.__dict__["method"], _Toy.__dict__["make"]) == originals
    names = [(span[0], span[1], span[4], span[5]) for span in tracer.spans]
    assert names == [(op_id, "op", -1, None), (op_id, "Toy.method", 0, None),
                     (op_id, "Toy.make", 0, 7), (-1, "Toy.method", -1, None)]


def test_install_restores_every_layer():
    tracer = Tracer()
    before = [owner.__dict__[attr] if isinstance(owner, type)
              else getattr(owner, attr)
              for owner, attr, _ in harness.LAYER_CALLS]
    harness.install(tracer)
    tracer.restore()
    after = [owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)
             for owner, attr, _ in harness.LAYER_CALLS]
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == harness.PER_LAYER


def _run(workload, *extra):
    """A quick run in a process group of its own, of which no process
    (a pool worker, multiprocessing's resource tracker) may outlive it."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "2026", "--quick", *extra]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as process:
        stdout, _ = process.communicate(timeout=170)
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)
    assert process.returncode == 0
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_runs_of_every_workload():
    """All four workloads, 3 s windows and one set-up sample, in at
    most 90 s, every end-to-end metric present with its unit, and no
    operation failed or mismatched."""
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    started = time.monotonic()
    for workload in harness.WORKLOADS:
        result = _run(workload, "--trace", "0")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} == expected
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert time.monotonic() - started <= 90


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_quick_traced_run_reports_every_layer(workload):
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    result = _run(workload, "--trace", "1")
    metrics = result["metrics"]
    assert result["correct"]
    assert {name: entry["unit"] for name, entry in metrics.items()} == expected
    # Self times account for the traced window's wall time.
    assert metrics["trace.self_time_coverage"]["value"] == \
        pytest.approx(1.0, abs=0.05)


def test_fails_without_the_program_under_test(tmp_path):
    """In a copy holding only the benchmark, the command must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "suite_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
