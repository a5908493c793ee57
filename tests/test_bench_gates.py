"""The bench regression gates.  Parallel service: the speedup-vs-naive
dimension only compares like batches, the qps-vs-cached data-plane
dimension transfers across batch mixes, and the parallelism-pays gate
reads the measured verdicts.  Host throughput: the warm speedup has a
floor and ``cold_over_warm`` a ceiling, both relative to the committed
report.  Pure JSON plumbing — no pools spawned, nothing timed."""

import json

import pytest

from repro.bench import host_throughput
from repro.bench.parallel_service import check_beats_cached, check_regression

BATCH = {"queries": 50, "programs": ["con1"], "short_reps": 8}
OTHER_BATCH = {"queries": 25, "programs": ["con1"], "short_reps": 4}


def _report(batch, speedup, qps_ratio, beats=True):
    worker_mode = {"qps_vs_cached": qps_ratio,
                   "queries_per_second": 500.0 * qps_ratio,
                   "beats_cached": beats}
    return {
        "batch": dict(batch),
        "gate": {"mode": "service_w4", "workers": 4,
                 "speedup_vs_naive": speedup,
                 "beats_cached": {"service_w2": beats,
                                  "service_w4": beats}},
        "modes": {"service_w4": dict(worker_mode),
                  "service_w2": dict(worker_mode),
                  "cached_sequential": {"qps_vs_cached": 1.0,
                                        "queries_per_second": 500.0}},
    }


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(_report(BATCH, 15.0, 1.0)))
    return str(path)


def test_same_batch_gates_speedup(baseline):
    message = check_regression(_report(BATCH, 14.0, 0.95), baseline,
                               max_regression=0.35)
    assert "speedup" in message
    with pytest.raises(AssertionError, match="regression"):
        check_regression(_report(BATCH, 9.0, 0.95), baseline,
                         max_regression=0.35)


def test_different_batch_skips_speedup_dimension(baseline):
    # 9.0x would trip the same-batch floor (15.0 * 0.65 = 9.75), but a
    # quick smoke measures a different mix, so it must not gate there.
    message = check_regression(_report(OTHER_BATCH, 9.0, 0.95), baseline,
                               max_regression=0.35)
    assert "different batch" in message


def test_qps_vs_cached_gates_across_batches(baseline):
    with pytest.raises(AssertionError, match="data-plane"):
        check_regression(_report(OTHER_BATCH, 9.0, 0.5), baseline,
                         max_regression=0.35)


def test_beats_cached_reads_verdicts():
    assert "beats" in check_beats_cached(_report(BATCH, 15.0, 1.1),
                                         min_workers=2)
    with pytest.raises(AssertionError):
        check_beats_cached(_report(BATCH, 15.0, 0.9, beats=False),
                           min_workers=2)


def _host_report(speedup, cold_over_warm):
    return {"aggregate": {"speedup": speedup,
                          "cold_over_warm": cold_over_warm}}


@pytest.fixture
def host_baseline(tmp_path):
    path = tmp_path / "host_baseline.json"
    path.write_text(json.dumps(_host_report(2.5, 1.1)))
    return str(path)


def test_host_throughput_gates_pass_inside_both_bounds(host_baseline):
    # Floor 2.5 * 0.75 = 1.875; ceiling 1.1 * (1 + COLD_TOLERANCE).
    ceiling = 1.1 * (1.0 + host_throughput.COLD_TOLERANCE)
    message = host_throughput.check_regression(
        _host_report(1.9, ceiling - 0.01), host_baseline,
        max_regression=0.25)
    assert "speedup" in message and "cold_over_warm" in message


def test_host_throughput_speedup_floor_fails(host_baseline):
    with pytest.raises(AssertionError, match="aggregate speedup 1.800x"):
        host_throughput.check_regression(
            _host_report(1.8, 1.1), host_baseline, max_regression=0.25)


def test_host_throughput_cold_ceiling_fails(host_baseline):
    ceiling = 1.1 * (1.0 + host_throughput.COLD_TOLERANCE)
    with pytest.raises(AssertionError, match="cold_over_warm") as info:
        host_throughput.check_regression(
            _host_report(2.5, ceiling + 0.01), host_baseline,
            max_regression=0.25)
    assert "speedup" not in str(info.value)


def test_host_throughput_reports_both_failures(host_baseline):
    with pytest.raises(AssertionError,
                       match="speedup .*; cold_over_warm"):
        host_throughput.check_regression(
            _host_report(1.0, 5.0), host_baseline, max_regression=0.25)
