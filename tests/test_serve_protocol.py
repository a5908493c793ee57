"""The data-plane protocol: images, micro-batches, streamed results.

Covers image shipping over each worker's task queue end to end (one
pickle per image per service, re-queued to every respawned worker,
derived state dropped in step with the ImageCache even when the
eviction fires on another thread, everything cleared on close, and no
queue feeder thread left running after close), micro-batch chunking
at ``batch_max``, worker heartbeats that actually reset, the
streamed-result sender's flush cadence, and bit-identical results
across protocol configurations under chaos.

Worker processes are real ``spawn`` children, so this file keeps the
pools small and closes them promptly."""

import sys
import threading
import time
from collections import deque

import pytest

from repro.serve import (
    ChaosPolicy, QueryService, RetryPolicy, verify_chaos_invariant,
)
from repro.serve.cache import ImageCache, image_key
from repro.serve.service import EnginePool, _BatchState, _ResultSender

FACTS = "colour(red). colour(green). colour(blue)."
APPEND = ("append([], L, L). "
          "append([H|T], L, [H|R]) :- append(T, L, R).")
NREV = (APPEND +
        " nrev([], []). "
        "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R). "
        "mklist(0, []). "
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T). "
        "run(N, R) :- mklist(N, L), nrev(L, R).")

PROGRAMS = {"facts": FACTS, "append": APPEND, "nrev": NREV}

#: distinct single-program services keyed by suffix, used to pressure
#: a tiny cache: each is its own source text, so each compiles to its
#: own image key.
def _variant_programs(count):
    return {f"facts{i}": FACTS + f" extra{i}(x)." for i in range(count)}


# -- the parent-side pickle cache is bounded by the ImageCache ---------------

def test_derived_state_evicted_with_cache():
    """Regression for the unbounded ``_payloads`` dict: when the
    ImageCache evicts a key, every piece of derived per-key state —
    the parent-side pickle and the workers' shipped records — must go
    with it by the end of the batch that saw the eviction."""
    programs = _variant_programs(6)
    cache = ImageCache(max_entries=2)
    with QueryService(programs, workers=1, cache=cache) as service:
        for i in range(6):
            assert service.run((f"facts{i}", "colour(C)")).ok
        # The cache holds at most 2 images; the service must not be
        # holding payloads for the 4+ evicted keys.
        assert len(service._payloads) <= 2
        live = {key for key in cache._images}
        assert set(service._payloads) <= live
        assert all(set(shipped) <= live
                   for shipped in service._shipped)


def test_eviction_on_another_thread_never_strands_a_chunk():
    """An eviction can fire on any thread that calls the cache.  One
    thread evicts the served image in a tight loop while the main
    thread runs batches: the listener only parks the key and the
    collector applies the drop behind everything it queued, so every
    chunk finds its image on the worker and every slot succeeds."""
    cache = ImageCache(max_entries=8)
    key = image_key(FACTS, "colour(C)")
    stop = threading.Event()
    interval = sys.getswitchinterval()
    with QueryService(FACTS, workers=1, cache=cache) as service:
        assert service.run("colour(C)").ok

        def evict_until_stopped():
            while not stop.is_set():
                service._on_cache_eviction(key)

        evictor = threading.Thread(target=evict_until_stopped, daemon=True)
        sys.setswitchinterval(1e-6)
        try:
            evictor.start()
            errors = [result.error for result in
                      (service.run("colour(C)") for _ in range(200))
                      if not result.ok]
        finally:
            stop.set()
            evictor.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not evictor.is_alive()
        assert errors == []


def test_close_clears_payloads():
    """Regression: the seed's close() reset queues and pools but left
    ``_payloads`` populated for the life of the service object."""
    service = QueryService(PROGRAMS, workers=1)
    try:
        assert service.run(("facts", "colour(C)")).ok
        assert service._payloads      # the image was pickled to ship
    finally:
        service.close()
    assert service._payloads == {}
    assert service._shipped == []


def test_eviction_listener_removed_on_close():
    cache = ImageCache(max_entries=8)
    service = QueryService(PROGRAMS, workers=1, cache=cache)
    assert service.run(("facts", "colour(C)")).ok
    assert len(cache._eviction_listeners) == 1
    service.close()
    assert cache._eviction_listeners == []


# -- images over the task queue ----------------------------------------------

def test_chaos_kill_reships_images_to_respawned_workers():
    """A chaos-killed worker dies by ``os._exit`` holding nothing: each
    respawned worker receives the image again before its first chunk,
    the retried queries come back bit-identical, and the parent keeps
    one pickle per image across the respawns."""
    batch = [("nrev", "run(20, R)"), ("nrev", "run(15, R)")]
    with QueryService(PROGRAMS, workers=0) as reference:
        expected = reference.run_many(batch)
    chaos = ChaosPolicy(seed=3, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=1)
    with QueryService(PROGRAMS, workers=2) as service:
        results = service.run_many(
            batch, chaos=chaos,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01))
        health = service.health()
        assert health.crashes == 2 and health.retries == 2
        for want, got in zip(expected, results):
            assert got.ok and got.solutions == want.solutions
            assert got.stats == want.stats
        assert set(service._payloads) == {
            image_key(NREV, query) for _, query in batch}
        assert all(shipped <= set(service._payloads)
                   for shipped in service._shipped)


# -- micro-batch chunking ----------------------------------------------------

def _chunk_state(keys):
    """A minimal _BatchState whose prepared list carries fake keys."""
    return _BatchState(
        queries=[("p", "q")] * len(keys),
        prepared=[(key, None) for key in keys],
        opts={}, timeout_s=None, results=[None] * len(keys),
        policy=None, chaos=None, batch_deadline=None,
        runnable=deque(range(len(keys))), idle=deque())


def test_next_chunk_coalesces_same_key_up_to_batch_max():
    service = QueryService(FACTS, workers=0, batch_max=4)
    try:
        state = _chunk_state(list("AABABBAAAA"))
        chunk = service._next_chunk(state)
        # Head is slot 0 (key A); same-key slots 1, 3, 6 coalesce and
        # the chunk stops at batch_max=4 even though more As remain.
        assert chunk == [0, 1, 3, 6]
        # Skipped different-key slots return to the front, in order.
        assert list(state.runnable) == [2, 4, 5, 7, 8, 9]
        chunk = service._next_chunk(state)
        assert chunk == [2, 4, 5]       # the Bs
        chunk = service._next_chunk(state)
        assert chunk == [7, 8, 9]       # the remaining As
        assert not state.runnable
    finally:
        service.close()


def test_batch_max_one_disables_coalescing():
    service = QueryService(FACTS, workers=0, batch_max=1)
    try:
        state = _chunk_state(list("AAA"))
        assert service._next_chunk(state) == [0]
        assert list(state.runnable) == [1, 2]
    finally:
        service.close()


def test_batch_max_validated():
    with pytest.raises(ValueError):
        QueryService(FACTS, workers=0, batch_max=0)


@pytest.mark.parametrize("batch_max", [1, 8])
def test_chaos_invariant_across_protocol_configs(batch_max):
    """Micro-batched and singleton protocols both return bit-identical
    results under chaos kills: the per-query semantics (retry, resume,
    accounting) survive coalescing."""
    from repro.bench.programs import SUITE
    corpus = ["con1", "nrev1", "times10", "log10"]
    programs = {name: SUITE[name].source_pure for name in corpus}
    batch = [(name, SUITE[name].query_pure) for name in corpus] * 3
    chaos = ChaosPolicy(seed=11, kill_rate=0.4, kill_window=(400, 4_000),
                        max_kills_per_slot=1)
    report = verify_chaos_invariant(
        programs, batch, chaos, workers=2, checkpoint_every=5_000,
        batch_max=batch_max)
    assert report["ok"], report["mismatches"]


# -- heartbeats and streaming ------------------------------------------------

def test_on_slice_fires_at_slice_boundaries():
    """EnginePool.run calls ``on_slice`` at every cooperative stop
    boundary of a sliced run — the hook workers use for mid-query
    liveness."""
    from repro.serve.cache import default_image_cache
    image = default_image_cache().get(NREV, "run(40, R)")
    pool = EnginePool()
    ticks = []
    machine, stats, _ = pool.run(
        image_key(NREV, "run(40, R)"), image,
        {"all_solutions": False, "max_cycles": None, "recovery": False,
         "checkpoint_every": 2_000},
        on_slice=lambda: ticks.append(1))
    assert machine.solutions
    assert len(ticks) >= stats.cycles // 2_000 - 1


def test_result_sender_batches_then_streams():
    """With a fast clock the sender coalesces outcomes into one
    ``done`` message; once the flush interval passes it streams."""
    clock = [0.0]
    sent = []

    class FakeConn:
        def send(self, message):
            sent.append(message)

    sender = _ResultSender(FakeConn(), worker_id=7,
                           flush_interval_s=1.0, hb_interval_s=5.0,
                           clock=lambda: clock[0])
    sender.add(("a",))
    sender.add(("b",))
    assert sent == []                 # buffered: interval not reached
    sender.flush()
    assert sent == [("done", 7, [("a",), ("b",)])]
    clock[0] = 2.0
    sender.add(("c",))                # stale stream: flushes immediately
    assert sent[-1] == ("done", 7, [("c",)])


def test_result_sender_tick_heartbeats_when_quiet():
    clock = [0.0]
    sent = []

    class FakeConn:
        def send(self, message):
            sent.append(message)

    sender = _ResultSender(FakeConn(), worker_id=3,
                           flush_interval_s=0.05, hb_interval_s=1.0,
                           clock=lambda: clock[0])
    sender.tick()
    assert sent == []                 # quiet but not stale yet
    clock[0] = 1.5
    sender.tick()
    assert len(sent) == 1 and sent[0][0] == "hb"
    clock[0] = 1.6
    sender.tick()
    assert len(sent) == 1             # heartbeat interval not re-reached


def test_heartbeat_ages_reset_on_completed_tasks():
    """Regression for stale heartbeat reporting: the seed workers sent
    one startup herald only, so a busy worker's heartbeat age grew
    without bound.  Now every completed task refreshes it."""
    with QueryService(FACTS, workers=1) as service:
        assert service.run("colour(C)").ok
        first = service.health().heartbeat_age_s[0]
        time.sleep(0.4)
        aged = service.health().heartbeat_age_s[0]
        assert aged >= first + 0.35   # no traffic: the age just grows
        assert service.run("colour(C)").ok
        refreshed = service.health().heartbeat_age_s[0]
        assert refreshed < aged       # the completed task reset it


# -- close() under backlog ---------------------------------------------------

def test_close_drains_backlog_without_terminate():
    """Regression for slow close(): a worker with a large undelivered
    result backlog blocks at exit writing to the result pipe.  close()
    drains while joining, so the worker exits voluntarily (exit code
    0) instead of eating the grace window and a terminate()."""
    service = QueryService(FACTS, workers=1, batch_max=1)
    assert service.run("colour(C)").ok           # worker warm, image shipped
    key = image_key(FACTS, "colour(C)")
    opts = {"all_solutions": True, "max_cycles": None, "recovery": False,
            "checkpoint_every": None}
    # Bypass run_many: enqueue a chunk of 400 tasks whose results will
    # sit undelivered in the result pipe (nobody is collecting).
    service._task_queues[0].put(
        ("tasks", key, [(i, 1, opts, None) for i in range(400)]))
    patience = time.monotonic() + 30.0
    while not service._result_conns[0].poll(0):
        assert time.monotonic() < patience, "worker produced nothing"
        time.sleep(0.02)
    process = service._processes[0]
    started = time.monotonic()
    service.close()
    elapsed = time.monotonic() - started
    assert process.exitcode == 0, (
        f"worker was terminated (exit {process.exitcode}) instead of "
        f"draining to a clean exit")
    assert elapsed < 10.0


def test_close_leaves_no_queue_feeder_threads():
    """close() closes every task queue and joins its feeder thread.  A
    feeder still running after close() keeps its queue's semaphores
    registered with the resource tracker, which then reports them as
    leaked when it is stopped at interpreter shutdown."""
    before = set(threading.enumerate())
    service = QueryService(PROGRAMS, workers=2)
    # Held across close(): the feeders must stop because close() stops
    # them, not because the queues happen to be collected first.
    queues = list(service._task_queues)
    try:
        results = service.run_many(
            [("facts", "colour(C)"), ("nrev", "run(8, R)")] * 2)
        assert all(result.ok for result in results)
    finally:
        service.close()
    left = [thread.name for thread in threading.enumerate()
            if thread not in before]
    assert left == [], f"threads left after closing {len(queues)} queues"
