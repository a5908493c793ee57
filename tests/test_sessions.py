"""Fault-tolerant session engines: a ``run_steps`` resume token is
the engine, and it streams bit-identically across pickling, processes
and hibernation; the engine store hibernates under a byte budget with
verified wakes; and the session service survives chaos kills, lease
expiries and corrupt spills with exactly-once accounting."""

import pickle

import pytest

from repro.bench.programs import SUITE
from repro.core.machine import Machine
from repro.serve import (
    ChaosPolicy, EngineStore, EngineStoreCorrupt, ImageCache, LeasePolicy,
    QueryService, RetryPolicy, SessionError, SessionExpired,
    SessionLoadSpec, SessionReaper, SessionService, UnknownSession,
    run_session_soak, verify_session_chaos_invariant,
)
from repro.serve.session import DONE, EXPIRED, FAILED, SOLUTION

NAMES = ["queens", "mutest", "con1", "nrev1", "divide10", "query"]
PROGRAMS = {name: SUITE[name].source_pure for name in NAMES}
MIX = [(name, SUITE[name].query_pure) for name in NAMES]


@pytest.fixture(scope="module")
def reference():
    """Fault-free in-process all-solutions results, one per MIX slot."""
    with QueryService(PROGRAMS, workers=0, all_solutions=True) as service:
        return service.run_many(MIX)


def _ref(reference, name):
    return reference[NAMES.index(name)]


def _stream(service, name, payload=None, steps=None):
    """Step ``name``'s query through ``service.run_steps`` from
    ``payload`` (``None``: open the stream) until ``steps`` solutions
    have arrived or the search finishes.  Returns the solutions in the
    order they arrived, counted from the start of the stream (a token
    carries the ones found before it), and the last step's result."""
    query = SUITE[name].query_pure
    solutions, result = [], None
    while steps is None or len(solutions) < steps:
        result = service.run_steps([(name, query, payload)])[0]
        assert result.ok, result.error
        solutions.extend(result.solutions[len(solutions):])
        if not result.paused:
            break
        payload = result.session_payload
    return solutions, result


# -- the engine: a run_steps resume token ------------------------------------

class TestEngine:
    def test_streams_bit_identically(self, reference):
        expected = _ref(reference, "queens")
        with QueryService(PROGRAMS, workers=0) as service:
            streamed, final = _stream(service, "queens")
        assert streamed == expected.solutions
        assert final.solutions == expected.solutions
        assert final.stats == expected.stats
        assert final.session_payload is None

    def test_pause_pickle_resume_mid_stream(self, reference):
        """A token taken mid-stream in-process finishes on a worker
        process, bit-identically."""
        expected = _ref(reference, "queens")
        with QueryService(PROGRAMS, workers=0) as service:
            first, paused = _stream(service, "queens", steps=2)
        assert paused.paused and len(first) == 2
        payload = pickle.loads(pickle.dumps(paused.session_payload))
        with QueryService(PROGRAMS, workers=1) as service:
            rest, final = _stream(service, "queens", payload)
        assert first + rest[2:] == expected.solutions
        assert final.solutions == expected.solutions
        assert final.stats == expected.stats

    def test_paused_token_holds_only_the_written_cells(self):
        """A paused step's token copies the cells the run wrote and the
        cache lines it filled, and nothing else, so it stays small: the
        seed path's own store writes, recorded one by one, are exactly
        its store part, and the seed machine's valid lines, found by a
        scan, are exactly its cache part."""
        program, query = SUITE["query"].source_pure, "density(C, D)"
        with QueryService({"query": program}, workers=0) as service:
            result = service.run_steps([("query", query, None)])[0]
        assert result.paused
        assert len(result.session_payload) < 8 * 1024
        token = pickle.loads(result.session_payload)

        image = ImageCache().get(program, query)
        machine = Machine(symbols=image.symbols, fast_path=False)
        store = machine.memory.store
        written = {}
        plain_write = store.write

        def recording_write(address, word):
            plain_write(address, word)
            written[address] = word
        store.write = recording_write
        image.install(machine)
        machine.stop_on_solution = True
        machine.run(image.entry, collect_all=True,
                    answer_names=image.query_variable_names)
        assert machine.solution_paused
        assert token.store_words == written
        data, code = machine.memory.data_cache, machine.memory.code_cache
        assert token.timing["data_lines"] == {
            i: (tag, data.dirty[i]) for i, tag in enumerate(data.tags)
            if tag is not None}
        assert token.timing["code_lines"] == {
            i: tag for i, tag in enumerate(code.tags) if tag is not None}

    def test_sliced_mode_checkpoints_and_stays_identical(self, reference):
        expected = _ref(reference, "queens")
        with QueryService(PROGRAMS, workers=1,
                          checkpoint_every=5_000) as service:
            streamed, final = _stream(service, "queens")
            health = service.health()
        assert streamed == expected.solutions
        assert final.stats == expected.stats
        assert health.checkpoints_received, "the cycle grid never fired"


@pytest.mark.parametrize("workers", [0, 1])
def test_corrupt_payload_fails_its_step_only(workers, reference):
    """A token that does not unpickle fails its own step with a
    per-slot error, and the steps after it still run (in-process, the
    UnpicklingError used to escape the whole call)."""
    queens = ("queens", SUITE["queens"].query_pure, None)
    with QueryService(PROGRAMS, workers=workers) as service:
        results = service.run_steps([
            queens,
            ("con1", SUITE["con1"].query_pure, b"garbage-not-a-pickle"),
            queens])
        health = service.health()
    assert not results[1].ok
    assert results[1].error.kind == "UnpicklingError"
    for result in (results[0], results[2]):
        assert result.ok and result.paused
        assert result.solutions == _ref(reference, "queens").solutions[:1]
    assert (health.completed, health.failed) == (2, 1)


# -- EngineStore: hibernation ------------------------------------------------

class TestEngineStore:
    def test_budget_spills_lru_and_wakes_verified(self):
        with EngineStore(budget_bytes=100) as store:
            store.put("a", b"x" * 80)
            store.put("b", b"y" * 80)      # "a" hibernates
            store.put("c", b"z" * 80)      # "b" hibernates
            assert len(store) == 3
            assert store.hibernated_count == 2
            assert store.spills == 2
            assert "a" in store and "b" in store and "c" in store
            assert store.get("a") == b"x" * 80
            assert store.wakes == 1
            # The wake re-admitted "a" as warmest; "c" went cold.
            assert store.get("b") == b"y" * 80
            assert store.wakes == 2

    def test_corrupted_spill_refuses_to_wake(self):
        with EngineStore(budget_bytes=10) as store:
            store.put("a", b"x" * 64)
            store.put("b", b"y" * 64)      # "a" hibernates
            path = store._hibernated["a"][0]
            with open(path, "wb") as handle:
                handle.write(b"garbage")
            with pytest.raises(EngineStoreCorrupt):
                store.get("a")

    def test_pop_and_close_balance_to_zero(self, tmp_path):
        store = EngineStore(budget_bytes=10, directory=str(tmp_path))
        store.put("a", b"x" * 64)
        store.put("b", b"y" * 64)
        assert store.pop("a")
        assert not store.pop("a")          # already gone
        assert store.pop("b")
        assert len(store) == 0 and store.resident_bytes == 0
        store.close()
        with pytest.raises(RuntimeError):
            store.put("c", b"z")

    def test_round_trips_a_real_engine(self, reference):
        expected = _ref(reference, "queens")
        with QueryService(PROGRAMS, workers=0) as service:
            first, paused = _stream(service, "queens", steps=1)
            with EngineStore(budget_bytes=1) as store:
                store.put("s1", paused.session_payload)
                store.put("s2", b"0" * 32)     # forces "s1" to hibernate
                assert store.hibernated_count >= 1
                woken = store.get("s1")
                assert store.wakes == 1
            rest, final = _stream(service, "queens", woken)
        assert first + rest[1:] == expected.solutions
        assert final.stats == expected.stats


# -- SessionService: streaming, leases, migration ----------------------------

class TestSessionService:
    def test_interleaved_sessions_match_reference(self, reference):
        """Interleaved sessions stream the reference's answers and end
        with its solutions and stats.  Each outcome's cumulative
        ``solutions`` are the very objects the earlier outcomes
        delivered, so a kept stream holds each answer once, not once
        per later step."""
        with SessionService(PROGRAMS, workers=0) as service:
            session_ids = [service.open(name, query)
                           for name, query in MIX]
            streams = {sid: [] for sid in session_ids}
            finals = {}
            open_ids = list(session_ids)
            while open_ids:
                outcomes = service.advance(open_ids)
                still = []
                for sid, outcome in zip(open_ids, outcomes):
                    if outcome.status == SOLUTION:
                        streams[sid].append(outcome.solution)
                        still.append(sid)
                    else:
                        assert outcome.status == DONE
                        finals[sid] = outcome
                    assert list(map(id, outcome.solutions)) \
                        == list(map(id, streams[sid]))
                open_ids = still
            for sid, expected in zip(session_ids, reference):
                assert streams[sid] == expected.solutions
                assert finals[sid].solutions == expected.solutions
                assert finals[sid].stats == expected.stats
            counters = service.counters
            assert counters["sessions_opened"] == len(MIX)
            assert counters["sessions_done"] == len(MIX)
            assert service.active_sessions == 0
            assert len(service.store) == 0

    def test_single_solution_query_streams_then_finishes(self, reference):
        # con1's only answer coincides with exhaustion: the stream
        # must still deliver it as a SOLUTION before reporting DONE.
        expected = _ref(reference, "con1")
        with SessionService(PROGRAMS, workers=0) as service:
            sid = service.open("con1", SUITE["con1"].query_pure)
            assert service.next_solution(sid) == expected.solutions[0]
            assert service.next_solution(sid) is None
            with pytest.raises(UnknownSession):
                service.next_solution(sid)

    def test_lease_expiry_reaper_and_admission(self):
        clock = [0.0]
        with SessionService(PROGRAMS, workers=0,
                            lease=LeasePolicy(ttl_s=10.0, max_sessions=2),
                            clock=lambda: clock[0]) as service:
            reaper = SessionReaper(service, interval_s=5.0, jitter=0.0,
                                   seed=3)
            a = service.open("queens", SUITE["queens"].query_pure)
            b = service.open("mutest", SUITE["mutest"].query_pure)
            with pytest.raises(SessionError, match="limit"):
                service.open("con1", SUITE["con1"].query_pure)
            service.advance([a, b])
            clock[0] = 4.0
            service.advance([a])           # renews a's lease only
            assert reaper.tick() == []     # not sweep time yet
            clock[0] = 12.0                # b lapsed at 10; a lives to 14
            assert reaper.tick() == [b]
            assert reaper.reaped_total == 1
            health = service.health()
            assert health.leases_expired == 1
            assert health.active_sessions == 1
            with pytest.raises(UnknownSession):
                service.next_solution(b)
            clock[0] = 20.0                # a lapsed too
            with pytest.raises(SessionExpired):
                service.next_solution(a)
            assert service.health().leases_expired == 2
            assert service.active_sessions == 0
            assert len(service.store) == 0

    def test_renew_and_expire_hook(self):
        clock = [0.0]
        with SessionService(PROGRAMS, workers=0,
                            lease=LeasePolicy(ttl_s=10.0),
                            clock=lambda: clock[0]) as service:
            sid = service.open("con1", SUITE["con1"].query_pure)
            clock[0] = 8.0
            assert service.renew(sid) == 18.0
            service.expire_lease(sid)
            assert service.reap() == [sid]
            with pytest.raises(UnknownSession):
                service.renew(sid)

    def test_hibernation_pressure_keeps_streams_identical(self, reference):
        # A budget far below one checkpoint: every idle session's
        # resume token hibernates, and every step wakes one.
        store = EngineStore(budget_bytes=1_024)
        with SessionService(PROGRAMS, workers=0, store=store) as service:
            session_ids = [service.open(name, query)
                           for name, query in MIX]
            streams = {sid: [] for sid in session_ids}
            finals = {}
            open_ids = list(session_ids)
            while open_ids:
                hibernated = service.health().hibernated_engines
                outcomes = service.advance(open_ids)
                still = []
                for sid, outcome in zip(open_ids, outcomes):
                    if outcome.status == SOLUTION:
                        streams[sid].append(outcome.solution)
                        still.append(sid)
                    else:
                        finals[sid] = outcome
                open_ids = still
            assert store.spills > 0
            assert store.wakes > 0
            for sid, expected in zip(session_ids, reference):
                assert streams[sid] == expected.solutions
                assert finals[sid].stats == expected.stats
            assert len(store) == 0

    def test_corrupt_hibernated_session_fails_alone(self, reference):
        """A spilled token that fails verification on wake fails only
        its own session, which is counted and removed; the other
        session in the round still advances."""
        expected = _ref(reference, "queens")
        query = SUITE["queens"].query_pure
        store = EngineStore(budget_bytes=1)
        with SessionService(PROGRAMS, workers=0, store=store) as service:
            a, b = service.open("queens", query), service.open("queens", query)
            service.advance([a, b])        # b's token pushes a's to disk
            with open(store._hibernated[a][0], "wb") as handle:
                handle.write(b"garbage")
            failed, stepped = service.advance([a, b])
            assert failed.status == FAILED
            assert failed.error.kind == "EngineStoreCorrupt"
            assert stepped.status == SOLUTION
            assert stepped.solution == expected.solutions[1]
            assert service.active_sessions == 1
            with pytest.raises(UnknownSession):
                service.advance([a])
            final = service.drain(b)
            counters = service.counters
        assert final.status == DONE and final.stats == expected.stats
        assert counters["sessions_failed"] == 1
        assert counters["sessions_opened"] == (
            counters["sessions_done"] + counters["sessions_failed"]
            + counters["sessions_closed"] + counters["leases_expired"])

    def test_worker_crash_migration_is_bit_identical(self, reference):
        """The tentpole gate in miniature: every step's first attempt
        is killed; the service resumes each on another attempt from
        its checkpoint (or the step's own resume token), and the
        stream plus final RunStats match the uninterrupted run."""
        expected = _ref(reference, "queens")
        chaos = ChaosPolicy(seed=7, kill_rate=1.0,
                            kill_window=(200, 4_000), kill_relative=True,
                            max_kills_per_slot=1)
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=7)
        with SessionService(PROGRAMS, workers=2, chaos=chaos,
                            retry=retry,
                            checkpoint_every=2_000) as service:
            sid = service.open("queens", SUITE["queens"].query_pure)
            streamed = []
            while True:
                outcome = service.advance([sid])[0]
                if outcome.status == SOLUTION:
                    streamed.append(outcome.solution)
                elif outcome.status == DONE:
                    final = outcome
                    break
            health = service.health()
        assert streamed == expected.solutions
        assert final.solutions == expected.solutions
        assert final.stats == expected.stats
        assert health.migrations > 0
        assert health.crashes > 0

    def test_session_gauges_in_health(self):
        with SessionService(PROGRAMS, workers=0) as service:
            assert service.health().active_sessions == 0
            sid = service.open("queens", SUITE["queens"].query_pure)
            assert service.health().active_sessions == 1
            service.close_session(sid)
            assert service.health().active_sessions == 0
            assert service.counters["sessions_closed"] == 1

    def test_advance_rejects_duplicates(self):
        with SessionService(PROGRAMS, workers=0) as service:
            sid = service.open("con1", SUITE["con1"].query_pure)
            with pytest.raises(ValueError, match="duplicate"):
                service.advance([sid, sid])


# -- the chaos invariant and the soak ----------------------------------------

def test_session_chaos_invariant_over_plm_corpus():
    """ISSUE 10 acceptance: seeded kills plus forced lease expiries
    mid-stream leave every surviving session's solution sequence and
    RunStats bit-identical to the fault-free reference, with no engine
    leaked."""
    chaos = ChaosPolicy(seed=13, kill_rate=0.5, kill_window=(200, 4_000),
                        kill_relative=True, max_kills_per_slot=1)
    report = verify_session_chaos_invariant(
        PROGRAMS, MIX, chaos, workers=2, checkpoint_every=2_000,
        seed=13, store_budget=20_000)
    assert report["ok"], report["mismatches"]
    assert report["stats_checked"] == len(MIX) - len(report["expired"])


def test_session_chaos_invariant_rejects_fault_injection():
    with pytest.raises(ValueError, match="inject_rate"):
        verify_session_chaos_invariant(
            PROGRAMS, MIX, ChaosPolicy(inject_rate=1.0))


def test_session_soak_accounts_exactly_once():
    spec = SessionLoadSpec(sessions=8, seed=5, abandon_rate=0.3)
    with SessionService(PROGRAMS, workers=0,
                        store=EngineStore(budget_bytes=20_000)) as service:
        report = run_session_soak(service, spec, MIX)
    assert report.accounting_ok, report.mismatches
    assert report.solutions_ok, report.mismatches
    assert report.done + report.expired + report.failed == spec.sessions
    assert report.failed == 0
