"""The compile-once image cache and the pickle contracts behind it
(ISSUE 3): zero compiler work on repeat queries, round-trippable
images/words/stats/symbols, machines that pickle with their fused
closures dropped, and detachable query results."""

import gc
import pickle
import weakref

import pytest

from repro.api import QueryResult, run_query
from repro.compiler.linker import Linker
from repro.core.machine import _FUSED, Machine
from repro.core.statistics import RunStats
from repro.core.symbols import SymbolTable
from repro.core.tags import Zone
from repro.core.word import make_atom, make_int, make_list, make_unbound
from repro.serve import ImageCache, image_key

APPEND = ("append([], L, L). "
          "append([H|T], L, [H|R]) :- append(T, L, R).")

#: exercises escape builtins (including the type tests, which used to
#: be unpicklable closures) alongside plain clause code.
TYPEY = ("classify(X, var) :- var(X). "
         "classify(X, num) :- number(X). "
         "classify(X, atom) :- atom(X).")


# -- compile-once behaviour --------------------------------------------------

class TestCompileOnce:

    def test_run_query_second_call_does_zero_compiler_work(self):
        program = "cache_probe_p(1). cache_probe_p(2)."
        first = run_query(program, "cache_probe_p(X)", all_solutions=True)
        links_after_first = Linker.links_performed
        second = run_query(program, "cache_probe_p(X)", all_solutions=True)
        assert Linker.links_performed == links_after_first
        assert second.solutions == first.solutions
        assert second.stats == first.stats

    def test_use_cache_false_recompiles(self):
        program = "cache_probe_q(a)."
        run_query(program, "cache_probe_q(X)")
        links = Linker.links_performed
        run_query(program, "cache_probe_q(X)", use_cache=False)
        assert Linker.links_performed == links + 1

    def test_explicit_machine_bypasses_cache(self):
        # An image links against one symbol table; a caller-supplied
        # machine brings its own, so the cache cannot serve it.
        machine = Machine(symbols=SymbolTable())
        links = Linker.links_performed
        result = run_query(APPEND, "append([1], [2], X)", machine=machine)
        assert Linker.links_performed == links + 1
        assert result.machine is machine

    def test_cache_counts_hits_and_misses(self):
        cache = ImageCache()
        cache.get(APPEND, "append([], [], X)")
        cache.get(APPEND, "append([], [], X)")
        cache.get(APPEND, "append([1], [], X)")
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1
        assert len(cache) == 2

    def test_key_covers_program_query_and_options(self):
        base = image_key(APPEND, "append([], [], X)")
        assert image_key(APPEND + " ", "append([], [], X)") != base
        assert image_key(APPEND, "append([], [], Y)") != base
        assert image_key(APPEND, "append([], [], X)",
                         io_mode="real") != base
        assert image_key(APPEND, "append([], [], X)") == base

    def test_lru_eviction_is_bounded(self):
        cache = ImageCache(max_entries=2)
        cache.get("e1(a).", "e1(X)")
        cache.get("e2(a).", "e2(X)")
        cache.get("e3(a).", "e3(X)")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert image_key("e1(a).", "e1(X)") not in cache
        assert image_key("e3(a).", "e3(X)") in cache

    def test_byte_budget_evicts_lru_under_size_pressure(self):
        """With max_bytes set, inserting past the budget evicts LRU
        entries, the counters account exactly, and a re-miss on the
        evicted key recompiles exactly once."""
        probe = ImageCache(max_bytes=1 << 30)
        probe.get("s1(a).", "s1(X)")
        one_image = probe.stats.bytes_cached
        assert one_image > 0

        # Room for two images, not three.
        cache = ImageCache(max_bytes=int(one_image * 2.5))
        cache.get("s1(a).", "s1(X)")
        cache.get("s2(a).", "s2(X)")
        assert cache.stats.evictions == 0
        assert len(cache) == 2
        cache.get("s3(a).", "s3(X)")             # pressure: s1 is LRU
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert image_key("s1(a).", "s1(X)") not in cache
        assert image_key("s2(a).", "s2(X)") in cache
        assert image_key("s3(a).", "s3(X)") in cache
        assert cache.stats.bytes_cached <= int(one_image * 2.5)
        assert cache.stats.hits == 0 and cache.stats.misses == 3

        # Touch s2 so s3 becomes LRU, then re-miss the evicted s1:
        # exactly one fresh compile, and LRU (not insertion) order
        # decides the next victim.
        cache.get("s2(a).", "s2(X)")
        assert cache.stats.hits == 1
        links = Linker.links_performed
        cache.get("s1(a).", "s1(X)")
        assert Linker.links_performed == links + 1
        assert cache.stats.misses == 4
        assert cache.stats.evictions == 2
        assert image_key("s3(a).", "s3(X)") not in cache

    def test_byte_budget_never_evicts_the_newest_entry(self):
        """An image bigger than the whole budget is still cached and
        served — the compile just paid for is never thrown away."""
        cache = ImageCache(max_bytes=1)
        cache.get("b1(a).", "b1(X)")
        assert len(cache) == 1                    # kept despite the budget
        cache.get("b1(a).", "b1(X)")
        assert cache.stats.hits == 1
        cache.get("b2(a).", "b2(X)")              # evicts b1, keeps b2
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert image_key("b2(a).", "b2(X)") in cache
        cache.clear()
        assert cache.stats.bytes_cached == 0

    def test_max_bytes_validation(self):
        with pytest.raises(ValueError):
            ImageCache(max_bytes=0)

    def test_concurrent_misses_compile_exactly_once(self):
        """get() is atomic under its lock: racing threads asking for
        the same uncached key must produce one compile and one shared
        image, not a compile per thread."""
        import threading

        cache = ImageCache()
        program = "race_probe(1). race_probe(2)."
        barrier = threading.Barrier(8)
        images = []

        def worker():
            barrier.wait()
            images.append(cache.get(program, "race_probe(X)"))

        links_before = Linker.links_performed
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert Linker.links_performed == links_before + 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 7
        assert all(image is images[0] for image in images)

    def test_cached_image_is_reused_across_machines(self):
        cache = ImageCache()
        image = cache.get(APPEND, "append([1, 2], [3], X)")
        stats = []
        for _ in range(2):
            machine = Machine(symbols=image.symbols)
            image.install(machine)
            stats.append(machine.run(
                image.entry, answer_names=image.query_variable_names))
        assert stats[0] == stats[1]


# -- pickle round trips ------------------------------------------------------

class TestPickleRoundTrips:

    def test_word_round_trip(self):
        for word in (make_int(-7), make_atom(3),
                     make_unbound(0x123, Zone.GLOBAL),
                     make_list(0x40, Zone.GLOBAL)):
            clone = pickle.loads(pickle.dumps(word))
            assert clone.tag == word.tag
            assert clone.value == word.value
            assert clone.type == word.type

    def test_run_stats_round_trip(self):
        result = run_query(APPEND, "append([1, 2], [3], X)")
        stats = result.stats
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert isinstance(clone, RunStats)

    def test_symbol_table_round_trip(self):
        result = run_query(APPEND, "append([1, 2], [3], X)")
        symbols = result.machine.symbols
        clone = pickle.loads(pickle.dumps(symbols))
        # Interned indices must survive verbatim: words reference atoms
        # and functors by index.
        assert clone.atom_index("append") == symbols.atom_index("append")

    def test_linked_image_round_trip_runs_identically(self):
        cache = ImageCache()
        image = cache.get(TYPEY, "classify(foo, What)")
        reference = Machine(symbols=image.symbols)
        image.install(reference)
        expected = reference.run(
            image.entry, answer_names=image.query_variable_names)

        clone = pickle.loads(pickle.dumps(image))
        # The handler table is rebuilt from (name, arity) specs on
        # arrival, so the clone's handlers are this process's builtins.
        assert set(clone.builtin_handlers) == set(image.builtin_handlers)
        machine = Machine(symbols=clone.symbols)
        clone.install(machine)
        stats = machine.run(clone.entry,
                            answer_names=clone.query_variable_names)
        assert stats == expected
        assert machine.solutions == reference.solutions

    def test_machine_with_fused_closures_pickles_cleanly(self):
        result = run_query(APPEND, "append([1, 2], [3], X)",
                           all_solutions=True)
        machine = result.machine
        # Install all nine fused closures exactly as _execute would; a
        # pickle taken mid-run must drop them (they capture the memory
        # hierarchy and cannot cross a process boundary).
        machine.__dict__.update(zip(_FUSED, machine._fused_paths()))
        clone = pickle.loads(pickle.dumps(machine))
        for name in _FUSED:
            assert name in machine.__dict__
            assert name not in clone.__dict__
        # The clone re-runs to the same result: dispatch is rebuilt on
        # unpickle, predecode lazily on the first run.
        clone.reset_for_reuse()
        stats = clone.run(clone.image.entry, collect_all=True,
                          answer_names=clone.image.query_variable_names)
        assert stats == result.stats
        assert clone.solutions == result.solutions


# -- result detachment -------------------------------------------------------

class TestDetach:

    def test_detach_releases_machine_and_image(self):
        result = run_query(APPEND, "append([1], [2], X)", use_cache=False)
        machine_ref = weakref.ref(result.machine)
        milliseconds = result.milliseconds
        assert result.detach() is result
        assert result.detached
        assert result.machine is None and result.image is None
        gc.collect()
        assert machine_ref() is None, "detach must release the heap"
        # Derived observables keep working from the captured values.
        assert result.milliseconds == milliseconds
        assert result.klips > 0
        assert result.output == ""
        assert result.trap_reports == []
        assert result.detach() is result    # idempotent

    def test_detached_result_without_machine_rejects_timing(self):
        bare = QueryResult(solutions=[], stats=RunStats(),
                           machine=None, image=None)
        with pytest.raises(ValueError):
            bare.milliseconds
