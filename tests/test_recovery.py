"""The trap-and-recovery subsystem end to end: handlers, checkpoints,
resume, and the deterministic fault-injection harness."""

import pytest

from repro.api import compile_and_load, run_query
from repro.core.machine import MAX_TRAP_RETRIES, Machine
from repro.core.symbols import SymbolTable
from repro.core.tags import Zone
from repro.core.traps import TrapVector
from repro.errors import (
    CycleLimitExceeded, PageFault, SpuriousTrap, StackOverflowTrap,
)
from repro.memory.layout import DEFAULT_LAYOUT, Region
from repro.memory.memory_system import MemorySystem
from repro.recovery import FaultInjector, install_default_recovery

BUILD = """
build(0, []).
build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
"""

# Tail recursion that litters the heap with dead f/3 structures: the
# compactor should reclaim nearly everything on every collection.
CHURN = """
gen(0).
gen(N) :- N > 0, mk(_), M is N - 1, gen(M).
mk(f(a, b, c)).
"""

NREV = """
concat([], L, L).
concat([H|T], L, [H|R]) :- concat(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), concat(RT, [H], R).
"""
NREV_QUERY = "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15], R)"

INFINITE = "spin :- spin."


def tiny_zone_machine(zone=Zone.GLOBAL, words=0x4000, **memory_kwargs):
    layout = dict(DEFAULT_LAYOUT)
    region = DEFAULT_LAYOUT[zone]
    layout[zone] = Region(zone, region.base, words)
    memory = MemorySystem(layout=layout, **memory_kwargs)
    return Machine(symbols=SymbolTable(), memory=memory)


class TestStackGrowthRecovery:
    def test_overflow_recovers_and_completes(self):
        """The program that aborts on the seed machine completes once
        the growth handler is armed — no manual set_limits."""
        machine = tiny_zone_machine()
        handlers = install_default_recovery(machine)
        machine = compile_and_load(BUILD, "build(10000, L)",
                                   machine=machine)
        machine.run(machine.image.entry, answer_names=["L"])
        assert machine.solutions
        assert machine.stats.traps_recovered >= 1
        assert handlers["stack-growth"].growths.get(Zone.GLOBAL, 0) \
            + len(handlers["heap-gc"].collections) >= 1

    def test_growth_respects_the_hard_ceiling(self):
        """A ceiling below what the program needs makes the trap fatal
        again — with the report attached."""
        from repro.recovery import GrowthPolicy
        machine = tiny_zone_machine()
        base = DEFAULT_LAYOUT[Zone.GLOBAL].base
        policy = GrowthPolicy(ceilings={Zone.GLOBAL: base + 0x4000})
        install_default_recovery(machine, growth=policy,
                                 heap_min_freed_fraction=1.1)
        machine = compile_and_load(BUILD, "build(10000, L)",
                                   machine=machine)
        with pytest.raises(StackOverflowTrap) as excinfo:
            machine.run(machine.image.entry, answer_names=["L"])
        report = excinfo.value.report
        assert report is not None and not report.recovered
        assert report.zone is Zone.GLOBAL

    def test_grown_zone_never_overlaps_neighbours(self):
        machine = tiny_zone_machine()
        install_default_recovery(machine)
        machine = compile_and_load(BUILD, "build(10000, L)",
                                   machine=machine)
        machine.run(machine.image.entry, answer_names=["L"])
        entries = machine.memory.zones.entries
        spans = sorted((e.min_address, e.max_address)
                       for e in entries.values())
        for (_, high), (low, _) in zip(spans, spans[1:]):
            assert high <= low


class TestHeapRecovery:
    def test_collection_reclaims_dead_structures(self):
        """Heap overflow on garbage-heavy churn is absorbed by the
        compacting collector, not by growing the zone."""
        machine = tiny_zone_machine(words=0x2000)
        handlers = install_default_recovery(machine)
        machine = compile_and_load(CHURN, "gen(5000)", machine=machine)
        machine.run(machine.image.entry, answer_names=[])
        assert machine.solutions is not None
        assert machine.halted
        collections = handlers["heap-gc"].collections
        assert collections, "churn never triggered a collection"
        assert max(c.freed_fraction for c in collections) >= 0.2
        assert machine.stats.traps_recovered >= len(collections)

    def test_live_heap_falls_back_to_growth(self):
        """When everything is live (one growing list), collection frees
        nothing and the handler must grow the zone instead."""
        machine = tiny_zone_machine(words=0x2000)
        handlers = install_default_recovery(machine)
        machine = compile_and_load(BUILD, "build(8000, L)",
                                   machine=machine)
        machine.run(machine.image.entry, answer_names=["L"])
        assert machine.solutions
        entry = machine.memory.zones.entries[Zone.GLOBAL]
        assert entry.max_address > DEFAULT_LAYOUT[Zone.GLOBAL].base + 0x2000


class TestPageFaultRecovery:
    def test_explicit_paging_runs_to_completion(self):
        """With demand paging off every first touch traps; the page
        handler services each fault and the answer is unchanged."""
        baseline = run_query(NREV, NREV_QUERY)
        memory = MemorySystem(demand_paging=False)
        machine = Machine(symbols=SymbolTable(), memory=memory)
        handlers = install_default_recovery(machine)
        # Wire the bootstrap pages like the host does before hand-over.
        injector = FaultInjector(seed=0, page_faults=1, horizon=2)
        injector.attach(machine)
        machine = compile_and_load(NREV, NREV_QUERY, machine=machine)
        machine.run(machine.image.entry, answer_names=["R"])
        assert machine.solutions == baseline.machine.solutions
        assert handlers["page-service"].serviced >= 1

    def test_page_service_counts_as_recovery_overhead(self):
        memory = MemorySystem(demand_paging=False,
                              page_fault_cycles=2000)
        machine = Machine(symbols=SymbolTable(), memory=memory)
        install_default_recovery(machine)
        FaultInjector(seed=0, page_faults=1, horizon=2).attach(machine)
        machine = compile_and_load(NREV, NREV_QUERY, machine=machine)
        stats = machine.run(machine.image.entry, answer_names=["R"])
        assert stats.traps_recovered >= 1
        assert stats.recovery_cycles >= 2000 * stats.per_trap["PageFault"]


class TestFaultInjection:
    def test_schedule_is_deterministic(self):
        a = FaultInjector(seed=11, page_faults=3, zone_squeezes=2,
                          spurious=4, horizon=9000)
        b = FaultInjector(seed=11, page_faults=3, zone_squeezes=2,
                          spurious=4, horizon=9000)
        assert [(e.cycle, e.kind) for e in a.events] \
            == [(e.cycle, e.kind) for e in b.events]

    def test_solutions_identical_under_injection(self):
        """The acceptance property: a faulted run computes exactly the
        fault-free answers."""
        baseline = run_query(NREV, NREV_QUERY)
        injector = FaultInjector(seed=5, page_faults=3, zone_squeezes=2,
                                 spurious=3,
                                 horizon=baseline.stats.cycles)
        faulted = run_query(NREV, NREV_QUERY, injector=injector)
        assert faulted.solutions == baseline.solutions
        assert faulted.stats.faults_injected == 8
        assert faulted.stats.traps_raised == faulted.stats.traps_recovered

    def test_two_seeded_runs_are_identical(self):
        def one(seed):
            injector = FaultInjector(seed=seed, page_faults=2,
                                     spurious=2, horizon=3000)
            return run_query(NREV, NREV_QUERY, injector=injector)

        first, second = one(9), one(9)
        assert first.solutions == second.solutions
        assert first.stats.cycles == second.stats.cycles
        assert [(r.kind, r.pc, r.cycles) for r in first.trap_reports] \
            == [(r.kind, r.pc, r.cycles) for r in second.trap_reports]

    def test_rewind_replays_the_same_schedule(self):
        injector = FaultInjector(seed=4, spurious=3, horizon=2000)
        first = run_query(NREV, NREV_QUERY, injector=injector)
        fired_first = [(e.cycle, e.kind) for e in injector.fired]
        injector.rewind()
        second = run_query(NREV, NREV_QUERY, injector=injector)
        assert [(e.cycle, e.kind) for e in injector.fired] == fired_first
        assert first.solutions == second.solutions

    def test_spurious_traps_are_flagged_injected(self):
        injector = FaultInjector(seed=1, spurious=2, horizon=1500)
        result = run_query(NREV, NREV_QUERY, injector=injector)
        spurious = [r for r in result.trap_reports
                    if r.kind == "SpuriousTrap"]
        assert spurious and all(r.injected for r in spurious)
        assert all(r.handler == "spurious-resume" for r in spurious)

    def test_replayed_instructions_counted_once(self):
        """Regression: a trapped-and-replayed instruction used to bump
        stats.instructions (and .inferences) twice — once on the aborted
        attempt, once on the replay.  The replay snapshot now rewinds
        both, so a faulted run reports exactly the fault-free counts.
        (Cycles legitimately differ: trap delivery and handler work are
        real simulated time, charged on top.)"""
        baseline = run_query(NREV, NREV_QUERY)
        injector = FaultInjector(seed=5, page_faults=3, zone_squeezes=2,
                                 spurious=3,
                                 horizon=baseline.stats.cycles)
        faulted = run_query(NREV, NREV_QUERY, injector=injector)
        assert faulted.stats.traps_recovered > 0
        assert faulted.stats.instructions == baseline.stats.instructions
        assert faulted.stats.inferences == baseline.stats.inferences


class TestZeroCostWhenIdle:
    def test_armed_vector_without_faults_charges_nothing(self):
        """Recovery has identical simulated-cycle accounting to a run
        without it: arming recovery must not change cycle counts on a
        fault-free run."""
        plain = run_query(NREV, NREV_QUERY)
        armed = run_query(NREV, NREV_QUERY, recovery=True)
        assert armed.stats.cycles == plain.stats.cycles
        assert armed.stats.traps_raised == 0
        assert armed.solutions == plain.solutions


class TestErrorContext:
    def test_cycle_limit_carries_entry_and_addresses(self):
        with pytest.raises(CycleLimitExceeded) as excinfo:
            run_query(INFINITE, "spin", max_cycles=5_000)
        err = excinfo.value
        # run_query enters through the compiled $query/0 wrapper.
        assert "$query/0" in str(err)
        assert err.entry == "$query/0"
        assert err.recent_addresses
        assert len(err.recent_addresses) <= 16
        assert all(isinstance(a, int) for a in err.recent_addresses)

    def test_machine_errors_carry_partial_stats_and_pc(self):
        with pytest.raises(CycleLimitExceeded) as excinfo:
            run_query(INFINITE, "spin", max_cycles=5_000)
        err = excinfo.value
        assert err.stats is not None and err.stats.cycles > 5_000 - 100
        assert err.pc is not None

    def test_fatal_trap_carries_stats_and_report(self):
        machine = tiny_zone_machine()
        machine = compile_and_load(BUILD, "build(10000, L)",
                                   machine=machine)
        with pytest.raises(StackOverflowTrap) as excinfo:
            machine.run(machine.image.entry, answer_names=["L"])
        err = excinfo.value
        assert err.stats is not None and err.stats.cycles > 0
        assert err.report is not None
        assert err.report.kind == "StackOverflowTrap"
        assert err.report.registers["h"] == machine.h


class TestCheckpointResume:
    def test_resume_after_cycle_limit(self):
        machine = compile_and_load(BUILD, "build(2000, L)")
        machine.max_cycles = 3_000
        with pytest.raises(CycleLimitExceeded):
            machine.run(machine.image.entry, answer_names=["L"])
        stats = machine.resume(extra_cycles=10_000_000)
        assert machine.solutions
        assert stats.cycles > 3_000

    def test_restore_rolls_back_and_replays(self):
        """Roll the machine back to a mid-run checkpoint and resume:
        the completed run must produce the identical answer again.
        Timing is disabled because checkpoints deliberately do not
        capture cache state — with the cache model off the replay is
        cycle-exact, not just answer-exact."""
        memory = MemorySystem(timing_enabled=False)
        machine = Machine(symbols=SymbolTable(), memory=memory)
        machine = compile_and_load(BUILD, "build(200, L)",
                                   machine=machine)
        machine.max_cycles = 2_500
        with pytest.raises(CycleLimitExceeded):
            machine.run(machine.image.entry, answer_names=["L"])
        checkpoint = machine.checkpoint("watchdog")
        machine.resume(extra_cycles=10_000_000)
        first = [dict(s) for s in machine.solutions]
        first_cycles = machine.stats.cycles

        machine.restore(checkpoint)
        assert not machine.solutions
        machine.resume(extra_cycles=10_000_000)
        assert machine.solutions == first
        assert machine.stats.cycles == first_cycles

    def test_checkpoint_is_isolated_from_later_writes(self):
        machine = compile_and_load(BUILD, "build(50, L)")
        machine.max_cycles = 500
        with pytest.raises(CycleLimitExceeded):
            machine.run(machine.image.entry, answer_names=["L"])
        checkpoint = machine.checkpoint()
        h_at_checkpoint = machine.h
        machine.resume(extra_cycles=10_000_000)
        assert machine.h != h_at_checkpoint or machine.halted
        machine.restore(checkpoint)
        assert machine.h == h_at_checkpoint


class TestTrapVector:
    def test_livelock_guard_aborts_useless_recovery(self):
        """A handler that claims success without fixing anything must
        not loop forever: the retry guard re-raises the trap."""
        machine = tiny_zone_machine()
        machine.trap_vector.register(StackOverflowTrap,
                                     lambda m, t, r: True, "liar")
        machine = compile_and_load(BUILD, "build(10000, L)",
                                   machine=machine)
        with pytest.raises(StackOverflowTrap) as excinfo:
            machine.run(machine.image.entry, answer_names=["L"])
        assert excinfo.value.report.retry == MAX_TRAP_RETRIES + 1

    def test_register_unregister_and_armed(self):
        vector = TrapVector()
        assert not vector.armed
        handler = lambda m, t, r: True
        vector.register(SpuriousTrap, handler)
        assert vector.armed
        assert vector.unregister(handler)
        assert not vector.armed
        vector.register(PageFault, handler, "once")
        vector.clear()
        assert not vector.armed

    def test_later_registration_wins(self):
        vector = TrapVector()
        calls = []
        vector.register(SpuriousTrap,
                        lambda m, t, r: calls.append("first") or True)
        vector.register(SpuriousTrap,
                        lambda m, t, r: calls.append("second") or True)
        machine = Machine(symbols=SymbolTable())
        from repro.core.traps import TrapReport
        report = TrapReport(kind="SpuriousTrap", message="", pc=0,
                            cycles=0, instructions=0)
        assert vector.dispatch(machine, SpuriousTrap("x"), report)
        assert calls == ["second"]
