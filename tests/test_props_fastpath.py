"""Property: the predecoded fast path is observation-equivalent to the
seed interpreter (``fast_path=False``) on the benchmark corpus — same
simulated cycles, counters and answers, and the same memory hierarchy
afterwards (``timing_state()``: cache tags, dirty bits and statistics,
main-memory counters, MMU entries and counters, zone checks) —
including runs with injected faults routed through the recovery
loop."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_query
from repro.bench.programs import SUITE
from repro.core.machine import Machine
from repro.core.symbols import SymbolTable
from repro.prolog.writer import term_to_text
from repro.recovery import FaultInjector

#: Short and medium suite programs; the long ones (qs196, nrev496,
#: hanoi12) add minutes of Hypothesis runtime without new coverage.
CORPUS = ["con1", "con6", "divide10", "log10", "nrev1", "ops8",
          "qs4", "times10"]

FAULT_HORIZON = 20_000


def observe(name, fast_path, fault_plan):
    bench = SUITE[name]
    injector = None
    if fault_plan is not None:
        # A fresh injector per run: the schedule is a pure function of
        # the constructor arguments, so both sides see the same faults.
        seed, page_faults, squeezes, spurious = fault_plan
        injector = FaultInjector(seed=seed, page_faults=page_faults,
                                 zone_squeezes=squeezes,
                                 spurious=spurious,
                                 horizon=FAULT_HORIZON)
    machine = Machine(symbols=SymbolTable(), fast_path=fast_path)
    result = run_query(bench.source_pure, bench.query_pure,
                       all_solutions=bench.all_solutions,
                       machine=machine, injector=injector)
    stats = result.stats
    answers = tuple(tuple((n, term_to_text(t)) for n, t in sol.items())
                    for sol in result.solutions)
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "inferences": stats.inferences,
        "data_reads": stats.data_reads,
        "data_writes": stats.data_writes,
        "traps_raised": stats.traps_raised,
        "traps_recovered": stats.traps_recovered,
        "answers": answers,
        "hierarchy": machine.memory.timing_state(),
    }


@given(name=st.sampled_from(CORPUS))
@settings(max_examples=10, deadline=None)
def test_fast_path_matches_ablation(name):
    assert observe(name, True, None) == observe(name, False, None)


@given(name=st.sampled_from(CORPUS),
       seed=st.integers(min_value=0, max_value=2**16),
       page_faults=st.integers(min_value=0, max_value=3),
       squeezes=st.integers(min_value=0, max_value=2),
       spurious=st.integers(min_value=0, max_value=3))
@settings(max_examples=15, deadline=None)
def test_fast_path_matches_ablation_under_faults(name, seed, page_faults,
                                                 squeezes, spurious):
    plan = (seed, page_faults, squeezes, spurious)
    assert observe(name, True, plan) == observe(name, False, plan)
