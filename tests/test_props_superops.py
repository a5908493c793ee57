"""Property: superinstruction fusion is observation-equivalent to both
the unfused fast path (``Features(superops=False)``) and the seed
interpreter (``fast_path=False``) on the benchmark corpus — same
solutions, same full RunStats, same trap/replay behaviour under
injected faults."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_query
from repro.bench.programs import SUITE
from repro.core.costs import Features
from repro.core.machine import Machine
from repro.core.symbols import SymbolTable
from repro.prolog.writer import term_to_text
from repro.recovery import FaultInjector

#: Short and medium suite programs, like test_props_fastpath, covering
#: arithmetic, list recursion and backtracking.  Every block a run
#: enters is fused on first entry; tests/test_props_generated.py
#: covers programs outside the suite.
CORPUS = ["con1", "con6", "divide10", "log10", "nrev1", "ops8",
          "qs4", "times10"]

FAULT_HORIZON = 20_000

MODES = {
    "fused": dict(fast_path=True, features=None),
    "unfused": dict(fast_path=True, features=Features(superops=False)),
    "seed": dict(fast_path=False, features=None),
}


def observe(name, mode, fault_plan):
    bench = SUITE[name]
    injector = None
    if fault_plan is not None:
        seed, page_faults, squeezes, spurious = fault_plan
        injector = FaultInjector(seed=seed, page_faults=page_faults,
                                 zone_squeezes=squeezes,
                                 spurious=spurious,
                                 horizon=FAULT_HORIZON)
    config = MODES[mode]
    machine = Machine(symbols=SymbolTable(),
                      fast_path=config["fast_path"],
                      features=config["features"])
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
        "trail_pushes": stats.trail_pushes,
        "trail_checks": stats.trail_checks,
        "shallow_fails": stats.shallow_fails,
        "deep_fails": stats.deep_fails,
        "choice_points_created": stats.choice_points_created,
        "general_unifications": stats.general_unifications,
        "dereference_links": stats.dereference_links,
        "traps_raised": stats.traps_raised,
        "traps_recovered": stats.traps_recovered,
        "answers": answers,
    }


@given(name=st.sampled_from(CORPUS))
@settings(max_examples=10, deadline=None)
def test_fused_matches_unfused_and_seed(name):
    fused = observe(name, "fused", None)
    assert fused == observe(name, "unfused", None)
    assert fused == observe(name, "seed", None)


@given(name=st.sampled_from(CORPUS),
       seed=st.integers(min_value=0, max_value=2**16),
       page_faults=st.integers(min_value=0, max_value=3),
       squeezes=st.integers(min_value=0, max_value=2),
       spurious=st.integers(min_value=0, max_value=3))
@settings(max_examples=12, deadline=None)
def test_fused_matches_unfused_under_faults(name, seed, page_faults,
                                            squeezes, spurious):
    plan = (seed, page_faults, squeezes, spurious)
    fused = observe(name, "fused", plan)
    assert fused == observe(name, "unfused", plan)
    assert fused == observe(name, "seed", plan)
