"""Properties over generated programs, not only the PLM corpus: every
execution path gives the same answers and the same full ``RunStats``,
and a fused run stopped by its cycle budget and resumed ends where the
uninterrupted run ends.

The programs are small and terminate by construction: predicates
``p0``..``p3``, each of arity 1-3 with 1-3 clauses, whose bodies call
only lower-numbered predicates.  Heads and goals mix atoms, small
integers, lists, ``f/1`` and ``f/2`` structures and variables, with
``=/2``, ``is/2``, ``</2``, ``==/2``, ``integer/1`` and cut, so the
runs reach first-argument indexing, cut barriers, shallow and deep
backtracking, arithmetic traps and cyclic answers in blocks that no
suite program has, and every block they enter is fused on first entry.
``is/2`` also draws float operands, so a product may leave single
precision.
"""

import dataclasses

from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from repro.compiler.linker import Linker
from repro.core.costs import Features
from repro.core.machine import Machine
from repro.core.symbols import SymbolTable
from repro.errors import ArithmeticError_
from repro.prolog.writer import term_to_text

#: A safety net only: the programs are finite, but a few multiply
#: their clauses' answers into long runs.  A run stopped here is not
#: compared with the fused path, which may overshoot a budget by one
#: fused block (docs/PERF.md).
BUDGET = 200_000

PATHS = {
    "fused": dict(fast_path=True, features=None),
    "unfused": dict(fast_path=True, features=Features(superops=False)),
    "seed": dict(fast_path=False, features=None),
}

STOPPED = "CycleLimitExceeded"

variable = st.sampled_from(("X", "Y", "Z"))
operand = st.one_of(variable, st.integers(0, 3).map(str))
#: ``is/2`` operands: also floats, where 1.0e20 * 1.0e20 overflows
#: single precision.
number = st.one_of(operand, st.sampled_from(("2.5", "1.0e20")))
term = st.recursive(
    st.one_of(st.sampled_from(("a", "b", "[]")),
              st.integers(-1, 3).map(str), variable),
    lambda inner: st.one_of(
        inner.map("f({})".format),
        st.tuples(inner, inner).map(lambda a: "f({}, {})".format(*a)),
        st.lists(inner, min_size=1, max_size=2).map(
            lambda items: "[{}]".format(", ".join(items))),
        st.tuples(inner, inner).map(lambda a: "[{}|{}]".format(*a))),
    max_leaves=4)


def call(draw, name, arity):
    args = draw(st.lists(term, min_size=arity, max_size=arity))
    return "{}({})".format(name, ", ".join(args))


def goal(draw, arities):
    """One body goal; ``arities`` are those of the callable (lower
    numbered) predicates."""
    kinds = ("=", "is", "<", "==", "integer", "!")
    kind = draw(st.sampled_from(kinds + ("call",) if arities else kinds))
    if kind == "call":
        callee = draw(st.integers(0, len(arities) - 1))
        return call(draw, f"p{callee}", arities[callee])
    if kind in ("=", "=="):
        return f"{draw(term)} {kind} {draw(term)}"
    if kind == "is":
        return "{} is {} {} {}".format(draw(operand), draw(number),
                                       draw(st.sampled_from("+-*")),
                                       draw(number))
    if kind == "<":
        return f"{draw(operand)} < {draw(operand)}"
    if kind == "integer":
        return f"integer({draw(term)})"
    return "!"


@st.composite
def programs(draw):
    """(program source, query) for a top predicate ``p3``."""
    arities = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
    clauses = []
    for index, arity in enumerate(arities):
        for _ in range(draw(st.integers(1, 3))):
            head = call(draw, f"p{index}", arity)
            body = [goal(draw, arities[:index])
                    for _ in range(draw(st.integers(0, 3)))]
            clauses.append(head + (" :- " + ", ".join(body) if body
                                   else "") + ".")
    query = "p3({})".format(", ".join("ABC"[:arities[3]]))
    return "\n".join(clauses) + "\n", query


def link(program):
    """Link ``program``.  Constant arithmetic that overflows single
    precision fails in the compiler, before any path runs, so such a
    program is no example."""
    source, query = program
    try:
        return Linker(symbols=SymbolTable()).link(source, query)
    except ArithmeticError_:
        reject()


def machine_over(image, path, max_cycles=BUDGET):
    machine = Machine(symbols=image.symbols, max_cycles=max_cycles,
                      **PATHS[path])
    image.install(machine)
    return machine


def observe(run, machine):
    """What ``run()`` shows: the answers and full RunStats, or the
    error's type, message and ``pc`` (where it has one) with the run's
    finalized RunStats, which every error leaves in ``machine.stats``
    (only machine errors carry them as ``err.stats`` too)."""
    try:
        stats = run()
    except Exception as err:    # the error is the observation
        return (type(err).__name__, str(err), getattr(err, "pc", None),
                dataclasses.asdict(machine.stats))
    answers = tuple(tuple((name, term_to_text(value))
                          for name, value in solution.items())
                    for solution in machine.solutions)
    return answers, dataclasses.asdict(stats)


def observe_run(machine, image):
    return observe(lambda: machine.run(
        image.entry, collect_all=True,
        answer_names=image.query_variable_names), machine)


@given(program=programs())
@settings(max_examples=100, deadline=None)
def test_every_path_agrees(program):
    image = link(program)
    fused, unfused, seed = (observe_run(machine_over(image, path), image)
                            for path in PATHS)
    # The unfused fast path stops at the seed's instruction even on the
    # budget; the fused path is compared on every run that finishes.
    assert unfused == seed
    assert (fused[0] == STOPPED) == (seed[0] == STOPPED)
    if seed[0] != STOPPED:
        assert fused == seed


@given(program=programs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_stopped_and_resumed_run_ends_like_uninterrupted(program, data):
    image = link(program)
    machine = machine_over(image, "fused")
    reference = observe_run(machine, image)
    assume(reference[0] != STOPPED)
    total = machine.cycles
    assume(total > 1)
    stop = data.draw(st.integers(1, total - 1), label="max_cycles")
    extra = data.draw(st.integers(max(1, total // 8), total),
                      label="extra_cycles")
    machine = machine_over(image, "fused", max_cycles=stop)
    result = observe_run(machine, image)
    while result[0] == STOPPED:
        result = observe(lambda: machine.resume(extra_cycles=extra),
                         machine)
    assert result == reference
