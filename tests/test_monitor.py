"""Tests for the execution monitors (the paper's three-level monitors)."""

import pytest

from repro.api import compile_and_load
from repro.core.monitor import (
    CycleProfiler, MacrocodeTracer, PortTracer, attach,
)

APPEND = ("append([], L, L).\n"
          "append([H|T], L, [H|R]) :- append(T, L, R).\n")

MEMBER = ("member(X, [X|_]).\n"
          "member(X, [_|T]) :- member(X, T).\n")


def run_traced(program, query, tracer, all_solutions=False):
    machine = compile_and_load(program, query)
    attach(machine, tracer)
    machine.run(machine.image.entry, collect_all=all_solutions,
                answer_names=machine.image.query_variable_names)
    return machine


class TestMacrocodeTracer:
    def test_records_every_instruction(self):
        tracer = MacrocodeTracer()
        machine = run_traced(APPEND, "append([a], [b], X)", tracer)
        assert len(tracer.records) == machine.stats.instructions

    def test_window_filters(self):
        tracer = MacrocodeTracer(window=(0, 1))
        run_traced(APPEND, "append([a], [b], X)", tracer)
        assert all(r.address == 0 for r in tracer.records)

    def test_limit_drops_excess(self):
        tracer = MacrocodeTracer(limit=5)
        run_traced(APPEND, "append([a,b,c], [d], X)", tracer)
        assert len(tracer.records) == 5
        assert tracer.dropped > 0

    def test_render_contains_disassembly(self):
        tracer = MacrocodeTracer()
        run_traced(APPEND, "append([a], [], X)", tracer)
        text = tracer.render(last=10)
        assert "execute" in text or "proceed" in text

    def test_untraced_run_is_identical(self):
        plain = compile_and_load(APPEND, "append([a,b], [c], X)")
        stats_plain = plain.run(plain.image.entry, answer_names=["X"])
        traced = run_traced(APPEND, "append([a,b], [c], X)",
                            MacrocodeTracer())
        assert traced.stats.cycles == stats_plain.cycles
        assert traced.stats.instructions == stats_plain.instructions


class TestPortTracer:
    def test_deterministic_call_exit_nesting(self):
        tracer = PortTracer()
        run_traced(APPEND, "append([a], [b], X)", tracer)
        ports = tracer.ports()
        assert ports.count("call") >= 2          # two append steps
        assert ports[-1] == "exit" or "exit" in ports
        assert "redo" not in ports

    def test_redo_on_backtracking(self):
        tracer = PortTracer()
        run_traced(MEMBER, "member(X, [1, 2])", tracer,
                   all_solutions=True)
        assert "redo" in tracer.ports()

    def test_depth_grows_with_nesting(self):
        # Non-tail calls (each clause has a second goal) so last-call
        # optimisation does not flatten the depth.
        program = "a :- b, t. b :- c, t. c. t."
        tracer = PortTracer()
        run_traced(program, "a", tracer)
        call_depths = [e.depth for e in tracer.events
                       if e.port == "call"]
        assert max(call_depths) >= 3

    def test_last_call_optimisation_visible(self):
        # Chain rules EXECUTE: the depth stays flat, exactly as the
        # frames behave on the machine.
        tracer = PortTracer()
        run_traced("a :- b. b :- c. c.", "a", tracer)
        call_depths = [e.depth for e in tracer.events
                       if e.port == "call"]
        assert len(set(call_depths)) == 1

    def test_internal_predicates_hidden(self):
        tracer = PortTracer()
        run_traced(APPEND, "append([], [], X)", tracer)
        assert not any("$" in e.predicate for e in tracer.events)

    def test_render_indents(self):
        tracer = PortTracer()
        run_traced("a :- b. b.", "a", tracer)
        lines = tracer.render().splitlines()
        assert any(line.startswith("  ") for line in lines)


class TestCycleProfiler:
    def test_cycles_attributed_to_predicates(self):
        profiler = CycleProfiler()
        machine = run_traced(APPEND, "append([a,b,c,d], [e], X)",
                             profiler)
        assert "append/3" in profiler.cycles_by_predicate
        attributed = sum(profiler.cycles_by_predicate.values())
        assert 0 < attributed <= machine.cycles

    def test_hot_predicate_dominates(self):
        profiler = CycleProfiler()
        long_list = "[" + ",".join(str(i) for i in range(40)) + "]"
        run_traced(APPEND, f"append({long_list}, [x], X)", profiler)
        by_pred = profiler.cycles_by_predicate
        # $query builds the 40-element input list; among real
        # predicates append dominates.
        user_preds = {k: v for k, v in by_pred.items()
                      if not k.startswith("$") and k != "?"}
        assert user_preds["append/3"] == max(user_preds.values())

    def test_report_renders_percentages(self):
        profiler = CycleProfiler()
        run_traced(APPEND, "append([a], [], X)", profiler)
        assert "%" in profiler.report()


class TestReplayTracing:
    """Regression: monitors used to see a trapped-and-replayed
    instruction twice.  The run loop now passes ``replay=True``
    on the second delivery so traces match the fault-free run."""

    QUERY = "append([a,b,c,d,e,f], [g], X)"

    def _trace(self, injector=None):
        from repro.recovery import install_default_recovery
        tracer = MacrocodeTracer()
        machine = compile_and_load(APPEND, self.QUERY)
        attach(machine, tracer)
        if injector is not None:
            install_default_recovery(machine)
            injector.attach(machine)
        machine.run(machine.image.entry,
                    answer_names=machine.image.query_variable_names)
        return machine, tracer

    def test_macrocode_trace_identical_under_replay(self):
        from repro.recovery import FaultInjector
        plain_machine, plain = self._trace()
        # Page faults surface mid-dispatch — after the tracer has seen
        # the instruction — so the replay is what delivers them again.
        injector = FaultInjector(seed=7, page_faults=3, spurious=1,
                                 horizon=plain_machine.cycles)
        faulted_machine, faulted = self._trace(injector)
        assert faulted_machine.stats.traps_recovered > 0
        assert [r.address for r in faulted.records] \
            == [r.address for r in plain.records]
        assert len(faulted.records) == faulted_machine.stats.instructions
