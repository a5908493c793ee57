"""The predecoded threaded-dispatch layer: block table shape,
invalidation contract, ablation equivalence, watchdog semantics."""

import pytest

from repro.api import compile_and_load, run_query
from repro.bench.programs import SUITE
from repro.compiler.incremental import IncrementalLoader
from repro.core.costs import Features
from repro.core.machine import Machine
from repro.core.monitor import MacrocodeTracer, attach
from repro.core.predecode import BLOCK_ENDERS, predecode
from repro.core.symbols import SymbolTable
from repro.core.tags import page_number
from repro.errors import CycleLimitExceeded, InstructionError, PageFault
from repro.prolog.writer import term_to_text

APPEND = ("append([], L, L).\n"
          "append([H|T], L, [H|R]) :- append(T, L, R).\n")
QUERY = "append([1,2,3], [4,5], R)"


def loaded_machine(fast_path=True):
    return compile_and_load(APPEND, QUERY,
                            machine=Machine(symbols=SymbolTable(),
                                            fast_path=fast_path))


NREV = SUITE["nrev1"]


def nrev_machine(path):
    """nrev1 loaded for one execution path: "fused" (the default
    build), "unfused" (``Features(superops=False)``), "seed"
    (``fast_path=False``) or "traced" (default build plus a tracer)."""
    machine = Machine(symbols=SymbolTable(), fast_path=path != "seed",
                      features=Features(superops=False)
                      if path == "unfused" else None)
    compile_and_load(NREV.source_pure, NREV.query_pure, machine=machine)
    if path == "traced":
        attach(machine, MacrocodeTracer())
    return machine


def run_nrev(machine):
    return machine.run(machine.image.entry,
                       collect_all=NREV.all_solutions,
                       answer_names=machine.image.query_variable_names)


class TestBlockTable:
    def test_entries_cover_instruction_starts_only(self):
        machine = loaded_machine()
        table = machine._ensure_predecoded()
        assert table.valid_for(machine.code)
        pc = 0
        while pc < len(machine.code):
            instr = machine.code[pc]
            assert instr is not None
            assert table.entries[pc] is not None
            for middle in range(pc + 1, pc + instr.size):
                assert machine.code[middle] is None
                assert table.entries[middle] is None
            pc += instr.size

    def test_block_sums_match_member_steps(self):
        # Structural invariants are asserted on an unfused translation
        # (no fuser): fused entries carry an empty steps tuple by
        # design and are covered by test_superops.py.
        machine = loaded_machine()
        table = predecode(machine.code, machine._dispatch,
                          machine.costs.static_cost_table())
        costs = machine.costs.static_cost_table()
        for entry in table.entries:
            if entry is None:
                continue
            steps, cycle_sum, instr_count, infer_count, fused = entry
            assert fused is None, "no fuser was supplied"
            assert instr_count == len(steps)
            assert cycle_sum == sum(step[1] for step in steps)
            assert infer_count == sum(step[2] for step in steps)
            for handler, cost, infer, next_p, instr in steps:
                assert handler is machine._dispatch[instr.op]
                assert cost == costs[instr.op]
                assert infer == (1 if instr.infer else 0)
            for step in steps[:-1]:
                # Only the last step of a block may transfer control.
                assert step[4].op not in BLOCK_ENDERS

    def test_blocks_end_at_enders_or_boundaries(self):
        machine = loaded_machine()
        table = predecode(machine.code, machine._dispatch,
                          machine.costs.static_cost_table())
        for entry in table.entries:
            if entry is None:
                continue
            last = entry[0][-1]
            next_p = last[3]
            assert (last[4].op in BLOCK_ENDERS
                    or next_p >= len(machine.code)
                    or table.entries[next_p] is not None)

    def test_singles_mirror_per_address_steps(self):
        # The run loop executes unfused instructions one at a time from
        # .singles; every instruction start must have its plain step
        # there even when the block entry itself is fused.
        machine = loaded_machine()
        table = machine._ensure_predecoded()
        for pc, instr in enumerate(machine.code):
            if instr is None:
                assert table.singles[pc] is None
            else:
                handler, cost, infer, next_p, step_instr = \
                    table.singles[pc]
                assert step_instr is instr
                assert next_p == pc + instr.size
                assert handler is machine._dispatch[instr.op]

    def test_static_cost_table_matches_dynamic_costs(self):
        machine = loaded_machine()
        table = machine.costs.static_cost_table()
        for op, cost in table.items():
            assert cost == machine.costs.instruction_cost(op)


class TestInvalidation:
    def test_incremental_load_invalidates(self):
        machine = loaded_machine()
        machine.run(machine.image.entry,
                    answer_names=machine.image.query_variable_names)
        stale = machine._predecoded
        assert stale is not None

        loader = IncrementalLoader(machine)
        loader.add_program("color(red).\ncolor(green).\n")
        assert machine._predecoded is None, \
            "incremental install must drop the predecode table"
        entry, names = loader.query("color(C)")
        machine.run(entry, collect_all=True, answer_names=names)
        rebuilt = machine._predecoded
        assert rebuilt is not None and rebuilt is not stale
        assert rebuilt.valid_for(machine.code)
        values = sorted(term_to_text(s["C"]) for s in machine.solutions)
        assert values == ["green", "red"]

    def test_stale_table_rebuilt_defensively(self):
        # Even without an invalidate() call, a table built for a
        # different code length is never used.
        machine = loaded_machine()
        machine.run(machine.image.entry,
                    answer_names=machine.image.query_variable_names)
        table = machine._predecoded
        machine.code.append(None)   # simulate an unannounced writer
        assert not table.valid_for(machine.code)
        assert machine._ensure_predecoded() is not table

    def test_predecode_standalone_rejects_nothing(self):
        machine = loaded_machine()
        table = predecode(machine.code, machine._dispatch,
                          machine.costs.static_cost_table())
        assert table.code_len == len(machine.code)


class TestExecutionSemantics:
    def test_fast_and_ablation_agree(self):
        keys = []
        for fast_path in (True, False):
            machine = loaded_machine(fast_path=fast_path)
            stats = machine.run(
                machine.image.entry,
                answer_names=machine.image.query_variable_names)
            keys.append((stats.cycles, stats.instructions,
                         stats.inferences, stats.data_reads,
                         stats.data_writes, str(machine.solutions)))
        assert keys[0] == keys[1]

    def test_jump_into_middle_of_instruction_raises(self):
        machine = loaded_machine()
        multi = next(pc for pc, instr in enumerate(machine.code)
                     if instr is not None and instr.size > 1)
        with pytest.raises(InstructionError,
                           match="middle of a multi-word"):
            machine.run(multi + 1)

    def test_cycle_limit_stops_at_instruction_boundary(self):
        machine = loaded_machine()
        machine.max_cycles = 60
        with pytest.raises(CycleLimitExceeded) as excinfo:
            machine.run(machine.image.entry,
                        answer_names=machine.image.query_variable_names)
        err = excinfo.value
        assert err.recent_addresses, "watchdog lost the address ring"
        assert machine.cycles > 60
        # State is intact at an instruction boundary: the run can be
        # resumed with a bigger budget and completes normally.
        stats = machine.resume(extra_cycles=1_000_000)
        assert stats.solutions == 1
        reference = run_query(APPEND, QUERY)
        assert stats.cycles == reference.stats.cycles

    def test_unfused_budget_stops_where_seed_stops(self):
        # Unfused code runs one instruction per loop step, so the
        # watchdog fires at the same instruction as in the seed; only a
        # fused closure may overshoot, by up to one closure.
        reference = run_nrev(nrev_machine("seed"))
        unfused, seed = nrev_machine("unfused"), nrev_machine("seed")
        for budget in range(50, 3000, 37):
            stops, finals = [], []
            for machine in (unfused, seed):
                machine.reset_for_reuse()
                machine.max_cycles = budget
                with pytest.raises(CycleLimitExceeded):
                    run_nrev(machine)
                stops.append((machine.p, machine.cycles,
                              machine.stats.instructions))
                finals.append(machine.resume(extra_cycles=10_000_000))
            assert stops[0] == stops[1], f"budget {budget}"
            assert finals[0] == finals[1] == reference, f"budget {budget}"

    def test_code_fetch_trap_reports_one_pc_on_every_path(self):
        # A trap on the first fetch of a run: the code cache is cold
        # and the bootstrap stub's code page unmapped, with demand
        # paging off.  P advances before the fetch on every path, as
        # in the seed, so err.pc is the fall-through while the report
        # and the ring name the faulting stub.
        seen = {}
        for path in ("fused", "unfused", "seed", "traced"):
            machine = nrev_machine(path)
            run_nrev(machine)
            memory = machine.memory
            tags = memory.code_cache.tags
            tags[:] = [None] * len(tags)
            memory.mmu.demand_paging = False
            stub = machine._stubs[machine.image.entry]
            memory.mmu.unmap_page(page_number(stub), code_space=True)
            with pytest.raises(PageFault) as excinfo:
                run_nrev(machine)
            err = excinfo.value
            assert err.report.pc == stub and err.stats.cycles == 0
            seen[path] = (err.pc, err.stats, err.report.pc,
                          machine.recent_addresses())
        assert seen["unfused"] == seen["fused"]
        assert seen["seed"] == seen["fused"]
        assert seen["traced"] == seen["fused"]

    def test_ablation_flag_selects_seed_loop(self):
        machine = loaded_machine(fast_path=False)
        machine.run(machine.image.entry,
                    answer_names=machine.image.query_variable_names)
        assert machine._predecoded is None, \
            "the ablation must never build a predecode table"
