"""The superinstruction layer: fused-entry structure, fusion on first
entry, ablation equivalence, generation-counter staleness, warm-reuse
translation caching, compile-once superop code per image and the
memo key that lets every machine bind that code."""

import dataclasses
import pickle
import sys

import pytest

from repro.api import compile_and_load, run_query
from repro.bench.programs import SUITE
from repro.core.costs import CostModel, Features
from repro.core.instruction import Instruction
from repro.core.machine import Machine
from repro.core.monitor import MacrocodeTracer, attach
from repro.core.opcodes import Op
from repro.core.predecode import PredecodedCode, predecode
from repro.core.superops import SuperopFuser
from repro.core.symbols import SymbolTable
from repro.core.word import make_float, make_int
from repro.errors import ArithmeticError_
from repro.prolog.writer import term_to_text
from repro.serve import EnginePool, ImageCache

APPEND = ("append([], L, L).\n"
          "append([H|T], L, [H|R]) :- append(T, L, R).\n")
QUERY = "append([1,2,3], [4,5], R)"


def loaded_machine(program=APPEND, query=QUERY, **kwargs):
    return compile_and_load(program, query,
                            machine=Machine(symbols=SymbolTable(),
                                            fast_path=True, **kwargs))


def run_loaded(machine):
    return machine.run(machine.image.entry,
                       answer_names=machine.image.query_variable_names)


def machine_over(image, **options):
    machine = Machine(symbols=image.symbols, **options)
    image.install(machine)
    machine.image = image
    return machine


def fused_slots(table):
    """(closures installed, fusable entries) of a predecoded table: an
    entry is fusable when its fused slot is filled at all, and holds
    its block's closure once its steps are gone."""
    slots = [entry for entry in table.entries
             if entry is not None and entry[4] is not None]
    return sum(1 for entry in slots if entry[0] == ()), len(slots)


class TestFusedEntries:
    def test_fused_entries_preserve_block_sums(self):
        machine = loaded_machine()
        run_loaded(machine)
        plain = predecode(machine.code, machine._dispatch,
                          machine.costs.static_cost_table())
        fused = machine._predecoded
        assert fused.fused_count > 0
        # Entries not entered yet share the table's one on-entry
        # callable; an entered entry holds its own closure.
        on_entry = {entry[4] for entry in fused.entries
                    if entry is not None and entry[0]
                    and entry[4] is not None}
        assert len(on_entry) == 1
        seen_fused = 0
        for address, entry in enumerate(fused.entries):
            ref = plain.entries[address]
            assert (entry is None) == (ref is None)
            if entry is None:
                continue
            steps, cycles, instrs, infers, slot = entry
            # The uncharge sums a fused entry carries must be the plain
            # translation's, or mid-block deviations landing on it
            # would settle wrong cycle counts.
            assert (cycles, instrs, infers) == (ref[1], ref[2], ref[3])
            if steps == ():
                seen_fused += 1
                assert callable(slot)
                assert slot not in on_entry
            else:
                assert steps == ref[0]
            # Traced and recovering runs need the plain per-address
            # step even under a fused entry.
            assert fused.singles[address] == plain.singles[address]
        assert seen_fused == fused.fused_count

    def test_superops_ablation_runs_unfused_and_identical(self):
        fused = loaded_machine()
        unfused = loaded_machine(features=Features(superops=False))
        stats_fused = run_loaded(fused)
        stats_unfused = run_loaded(unfused)
        assert unfused._predecoded.fused_count == 0
        assert all(entry is None or entry[4] is None
                   for entry in unfused._predecoded.entries)
        assert fused._predecoded.fused_count > 0
        assert stats_fused.cycles == stats_unfused.cycles
        assert stats_fused.instructions == stats_unfused.instructions
        assert stats_fused.inferences == stats_unfused.inferences
        assert [term_to_text(s["R"]) for s in fused.solutions] == \
            [term_to_text(s["R"]) for s in unfused.solutions]


class TestErrorsInsideFusedBlocks:
    def test_float_overflow_stops_every_path_alike(self):
        """A product that leaves single precision raises the same
        ArithmeticError_ at the same pc with the same RunStats on the
        fused, unfused and seed paths: the fused block uncharges its
        unexecuted suffix as it does for a trap."""
        program = "p(X, Y) :- A is X * 2.0, B is A * A, Y is B + 1.0.\n"
        seen = []
        for fused, options in (
                (True, dict(fast_path=True)),
                (False, dict(fast_path=True,
                             features=Features(superops=False))),
                (False, dict(fast_path=False))):
            machine = compile_and_load(
                program, "p(1.0e20, Y)",
                machine=Machine(symbols=SymbolTable(), **options))
            with pytest.raises(ArithmeticError_,
                               match="float overflow") as info:
                run_loaded(machine)
            assert info.value.stats is machine.stats
            if fused:
                assert machine._predecoded.fused_count > 0
            seen.append((info.value.pc, dataclasses.asdict(machine.stats)))
        assert seen[0] == seen[1] == seen[2]


def _hand_assembled(op, symbols):
    """Straight-line code, entered at address 0 by the bootstrap stub,
    that runs ``op`` inside a block of two or more instructions: the
    compiler never emits JUMP, GET_Y_VALUE or UNIFY_Y_VALUE, and puts
    HALT and RETRY only in blocks of their own."""
    f1 = symbols.functor_index("f", 1)
    return {
        Op.JUMP: [Instruction(Op.PUT_CONSTANT, make_int(1), 1),
                  Instruction(Op.JUMP, 3),
                  Instruction(Op.PUT_CONSTANT, make_int(2), 1)],
        # Halts mid-code, before the stub's own HALT.
        Op.HALT: [Instruction(Op.PUT_CONSTANT, make_int(1), 1),
                  Instruction(Op.HALT),
                  Instruction(Op.PUT_CONSTANT, make_int(2), 1)],
        # TRY, a shallow failure back into [PUT_CONSTANT, RETRY], a
        # second one into TRUST, which succeeds.
        Op.RETRY: [Instruction(Op.TRY, 4, 0),
                   Instruction(Op.PUT_CONSTANT, make_int(7), 1),
                   Instruction(Op.RETRY, 6, 0),
                   Instruction(Op.TRUST, 8, 0),
                   Instruction(Op.PUT_CONSTANT, make_int(5), 2),
                   Instruction(Op.FAIL),
                   Instruction(Op.PUT_CONSTANT, make_int(6), 3),
                   Instruction(Op.FAIL),
                   Instruction(Op.PUT_CONSTANT, make_int(8), 4)],
        # The first GET_Y_VALUE binds Y0, the second fails on it.
        Op.GET_Y_VALUE: [Instruction(Op.ALLOCATE, 1),
                         Instruction(Op.PUT_Y_VARIABLE, 0, 0),
                         Instruction(Op.PUT_CONSTANT, make_int(5), 1),
                         Instruction(Op.GET_Y_VALUE, 0, 1),
                         Instruction(Op.PUT_Y_VALUE, 0, 2),
                         Instruction(Op.PUT_CONSTANT, make_int(6), 3),
                         Instruction(Op.GET_Y_VALUE, 0, 3),
                         Instruction(Op.DEALLOCATE)],
        # UNIFY_Y_VALUE in write mode, then in read mode.
        Op.UNIFY_Y_VALUE: [Instruction(Op.ALLOCATE, 1),
                           Instruction(Op.PUT_CONSTANT, make_int(3), 0),
                           Instruction(Op.GET_Y_VARIABLE, 0, 0),
                           Instruction(Op.PUT_STRUCTURE, f1, 1),
                           Instruction(Op.UNIFY_Y_VALUE, 0),
                           Instruction(Op.GET_STRUCTURE, f1, 1),
                           Instruction(Op.UNIFY_Y_VALUE, 0),
                           Instruction(Op.DEALLOCATE)],
    }[op] + [Instruction(Op.PROCEED)]


#: Small programs whose compiled code runs the op inside a fused block.
COLD_OP_PROGRAMS = {
    Op.FAIL: ("p(X) :- X = 1, fail.\np(2).\n", "p(X)"),
    Op.GET_LEVEL: ("p(X) :- q(Y), !, X = Y.\nq(1).\nq(2).\n", "p(X)"),
    Op.PUT_X_VARIABLE: ("p(X) :- q(_, X).\nq(1, 2).\nq(3, 4).\n", "p(X)"),
    Op.PUT_NIL: ("p(X) :- q(X, []).\nq(1, []).\n", "p(X)"),
    Op.UNIFY_Y_VARIABLE: ("p(f(_, _, X)) :- X = 1.\n",
                          "p(f(a, b, Z)), p(W)"),
    Op.UNIFY_VOID: ("p(f(_, _, X)) :- X = 1.\n", "p(f(a, b, Z)), p(W)"),
}

COLD_OPS = (Op.JUMP, Op.HALT, Op.FAIL, Op.RETRY, Op.GET_LEVEL,
            Op.GET_Y_VALUE, Op.PUT_X_VARIABLE, Op.PUT_NIL,
            Op.UNIFY_Y_VARIABLE, Op.UNIFY_Y_VALUE, Op.UNIFY_VOID)


class TestColdOpsInsideFusedBlocks:
    """The ops without an inline emitter, each run through its bound
    handler inside a fused block: the fused run, the unfused fast path
    and the seed agree on answers (or registers and written cells) and
    full ``RunStats``."""

    PATHS = (dict(fast_path=True),
             dict(fast_path=True, features=Features(superops=False)),
             dict(fast_path=False))

    @staticmethod
    def load(op, options):
        machine = Machine(symbols=SymbolTable(), **options)
        if op in COLD_OP_PROGRAMS:
            compile_and_load(*COLD_OP_PROGRAMS[op], machine=machine)
            return machine, machine.image.entry
        for instr in _hand_assembled(op, machine.symbols):
            machine.code.append(instr)
            machine.code.extend([None] * (instr.size - 1))
        return machine, 0

    @staticmethod
    def observe(machine, entry):
        image = getattr(machine, "image", None)
        if image is None:
            stats = machine.run(entry)
            shown = (list(machine.regs.cells),
                     dict(machine.memory.store.words),
                     machine.halted, machine.exhausted)
        else:
            stats = machine.run(entry, collect_all=True,
                                answer_names=image.query_variable_names)
            shown = [{name: term_to_text(term)
                      for name, term in solution.items()}
                     for solution in machine.solutions]
        return shown, dataclasses.asdict(stats)

    @pytest.mark.parametrize("op", COLD_OPS, ids=lambda op: op.name)
    def test_op_runs_through_its_handler_inside_a_fused_block(self, op):
        fused, entry = self.load(op, self.PATHS[0])
        callers = []
        handler = fused._dispatch[op]

        def traced(instr):
            callers.append(sys._getframe(1).f_code.co_name)
            handler(instr)
        fused._dispatch[op] = traced
        fused._bootstrap_stub(entry)
        table = fused._ensure_predecoded()
        assert table.fused_count == 0
        observed = self.observe(fused, entry)
        assert fused._predecoded is table and table.fused_count > 0
        # The handler ran from a superop, which binds the op's
        # instruction only when it emits the op through its handler.
        assert "_superop" in callers
        assert any(isinstance(bound, Instruction) and bound.op is op
                   for view in table.entries
                   if view is not None and view[0] == ()
                   for bound in view[4].__defaults__)
        for options in self.PATHS[1:]:
            assert self.observe(*self.load(op, options)) == observed


class TestFusionOnFirstEntry:
    """Blocks are fused when a run first enters them, so translation
    compiles nothing and runs that never call a fused slot (traced,
    recovering) compile nothing either."""

    def test_only_blocks_that_run_are_compiled(self):
        cache = ImageCache()
        installed = fusable = 0
        for bench in SUITE.values():
            machine = machine_over(cache.get(bench.source_pure,
                                             bench.query_pure))
            compiles = SuperopFuser.compiles_performed
            machine.run(machine.image.entry,
                        collect_all=bench.all_solutions,
                        answer_names=machine.image.query_variable_names)
            closures, slots = fused_slots(machine._predecoded)
            assert SuperopFuser.compiles_performed - compiles == closures
            assert machine._predecoded.fused_count == closures
            installed += closures
            fusable += slots
        assert 0 < installed < fusable

    def test_traced_and_recovering_runs_compile_nothing(self):
        bench = SUITE["nrev1"]
        for observe in ("recovery", "tracer"):
            compiles = SuperopFuser.compiles_performed
            if observe == "recovery":
                machine = run_query(bench.source_pure, bench.query_pure,
                                    use_cache=False, recovery=True).machine
            else:
                machine = machine_over(ImageCache().get(bench.source_pure,
                                                        bench.query_pure))
                attach(machine, MacrocodeTracer())
                run_loaded(machine)
            assert machine.solutions
            assert SuperopFuser.compiles_performed == compiles
            closures, slots = fused_slots(machine._predecoded)
            assert closures == 0 < slots
            assert machine._predecoded.fused_count == 0


class TestGenerationStaleness:
    def test_valid_for_checks_generation(self):
        machine = loaded_machine()
        table = machine._ensure_predecoded()
        assert table.valid_for(machine.code, machine._code_generation)
        # A length-preserving change only moves the generation; the
        # staleness check must still catch it.
        assert not table.valid_for(machine.code,
                                   machine._code_generation + 1)
        # Without a generation the check degrades to length-only.
        assert table.valid_for(machine.code)

    def test_patch_code_retranslates_same_length_rewrite(self):
        machine = loaded_machine("value(1).", "value(X)")
        run_loaded(machine)
        assert term_to_text(machine.solutions[0]["X"]) == "1"
        address, old = next(
            (a, i) for a, i in enumerate(machine.code)
            if i is not None and i.op is Op.GET_CONSTANT)
        machine.patch_code(address, Instruction(
            Op.GET_CONSTANT, make_int(2), old.b, infer=old.infer))
        machine.reset_for_reuse()
        run_loaded(machine)
        # With a length-only staleness check the fast path would keep
        # executing the stale predecoded constant and still answer 1.
        assert term_to_text(machine.solutions[0]["X"]) == "2"


class TestWarmReuseTranslationCache:
    def test_reset_for_reuse_keeps_translation(self):
        machine = loaded_machine()
        first = run_loaded(machine)
        table = machine._predecoded
        baseline = PredecodedCode.translations_performed
        machine.reset_for_reuse()
        second = run_loaded(machine)
        # Same table object, no new translation work — the warm-pool
        # analogue of the linker's links_performed guarantee.
        assert machine._predecoded is table
        assert PredecodedCode.translations_performed == baseline
        assert second.cycles == first.cycles
        assert second.instructions == first.instructions

    def test_invalidation_translates_exactly_once(self):
        machine = loaded_machine()
        run_loaded(machine)
        baseline = PredecodedCode.translations_performed
        machine.invalidate_predecode()
        machine.reset_for_reuse()
        run_loaded(machine)
        assert PredecodedCode.translations_performed == baseline + 1


class TestCompileOncePerImage:
    """Superop code is compiled once per image: machines built later
    over the same image re-translate (their closures bind their own
    objects) but find every code object in the image's memo."""

    PROGRAMS = ("con1", "nrev1")

    @staticmethod
    def answers(machine):
        return [{name: term_to_text(term) for name, term in sol.items()}
                for sol in machine.solutions]

    def run_pooled(self, pool, images, name):
        image = images[name]
        machine = pool.machine_for(name, image)
        stats = machine.run(image.entry,
                            answer_names=image.query_variable_names)
        assert machine._predecoded.fused_count > 0
        return self.answers(machine), stats

    def test_rebuilt_machine_retranslates_without_recompiling(self):
        cache = ImageCache()
        images = {name: cache.get(SUITE[name].source_pure,
                                  SUITE[name].query_pure)
                  for name in self.PROGRAMS}
        # One pooled machine for two images: every draw evicts the
        # other image's machine, so every draw builds a machine.
        pool = EnginePool(max_machines=1)
        compiles = SuperopFuser.compiles_performed
        first = {name: self.run_pooled(pool, images, name)
                 for name in self.PROGRAMS}
        assert SuperopFuser.compiles_performed > compiles
        compiles = SuperopFuser.compiles_performed
        translations = PredecodedCode.translations_performed
        for _ in range(2):
            for name in self.PROGRAMS:
                assert self.run_pooled(pool, images, name) == first[name]
        assert PredecodedCode.translations_performed \
            == translations + 2 * len(self.PROGRAMS)
        assert SuperopFuser.compiles_performed == compiles
        for name in self.PROGRAMS:
            unfused = run_query(SUITE[name].source_pure,
                                SUITE[name].query_pure, use_cache=False,
                                features=Features(superops=False))
            assert unfused.machine._predecoded.fused_count == 0
            assert (self.answers(unfused.machine), unfused.stats) \
                == first[name]

    def test_pickles_carry_no_code_and_unpickled_image_fuses(self):
        bench = SUITE["nrev1"]
        image = ImageCache().get(bench.source_pure, bench.query_pure)
        machine = Machine(symbols=image.symbols)
        image.install(machine)
        machine.image = image
        stats = run_loaded(machine)
        assert image._superop_code
        # Code objects cannot be pickled at all, so a memo that
        # travelled would fail these dumps outright.
        restored_image = pickle.loads(pickle.dumps(image))
        restored_machine = pickle.loads(pickle.dumps(machine))
        assert "_superop_code" not in vars(restored_image)
        assert "_superop_code" not in vars(restored_machine.image)
        assert restored_machine._superop_code is None
        compiles = SuperopFuser.compiles_performed
        fresh = Machine(symbols=restored_image.symbols)
        restored_image.install(fresh)
        fresh.image = restored_image
        assert run_loaded(fresh) == stats
        assert fresh._predecoded.fused_count \
            == machine._predecoded.fused_count
        assert SuperopFuser.compiles_performed \
            == compiles + len(restored_image._superop_code)


class TestBindFromImageMemo:
    """The image's memo is keyed by block address, machine
    configuration and the block's instructions, so every machine binds
    its own objects into code generated once per image and
    configuration, and a patched or differently configured machine
    never runs another's code."""

    @staticmethod
    def observe(machine):
        stats = run_loaded(machine)
        return (TestCompileOncePerImage.answers(machine),
                dataclasses.asdict(stats))

    def test_later_machine_generates_and_compiles_nothing(
            self, monkeypatch):
        bench = SUITE["nrev1"]
        image = ImageCache().get(bench.source_pure, bench.query_pure)
        first = machine_over(image)
        reference = self.observe(first)
        generated = []
        generate = SuperopFuser._generate

        def counting(fuser, address, steps):
            generated.append(address)
            return generate(fuser, address, steps)
        monkeypatch.setattr(SuperopFuser, "_generate", counting)
        compiles = SuperopFuser.compiles_performed
        later = machine_over(image)
        assert self.observe(later) == reference
        assert generated == []
        assert SuperopFuser.compiles_performed == compiles
        closures = [entry[4] for entry in later._predecoded.entries
                    if entry is not None and entry[0] == ()]
        assert len(closures) == first._predecoded.fused_count > 0
        # Each closure reaches machine objects only through its
        # defaults, and those are the later machine's own.
        owned = {id(later), id(later.regs.cells), id(later.memory)}
        foreign = {id(first), id(first.regs.cells), id(first.memory)}
        for closure in closures:
            assert set(closure.__globals__) == {"__builtins__"}
            defaults = {id(value) for value in closure.__defaults__}
            assert owned & defaults and not foreign & defaults

    CONFIGS = {
        "no_shallow_no_mwac": dict(features=Features(
            shallow_backtracking=False, mwac=False)),
        "no_zone_check_plain_cache": dict(features=Features(
            zone_check=False, sectioned_cache=False)),
        "dispatch_overhead": dict(costs=CostModel(dispatch_overhead=2)),
    }

    @pytest.mark.parametrize("first, second", [
        pair for config in CONFIGS
        for pair in ((None, config), (config, None))])
    def test_configurations_share_the_memo_not_the_code(self, first,
                                                        second):
        bench = SUITE["queens"]
        image = ImageCache().get(bench.source_pure, bench.query_pure)
        sizes = []
        for config in (first, second):
            options = self.CONFIGS.get(config, {})
            machine = machine_over(image, **options)
            assert machine._superop_code is image._superop_code
            fused = self.observe(machine)
            sizes.append(len(image._superop_code))
            seed = machine_over(image, fast_path=False, **options)
            assert fused == self.observe(seed)
        # The second configuration compiled its own blocks.
        assert 0 < sizes[0] < sizes[1]

    def test_patched_machine_runs_its_own_code(self):
        image = ImageCache().get("a(1). b(2). p(X) :- a(X).", "p(X)")

        def answer(machine):
            run_loaded(machine)
            return term_to_text(machine.solutions[0]["X"])
        plain = machine_over(image)
        assert answer(plain) == "1"
        patched = machine_over(image)
        address, old = next(
            (a, i) for a, i in enumerate(patched.code)
            if i is not None and i.op is Op.EXECUTE
            and i.a == image.predicates[("a", 1)])
        # EXECUTE has plain-int operands, so its key is its content.
        patched.patch_code(address, Instruction(
            Op.EXECUTE, image.predicates[("b", 1)], old.b, old.c,
            infer=old.infer))
        assert answer(patched) == "2"
        # GET_CONSTANT carries a Word, so its key is the object.
        address, old = next(
            (a, i) for a, i in enumerate(patched.code)
            if i is not None and i.op is Op.GET_CONSTANT
            and i.a == make_int(2))
        patched.patch_code(address, Instruction(
            Op.GET_CONSTANT, make_int(3), old.b, infer=old.infer))
        patched.reset_for_reuse()
        assert answer(patched) == "3"
        plain.reset_for_reuse()
        assert answer(plain) == "1"
        assert answer(machine_over(image)) == "1"

    def test_signed_zeros_are_different_constants(self):
        # Word.__eq__ equates 0.0 and -0.0, so a key holding Words by
        # value would hand the patched machine the other zero.
        image = ImageCache().get("p(X) :- r(0.0, X). r(Y, Y).", "p(X)")
        answers = []
        for sign in (1.0, -1.0, 1.0):
            machine = machine_over(image)
            address, old = next(
                (a, i) for a, i in enumerate(machine.code)
                if i is not None and i.op is Op.PUT_CONSTANT)
            machine.patch_code(address, Instruction(
                Op.PUT_CONSTANT, make_float(sign * 0.0), old.b,
                infer=old.infer))
            run_loaded(machine)
            answers.append(term_to_text(machine.solutions[0]["X"]))
        assert answers == ["0.0", "-0.0", "0.0"]
