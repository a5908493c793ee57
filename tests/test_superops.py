"""The superinstruction layer: fused-entry structure, fusion on first
entry, ablation equivalence, generation-counter staleness, warm-reuse
translation caching and compile-once superop code per image."""

import dataclasses
import pickle

import pytest

from repro.api import compile_and_load, run_query
from repro.bench.programs import SUITE
from repro.core.costs import Features
from repro.core.instruction import Instruction
from repro.core.machine import Machine
from repro.core.monitor import MacrocodeTracer, attach
from repro.core.opcodes import Op
from repro.core.predecode import PredecodedCode, predecode
from repro.core.superops import SuperopFuser
from repro.core.symbols import SymbolTable
from repro.core.word import make_int
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


def machine_over(image):
    machine = Machine(symbols=image.symbols)
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
