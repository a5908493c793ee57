"""Heap term encode/decode round trips and machine-level helpers."""

import pytest

from repro.api import run_query
from repro.core.decode import decode_word, encode_term
from repro.core.machine import Machine
from repro.core.registers import RegisterFile, X_REGISTERS
from repro.core.symbols import SymbolTable
from repro.core.tags import Zone
from repro.core.trail import Trail
from repro.core.word import make_int, make_list, make_ref, make_unbound
from repro.prolog.parser import parse_term
from repro.prolog.terms import Atom, Struct
from repro.prolog.writer import term_to_text


@pytest.fixture
def machine():
    return Machine(symbols=SymbolTable())


class TestEncodeDecode:
    CASES = [
        "42", "-7", "3.5", "foo", "[]",
        "[1, 2, 3]", "f(a, b)", "f(g(h(1)), [x|T])",
        "point(X, Y)", "[a, [b, [c]]]",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, machine, text):
        term = parse_term(text)
        word = encode_term(machine, term)
        decoded = decode_word(machine, word)
        # Variables decode with fresh names; compare shape via writer
        # after normalising variable names through a second parse.
        assert term_to_text(decoded).count("(") \
            == term_to_text(term).count("(")
        if not any(c.isupper() or c == "_" for c in text):
            assert term_to_text(decoded) == term_to_text(term)

    def test_shared_variables_stay_shared(self, machine):
        word = encode_term(machine, parse_term("f(X, X)"))
        decoded = decode_word(machine, word)
        assert decoded.args[0] == decoded.args[1]

    def test_distinct_variables_stay_distinct(self, machine):
        word = encode_term(machine, parse_term("f(X, Y)"))
        decoded = decode_word(machine, word)
        assert decoded.args[0] != decoded.args[1]

    def test_named_decoding(self, machine):
        word = encode_term(machine, parse_term("X"))
        named = decode_word(machine, word, names={word.value: "Answer"})
        assert named.name == "Answer"


class TestRegisterFile:
    def test_x_register_bounds(self):
        regs = RegisterFile()
        regs.set_x(0, make_int(1))
        assert regs.x(0) == make_int(1)
        with pytest.raises(IndexError):
            regs.x(X_REGISTERS)
        with pytest.raises(IndexError):
            regs.set_x(X_REGISTERS, make_int(1))

    def test_argument_block_save_restore(self):
        regs = RegisterFile()
        for i in range(5):
            regs.set_x(i, make_int(i * 10))
        saved = regs.arguments(5)
        for i in range(5):
            regs.set_x(i, make_int(-1))
        regs.restore_arguments(saved)
        assert [regs.x(i).value for i in range(5)] == [0, 10, 20, 30, 40]


class TestTrail:
    def make_trail(self):
        cells = {}

        def read(address, zone):
            return cells[address]

        def write(address, word, zone):
            cells[address] = word

        return Trail(1000, read, write), cells

    def test_conditional_trailing_decision(self):
        trail, _ = self.make_trail()
        # Global cell older than HB: trail it.
        assert trail.needs_trailing(10, Zone.GLOBAL, hb=20, lb=0)
        # Younger than HB: vanishes on backtrack anyway.
        assert not trail.needs_trailing(30, Zone.GLOBAL, hb=20, lb=0)
        # Local cells compare against LB.
        assert trail.needs_trailing(5, Zone.LOCAL, hb=0, lb=9)
        assert not trail.needs_trailing(12, Zone.LOCAL, hb=0, lb=9)

    def test_unwind_restores_unbound(self):
        trail, cells = self.make_trail()
        cells[77] = make_int(5)          # the "bound" cell
        trail.push(77, Zone.GLOBAL)
        undone = trail.unwind_to(trail.base)
        assert undone == 1
        assert cells[77] == make_unbound(77, Zone.GLOBAL)
        assert trail.top == trail.base

    def test_unwind_to_midpoint(self):
        trail, cells = self.make_trail()
        for address in (10, 11, 12):
            cells[address] = make_int(address)
            trail.push(address, Zone.GLOBAL)
        mark = trail.base + 1
        trail.unwind_to(mark)
        assert cells[10] == make_int(10)             # still bound
        assert cells[11] == make_unbound(11, Zone.GLOBAL)
        assert cells[12] == make_unbound(12, Zone.GLOBAL)


class TestDecodeRefCycles:
    """Regression: decode_word used to hang on REF chains that loop
    without a direct self-reference (a -> b -> a never trips the
    unbound-variable test).  The per-hop budget turns both cycle shapes
    into the standard 'too large to decode' error.  Cyclic terms built
    by unification (no occurs check) raise the same error, as soon as a
    compound cell is its own ancestor, instead of escaping as a
    RecursionError or exhausting the budget."""

    @pytest.mark.parametrize("clause", [
        "q(Y) :- Y = f(Y).",
        "q(Y) :- Y = [Y].",
        "q(Y) :- Y = [1|Y].",
    ])
    def test_cyclic_answer_errors(self, clause):
        with pytest.raises(ValueError, match="cyclic"):
            run_query(clause, "q(A)", use_cache=False)

    def test_cyclic_list_errors_at_the_first_repeat(self, machine):
        store = machine.memory.store
        store.poke(400, make_int(1))
        store.poke(401, make_list(400))   # [1|Y] with Y the list itself
        reads = []
        plain_read = store.read
        store.read = lambda address: reads.append(address) \
            or plain_read(address)
        with pytest.raises(ValueError, match="cyclic"):
            decode_word(machine, make_list(400))
        assert len(reads) <= 4

    def test_shared_subterm_decodes_in_every_branch(self):
        result = run_query("q(X) :- Y = g(1, [a]), X = f(Y, [Y|Y]).",
                           "q(A)", use_cache=False)
        assert term_to_text(result.solutions[0]["A"]) \
            == "f(g(1, [a]), [g(1, [a])|g(1, [a])])"

    def test_deep_answer_decodes(self):
        result = run_query("d(0, z) :- !.\n"
                           "d(N, f(T)) :- M is N - 1, d(M, T).",
                           "d(3000, T)", use_cache=False)
        # Walk with a loop: term_to_text and Term.__eq__ recurse.
        term, depth = result.solutions[0]["T"], 0
        while isinstance(term, Struct):
            assert term.name == "f" and len(term.args) == 1
            term, depth = term.args[0], depth + 1
        assert depth == 3000
        assert term == Atom("z")

    def test_two_cell_ref_loop_errors(self, machine):
        store = machine.memory.store
        store.poke(100, make_ref(101, Zone.GLOBAL))
        store.poke(101, make_ref(100, Zone.GLOBAL))
        with pytest.raises(ValueError, match="cyclic"):
            decode_word(machine, make_ref(100, Zone.GLOBAL))

    def test_cyclic_tail_ref_chain_errors(self, machine):
        store = machine.memory.store
        store.poke(200, make_int(1))                  # cons head
        store.poke(201, make_ref(202, Zone.GLOBAL))   # cons tail ...
        store.poke(202, make_ref(203, Zone.GLOBAL))   # ... into a
        store.poke(203, make_ref(202, Zone.GLOBAL))   # 2-cycle
        with pytest.raises(ValueError, match="cyclic"):
            decode_word(machine, make_list(200))

    def test_self_reference_still_decodes_as_var(self, machine):
        store = machine.memory.store
        store.poke(300, make_unbound(300, Zone.GLOBAL))
        decoded = decode_word(machine, make_ref(300, Zone.GLOBAL))
        assert decoded.name == "_300"
