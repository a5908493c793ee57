"""Decoding heap words back into source-level terms.

Used by the ``'$answer'`` escape (solution collection), by real-I/O
``write/1`` and by tests.  Decoding is a *host-side* operation — the
workstation reading KCM memory over the VME interface (figure 1) — so
it reads the functional store directly and costs no simulated cycles.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.tags import Type
from repro.core.word import Word
from repro.prolog.terms import Atom, Float, Int, Struct, Term, Var

#: Safety bound against decoding cyclic or runaway structures.
MAX_DECODE_CELLS = 1_000_000

_TOO_LARGE = "term too large to decode (cyclic?)"


def decode_word(machine, word: Word,
                names: "Dict[int, str] | None" = None) -> Term:
    """Convert a tagged heap word into a :mod:`repro.prolog.terms` term.

    Unbound variables decode to :class:`Var` named ``_<address>`` (or
    via the optional ``names`` map keyed by cell address).

    Decoding keeps its own stack rather than recursing, so an answer of
    any depth or length decodes.  A structure or list cell that is its
    own ancestor on the path being decoded (a cyclic term, which
    unification without occurs check can build) raises ``ValueError``
    at once; a subterm shared by two branches decodes in both.  Every
    word and every reference hop is charged against
    :data:`MAX_DECODE_CELLS`, so a reference loop raises the same error.
    """
    store = machine.memory.store
    symbols = machine.symbols
    read = store.read
    budget = MAX_DECODE_CELLS
    REF, LIST, STRUCT = Type.REF, Type.LIST, Type.STRUCT
    # Compound cells on the path from the root to the word in hand.
    open_cells = set()
    results: List[Term] = []
    # A task is a word to decode, or a (name, arity, cell) triple that
    # builds a compound from the last ``arity`` results once its
    # arguments are decoded.
    tasks: list = [word]
    while tasks:
        w = tasks.pop()
        if type(w) is tuple:
            name, arity, cell = w
            first = len(results) - arity
            args = tuple(results[first:])
            del results[first:]
            results.append(Struct(name, args))
            open_cells.discard(cell)
            continue
        # Dereference without simulated cycle cost — but charge the
        # host-side budget per hop: a REF loop longer than one cell
        # (a->b->a) never hits the self-reference test below and would
        # otherwise spin forever.
        while w.type is REF:
            budget -= 1
            if budget < 0:
                raise ValueError(_TOO_LARGE)
            cell = read(w.value)
            if cell.type is REF and cell.value == w.value:
                break
            w = cell
        budget -= 1
        if budget < 0:
            raise ValueError(_TOO_LARGE)
        t = w.type
        if t is REF:
            if names and w.value in names:
                results.append(Var(names[w.value]))
            else:
                results.append(Var(f"_{w.value}"))
        elif t is Type.INT:
            results.append(Int(int(w.value)))
        elif t is Type.FLOAT:
            results.append(Float(float(w.value)))
        elif t is Type.ATOM:
            results.append(Atom(symbols.atom_name(int(w.value))))
        elif t is Type.NIL:
            results.append(Atom("[]"))
        elif t is LIST or t is STRUCT:
            address = w.value
            cell = (t, address)
            if cell in open_cells:
                raise ValueError(_TOO_LARGE)
            open_cells.add(cell)
            if t is LIST:
                tasks += ((".", 2, cell), read(address + 1), read(address))
            else:
                name, arity = symbols.functor_key(int(read(address).value))
                tasks.append((name, arity, cell))
                tasks += [read(address + i) for i in range(arity, 0, -1)]
        else:
            raise ValueError(f"cannot decode word of type {t.name}")
    return results[0]


def encode_term(machine, term: Term) -> Word:
    """Build ``term`` on the machine's heap; returns the root word.

    The inverse of :func:`decode_word`, used by tests and the query
    harness to preload arguments.  Variables sharing a name share one
    fresh heap cell.
    """
    cache: Dict[str, Word] = {}

    def build(t: Term) -> Word:
        if isinstance(t, Int):
            from repro.core.word import make_int
            return make_int(t.value)
        if isinstance(t, Float):
            from repro.core.word import make_float
            return make_float(t.value)
        if isinstance(t, Atom):
            return machine.symbols.atom_word(t.name)
        if isinstance(t, Var):
            if t.name not in cache:
                cache[t.name] = machine.new_heap_var()
            return cache[t.name]
        if isinstance(t, Struct):
            from repro.core.word import make_functor, make_list, make_struct
            args = [build(a) for a in t.args]
            if t.name == "." and len(args) == 2:
                address = machine.h
                machine.heap_push(args[0])
                machine.heap_push(args[1])
                return make_list(address)
            findex = machine.symbols.functor_index(t.name, t.arity)
            address = machine.heap_push(make_functor(findex))
            for arg in args:
                machine.heap_push(arg)
            return make_struct(address)
        raise TypeError(f"cannot encode {t!r}")

    return build(term)
