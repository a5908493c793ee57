"""Static linker and assembler.

The paper's toolchain compiles and assembles on the host and links each
program "together with a small runtime library" before downloading it
to KCM (section 4).  This module is that toolchain: it

1. compiles every predicate of the program (with indexing),
2. compiles the query as a hidden predicate ``'$query'/0`` whose body
   ends in a ``'$answer'(Vars)`` escape that reports solutions,
3. generates the runtime library for every referenced built-in — either
   escape stubs, or (for ``write/1``, ``nl/0``, ``tab/1`` in the
   benchmark configuration) unit clauses costing exactly the minimal
   5-cycle call/return that section 4.2's methodology prescribes,
4. assembles everything into one absolute code image (two passes:
   address assignment, then operand resolution — all KCM branch
   targets are absolute addresses, section 3.1.3).

Static code-size accounting for Table 1 (program predicates only,
"values indicated do not include the code of the runtime library")
is exposed via :attr:`LinkedImage.program_instructions` and
:attr:`LinkedImage.program_words`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.codegen import Label
from repro.compiler.indexing import PredicateCode, compile_predicate
from repro.compiler.normalize import (
    Clause, NormalizedProgram, group_program, normalize_program,
)
from repro.core.builtins import builtin_for
from repro.core.instruction import Instruction
from repro.core.opcodes import BRANCHING_OPS, Op
from repro.core.symbols import SymbolTable
from repro.errors import LinkError
from repro.prolog.parser import parse_program, parse_term
from repro.prolog.terms import (
    Atom, Struct, Term, Var, functor_indicator, term_variables,
)

#: write-family predicates that the benchmark configuration compiles as
#: unit clauses (section 4.2).
IO_STUB_PREDICATES = {("write", 1), ("writeq", 1), ("print", 1),
                      ("nl", 0), ("tab", 1)}


@dataclass
class LinkedImage:
    """A fully linked code image ready to install into a machine."""

    code: List[Optional[Instruction]]
    entry: int
    predicates: Dict[Tuple[str, int], int]
    builtin_handlers: Dict[int, object]
    symbols: SymbolTable
    query_variable_names: List[str]
    #: per program predicate: (instructions, words).
    sizes: Dict[Tuple[str, int], Tuple[int, int]] = field(
        default_factory=dict)
    #: builtin id -> (name, arity); the picklable description of
    #: ``builtin_handlers``, from which the handlers are rebuilt on
    #: unpickle (see ``__getstate__``).
    builtin_specs: Dict[int, Tuple[str, int]] = field(default_factory=dict)

    # -- pickling (images ship to service workers, see repro.serve) ----

    def __getstate__(self) -> dict:
        """Ship the handler table as (name, arity) specs, not callables.

        The handlers are currently all module-level functions and would
        pickle by reference, but the wire format must not depend on
        handler identity: workers rebuild the table from the specs via
        :func:`repro.core.builtins.builtin_for`, so an image links
        against the *receiving* process's builtin implementations.
        """
        state = self.__dict__.copy()
        state["builtin_handlers"] = None
        # Compiled superop code is host-side and rebuilt on first use;
        # code objects never travel with the image.
        state.pop("_superop_code", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        handlers: Dict[int, object] = {}
        for builtin_id, (name, arity) in self.builtin_specs.items():
            implementation = builtin_for(name, arity)
            if implementation is None:
                raise LinkError(
                    f"unpickled image references unknown builtin "
                    f"{name}/{arity}")
            handlers[builtin_id] = implementation
        self.builtin_handlers = handlers

    @property
    def program_instructions(self) -> int:
        """Static instruction count, runtime library excluded."""
        return sum(i for i, _ in self.sizes.values())

    @property
    def program_words(self) -> int:
        """Static code words (switch tables included), library excluded."""
        return sum(w for _, w in self.sizes.values())

    @property
    def program_bytes(self) -> int:
        """Static code bytes: 8 bytes per 64-bit code word."""
        return 8 * self.program_words

    def install(self, machine) -> None:
        """Load this image into a machine (which must share the symbol
        table the image was compiled against)."""
        if machine.symbols is not self.symbols:
            raise LinkError("machine and image use different symbol tables")
        machine.code = list(self.code)
        machine.predicates = dict(self.predicates)
        machine.builtins = dict(self.builtin_handlers)
        machine._stubs = {}
        # The code zone changed wholesale: the predecoded dispatch
        # table (repro.core.predecode) is stale.
        machine.invalidate_predecode()
        # Every machine over this image shares one superop memo
        # (repro.core.superops), created on first install: each fused
        # block is generated and compiled once per machine
        # configuration, and every machine binds its own objects into
        # the code.  The instruction objects are the image's own (the
        # list is copied, not its entries), which the memo's key relies
        # on.  The memo lives and dies with the image and is never
        # pickled.
        machine._superop_code = vars(self).setdefault("_superop_code", {})


class Linker:
    """Compile + link a program and one query."""

    #: process-wide count of full compile+link pipelines ever run; the
    #: hook the image cache's zero-recompile regression tests read
    #: (tests/test_serve_cache.py).
    links_performed = 0

    def __init__(self, symbols: Optional[SymbolTable] = None,
                 io_mode: str = "stub"):
        if io_mode not in ("stub", "real"):
            raise LinkError(f"unknown io_mode {io_mode!r}")
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.io_mode = io_mode

    # -- front half: compilation ------------------------------------------------

    def link(self, program_text: str, query_text: str,
             collect_query_vars: bool = True) -> LinkedImage:
        """The whole pipeline: text in, LinkedImage out."""
        program = normalize_program(parse_program(program_text))
        query_clause, names = self._query_clause(query_text, program)
        return self.link_clauses(program, query_clause, names)

    def link_clauses(self, program: NormalizedProgram, query_clause: Clause,
                     query_names: List[str]) -> LinkedImage:
        Linker.links_performed += 1
        groups = group_program(program)
        predicate_codes: List[PredicateCode] = []
        for (name, arity), clauses in groups.items():
            predicate_codes.append(
                compile_predicate(name, arity, clauses, self.symbols))

        query_code = compile_predicate("$query", 0, [query_clause],
                                       self.symbols)

        defined = {p.indicator for p in predicate_codes}
        referenced = self._referenced_predicates(
            list(program.clauses) + [query_clause])
        library_codes, builtin_handlers, builtin_specs = \
            self._runtime_library(referenced - defined)

        all_codes = predicate_codes + library_codes + [query_code]
        code, addresses = self._assemble(all_codes)

        predicates = {p.indicator: addresses[p.entry.name]
                      for p in all_codes}
        # Static sizes cover the program plus its driver (the query
        # clause) — the paper's benchmarks are self-contained programs —
        # but never the runtime library (Table 1's stated exclusion).
        sizes = {p.indicator: (p.instruction_count, p.word_count)
                 for p in predicate_codes}
        sizes[("$query", 0)] = (query_code.instruction_count,
                                query_code.word_count)
        return LinkedImage(
            code=code,
            entry=predicates[("$query", 0)],
            predicates=predicates,
            builtin_handlers=builtin_handlers,
            symbols=self.symbols,
            query_variable_names=query_names,
            sizes=sizes,
            builtin_specs=builtin_specs,
        )

    def _query_clause(self, query_text: str, program: NormalizedProgram
                      ) -> Tuple[Clause, List[str]]:
        """Build '$query' :- Goals, '$answer'(Vars)."""
        term = parse_term(query_text)
        variables = [v for v in term_variables(term)
                     if not v.name.startswith("_")]
        names = [v.name for v in variables]
        if variables:
            answer: Term = Struct("$answer", tuple(variables))
        else:
            answer = Atom("$answer")
        from repro.compiler.normalize import (
            flatten_conjunction, _normalize_goal)
        goals: List[Term] = []
        for goal in flatten_conjunction(term):
            goals.extend(_normalize_goal(goal, program))
        goals.append(answer)
        return Clause(Atom("$query"), goals), names

    def _referenced_predicates(self, clauses: List[Clause]
                               ) -> "set[Tuple[str, int]]":
        from repro.compiler.goals import is_inline
        referenced = set()
        for clause in clauses:
            for goal in clause.goals:
                if isinstance(goal, Var):
                    continue
                if is_inline(goal):
                    continue
                referenced.add(functor_indicator(goal))
        return referenced

    # -- runtime library -----------------------------------------------------------

    def _runtime_library(self, needed: "set[Tuple[str, int]]"
                         ) -> Tuple[List[PredicateCode], Dict[int, object],
                                    Dict[int, Tuple[str, int]]]:
        library: List[PredicateCode] = []
        handlers: Dict[int, object] = {}
        specs: Dict[int, Tuple[str, int]] = {}
        next_id = 0
        for name, arity in sorted(needed):
            if self.io_mode == "stub" and (name, arity) in IO_STUB_PREDICATES:
                library.append(self._unit_clause_stub(name, arity))
                continue
            implementation = builtin_for(name, arity)
            if implementation is None:
                raise LinkError(f"undefined predicate {name}/{arity}")
            findex = self.symbols.functor_index(name, arity)
            builtin_id = next_id
            next_id += 1
            handlers[builtin_id] = implementation
            specs[builtin_id] = (name, arity)
            code = PredicateCode(name, arity)
            code.entry = Label(f"builtin:{name}/{arity}")
            code.items = [
                code.entry,
                Instruction(Op.ESCAPE, builtin_id, arity, findex),
                Instruction(Op.PROCEED),
            ]
            library.append(code)
        return library, handlers, specs

    def _unit_clause_stub(self, name: str, arity: int) -> PredicateCode:
        """write/1 etc. as a unit clause: neck + proceed = the minimal
        5-cycle call/return of section 4.2."""
        code = PredicateCode(name, arity)
        code.entry = Label(f"iostub:{name}/{arity}")
        code.items = [
            code.entry,
            Instruction(Op.NECK, arity),
            Instruction(Op.PROCEED),
        ]
        return code

    # -- back half: assembly -----------------------------------------------------------

    def _assemble(self, codes: List[PredicateCode]
                  ) -> Tuple[List[Optional[Instruction]], Dict[str, int]]:
        addresses: Dict[str, int] = {}
        pc = 0
        for code in codes:
            for item in code.items:
                if isinstance(item, Label):
                    if item.name in addresses:
                        raise LinkError(f"duplicate label {item.name}")
                    addresses[item.name] = pc
                else:
                    pc += item.size

        entry_by_pred = {code.indicator: addresses[code.entry.name]
                         for code in codes}

        def resolve(value):
            if isinstance(value, Label):
                return addresses[value.name]
            if isinstance(value, tuple) and len(value) == 3 \
                    and value[0] == "pred":
                _, name, arity = value
                target = entry_by_pred.get((name, arity))
                if target is None:
                    raise LinkError(f"undefined predicate {name}/{arity}")
                return target
            return value

        image: List[Optional[Instruction]] = [None] * pc
        pc = 0
        for code in codes:
            for item in code.items:
                if isinstance(item, Label):
                    continue
                instr = item
                if instr.op in BRANCHING_OPS:
                    instr.a = resolve(instr.a)
                elif instr.op is Op.SWITCH_ON_TERM:
                    instr.a = resolve(instr.a)
                    instr.b = resolve(instr.b)
                    instr.c = resolve(instr.c)
                    instr.d = resolve(instr.d)
                elif instr.op in (Op.SWITCH_ON_CONSTANT,
                                  Op.SWITCH_ON_STRUCTURE):
                    instr.a = {key: resolve(target)
                               for key, target in instr.a.items()}
                    instr.b = resolve(instr.b)
                image[pc] = instr
                pc += instr.size
        return image, addresses


def link_program(program_text: str, query_text: str,
                 symbols: Optional[SymbolTable] = None,
                 io_mode: str = "stub") -> LinkedImage:
    """One-call convenience wrapper around :class:`Linker`."""
    return Linker(symbols=symbols, io_mode=io_mode).link(program_text,
                                                         query_text)
