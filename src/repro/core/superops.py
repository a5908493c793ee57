"""Superinstruction fusion over the predecoded fast path.

The predecode layer (:mod:`repro.core.predecode`) already pays decode
cost once per code word, but still executes one bound handler per
instruction.  Following the superinstruction literature for exactly
this interpreter shape (Körner et al., arXiv 2008.12543 — see
PAPERS.md), this module fuses straight-line opcode *runs* into single
generated host functions.

:class:`SuperopFuser` compiles one closure per basic block, on the
block's first entry.  Every block is fusable except a lone instruction
without an inline emitter, whose closure would save nothing over the
run loop's own step.  :func:`~repro.core.predecode.predecode` puts one
callable per table, :meth:`SuperopFuser.on_entry`, in the fused slot of
every fusable entry; the first call fuses the block, installs its
closure in the entry and runs it, so only blocks that run are ever
generated and compiled, whichever program the image holds.  The
closure's source is generated per block: operand registers,
fall-through addresses, code-cache probe constants and suffix cost sums
are baked in as literals, the common data-movement and unification
opcodes are inlined, and everything else calls the ordinary bound
handler.

Each block is generated and compiled once per image and machine
configuration.  The machine's objects the closure needs (register
cells, caches, counters, zone entries, bound handlers) are not in the
source: they are its parameters' defaults, and a :class:`_Recipe`
recorded at generation derives each default from any machine.  The
image's memo keeps the code object with its recipe, so every machine,
the first included, gets its closure from one bind step,
``types.FunctionType(code, globals, "_superop", defaults)``.

Correctness contract (the reason this is safe to switch on by
default): a fused block produces *bit-identical* simulated statistics
and solutions to running its instructions one step at a time, which in
turn is bit-identical to the ``fast_path=False`` seed interpreter.
Concretely:

- The run loop charges the block's summed static cycles, instruction
  count and inference count at block entry.  On any mid-run
  deviation — unification failure, builtin P redirect, ``running``
  cleared, or any exception, machine trap or not — the closure
  uncharges exactly the unexecuted suffix, whose sums are baked into
  it, so the totals are what the executed instructions charge one
  step at a time.
- Code-fetch timing still runs per instruction against the stateful
  code cache, with the hit path inlined (tag probe against baked
  constants) and hit counters batched and flushed on every exit path.
- ``m.p`` is maintained exactly as the seed loop does (set to the
  fall-through before each instruction executes), so trap reports,
  ``err.pc``, the recent-PC ring and ``resume()`` see identical state.
- Fused execution is only ever entered from :meth:`Machine._loop`,
  and never while a tracer is attached, the trap vector is armed or a
  fault injector is attached: those runs execute per instruction and,
  since they never call a fused slot, compile nothing.

Host-side only: no simulated observable depends on whether a block was
fused.  ``Features.superops=False`` ablates the layer independently of
``fast_path``.
"""

from __future__ import annotations

import builtins
from types import CodeType, FunctionType
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.opcodes import ArithOp, Op, TestOp
from repro.core.registers import X_REGISTERS
from repro.core.word import Type, Word, Zone
from repro.errors import ArithmeticError_

#: The globals of every superop: builtins only, so a closure reaches
#: machine objects through its defaults and nothing else.
_GLOBALS = {"__builtins__": builtins}

_OPS = tuple(Op)
_ARITH_OPS = tuple(ArithOp)
_PLAIN_OPERANDS = frozenset((int, type(None)))


class _Demote(Exception):
    """Raised by an inline emitter on an operand shape it cannot bake
    (non-integer register index, unlinked target...); the instruction
    is emitted through its bound handler instead."""


class _Recipe(NamedTuple):
    """How to derive a superop's parameter defaults on any machine, in
    parameter order: the fixed-environment names, the ``(k, field)``
    of step ``k`` of the block (its bound handler or its
    ``Instruction``), the zones whose ``ZoneChecker`` entries it
    reads, then the immutable constants themselves."""

    fixed: Tuple[str, ...]
    steps: Tuple[Tuple[int, int], ...]
    zones: Tuple[Zone, ...]
    consts: Tuple[object, ...]


class _Gen:
    """Accumulates generated source lines and the closure's parameters
    (passed as defaults, so they are LOAD_FAST in the compiled
    closure), recording for each parameter where its default comes
    from: one of the four kinds of :class:`_Recipe`."""

    #: step-tuple fields a parameter can take: (handler, ..., instr).
    HANDLER = 0
    INSTR = 4

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._fixed: Dict[str, None] = {"m": None}
        self._steps: Dict[Tuple[int, int], str] = {}
        self._zones: Dict[Zone, str] = {}
        self._consts: Dict[int, Tuple[str, object]] = {}
        self._counter = 0

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _name(self, hint: str) -> str:
        name = f"{hint}{self._counter}"
        self._counter += 1
        return name

    def use(self, name: str) -> str:
        """Bind one of the fixed environment objects into the closure."""
        self._fixed[name] = None
        return name

    def step(self, k: int, field: int, hint: str) -> str:
        """Bind field ``field`` of step ``k`` of the machine's block."""
        name = self._steps.get((k, field))
        if name is None:
            name = self._steps[(k, field)] = self._name(hint)
        return name

    def zone(self, zone: Zone) -> str:
        """Bind the machine's ``ZoneChecker`` entry for ``zone``."""
        name = self._zones.get(zone)
        if name is None:
            name = self._zones[zone] = self._name("Z")
        return name

    def const(self, obj, hint: str = "K") -> str:
        """Bind an immutable constant (a ``Word``, a switch table, the
        suffix sums) that every machine shares; identical objects share
        one name."""
        bound = self._consts.get(id(obj))
        if bound is None:
            bound = self._consts[id(obj)] = (self._name(hint), obj)
        return bound[0]

    def header(self) -> str:
        """The ``def`` line: parameters in :class:`_Recipe` order."""
        names = [*self._fixed, *self._steps.values(),
                 *self._zones.values(),
                 *(name for name, _ in self._consts.values())]
        return f"def _superop({', '.join(names)}):"

    def recipe(self) -> _Recipe:
        return _Recipe(tuple(self._fixed), tuple(self._steps),
                       tuple(self._zones),
                       tuple(obj for _, obj in self._consts.values()))


def _instr_key(instr):
    """An instruction's part of a block's memo key (see
    :class:`SuperopFuser`): its content when every operand is a plain
    ``int`` or ``None``, else the object itself."""
    if (type(instr.a) in _PLAIN_OPERANDS
            and type(instr.b) in _PLAIN_OPERANDS
            and type(instr.c) in _PLAIN_OPERANDS
            and type(instr.d) in _PLAIN_OPERANDS):
        return (instr.op, instr.a, instr.b, instr.c, instr.d,
                instr.infer, instr.size)
    return instr


def _reg(value) -> int:
    """Validate an X-register operand for inlining."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not 0 <= value < X_REGISTERS:
        raise _Demote()
    return value


def _intop(value) -> int:
    """Validate an integer operand (address, y-slot, count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise _Demote()
    return value


def _wordop(value) -> Word:
    """Validate a constant-Word operand whose tag/value compare can be
    baked as literals."""
    if not isinstance(value, Word):
        raise _Demote()
    if isinstance(value.value, bool) \
            or not isinstance(value.value, (int, float)):
        raise _Demote()
    return value


class SuperopFuser:
    """Per-machine superinstruction compiler.

    Captures the machine objects that are stable across
    ``reset_for_reuse`` (register file cells, code-cache tag list and
    stats — see the stability notes on
    :meth:`Machine.reset_for_reuse`); per-run state (``stats``, the
    fused memory closures and code fetch, the recent-PC ring index) is
    fetched inside each closure call.  One fuser lives as long as its
    predecoded table, since a block may first run several warm reuses
    after the translation.

    ``code_memo`` maps a block's key to its compiled ``_superop``
    code object and the :class:`_Recipe` of its defaults.
    :meth:`LinkedImage.install` hands every machine it loads the same
    memo, so only the first machine over an image generates and
    compiles a block; every machine binds its own objects through the
    recipe and runs no ``exec``.  The key holds everything the
    generated source depends on:

    - the block's address;
    - the machine configuration the emitters bake in (``_config``:
      code- and data-cache geometry, the zones that have entries, the
      static cost table and the ``CostModel`` fields the emitters read,
      the MWAC and shallow-backtracking switches with the MWAC-off
      penalties, and the nil word), since several configurations share
      one image;
    - each instruction of the block: its content when every operand is
      a plain ``int`` or ``None`` (the bootstrap stub's fresh
      ``CALL``/``HALT`` per machine), otherwise the object itself.  An
      image's instructions are shared by every machine it is installed
      into, and ``patch_code`` brings a new object, which misses.
      ``Word`` operands are never keyed by value: ``Word.__eq__``
      equates ``0.0`` and ``-0.0``, which bake as different literals,
      and a NaN would never hit.
    """

    #: Total superop ``compile()`` calls in this process; tests snapshot
    #: it to prove a machine over an already-fused image compiles
    #: nothing (mirrors ``PredecodedCode.translations_performed``).
    compiles_performed = 0

    def __init__(self, machine,
                 code_memo: Optional[
                     Dict[tuple, Tuple[CodeType, _Recipe]]] = None
                 ) -> None:
        # Machine is imported lazily: machine.py imports this module at
        # top level for _ensure_predecoded.
        from repro.core.machine import (CP_ALT, ENV_CE, ENV_CP, ENV_Y0,
                                        _RECENT_MASK)
        from repro.core.registers import SHADOW_ALT, SHADOW_H, SHADOW_TR
        self.machine = machine
        self.code_memo = {} if code_memo is None else code_memo
        self._env_y0 = ENV_Y0
        self._env_ce = ENV_CE
        self._env_cp = ENV_CP
        self._cp_alt = CP_ALT
        self._shadow_slots = (SHADOW_ALT, SHADOW_H, SHADOW_TR)
        self._ring_mask = _RECENT_MASK
        memory = machine.memory
        tags, self._index_mask, self._tag_shift = memory.code_probe_state()
        data_cache = memory.data_cache
        self._sectioned = data_cache.sectioned
        self._section_words = data_cache.section_words
        self._d_plain_mask = len(data_cache.tags) - 1
        self._zone_entries = memory.zones.entries
        self._costs = machine.costs
        features = machine.features
        self._mwac = features.mwac
        self._unify_penalty = features.mwac_off_unify_penalty
        self._switch_penalty = features.mwac_off_switch_penalty
        self._shallow = features.shallow_backtracking
        self._nil_word = nil = machine.symbols.atom_word("[]")
        costs = machine.costs
        self._config = (
            self._index_mask, self._tag_shift,
            self._sectioned, self._section_words, self._d_plain_mask,
            tuple(self._zone_entries),
            tuple(map(costs.base.get, _OPS)), costs.dispatch_overhead,
            costs.test_dispatch, costs.branch_taken_extra,
            costs.arith_dispatch,
            tuple(map(costs.arith_int.get, _ARITH_OPS)),
            tuple(map(costs.arith_float.get, _ARITH_OPS)),
            self._mwac, self._unify_penalty, self._switch_penalty,
            self._shallow, nil.tag, nil.value)
        from repro.core import word as _word
        self._fixed_env: Dict[str, object] = {
            "m": machine,
            "cells": machine.regs.cells,
            "MEM": memory,
            "tags": tags,
            "cs": memory.code_cache.stats,
            "ZN": memory.zones,
            "dwords": memory.store.words,
            "DSIZE": memory.store.size,
            "dtags": data_cache.tags,
            "ddirty": data_cache.dirty,
            "ds": data_cache.stats,
            "AER": ArithmeticError_,
            "DPT": Type.DATA_PTR,
            "INT": Type.INT,
            "FLOAT": Type.FLOAT,
            "MKI": _word.make_int,
            "MKF": _word.make_float,
            "WI": _word.wrap_int32,
            "SP": _word.to_single_precision,
            "REF": Type.REF,
            "NIL": Type.NIL,
            "LIST": Type.LIST,
            "STRUCT": Type.STRUCT,
            "GLOBAL": Zone.GLOBAL,
            "LOCAL": Zone.LOCAL,
            "CONTROL": Zone.CONTROL,
            "TRAIL": Zone.TRAIL,
            "UNB": _word.make_unbound,
            "MKL": _word.make_list,
            "MKS": _word.make_struct,
            "MKD": _word.make_data_ptr,
            "MKC": _word.make_code_ptr,
        }
        self._emitters: Dict[Op, Callable] = {
            Op.CALL: self._e_call,
            Op.EXECUTE: self._e_execute,
            Op.PROCEED: self._e_proceed,
            Op.SWITCH_ON_TERM: self._e_switch_on_term,
            Op.SWITCH_ON_CONSTANT: self._e_switch_on_constant,
            Op.SWITCH_ON_STRUCTURE: self._e_switch_on_structure,
            Op.TRY: self._e_try,
            Op.TRUST: self._e_trust,
            Op.TRY_ME_ELSE: self._e_try_me_else,
            Op.RETRY_ME_ELSE: self._e_retry_me_else,
            Op.TRUST_ME: self._e_trust_me,
            Op.PUT_UNSAFE_VALUE: self._e_put_unsafe_value,
            Op.TEST: self._e_test,
            Op.ARITH: self._e_arith,
            Op.GEN_UNIFY: self._e_gen_unify,
            Op.NECK: self._e_neck,
            Op.NECK_CUT: self._e_neck_cut,
            Op.CUT: self._e_cut,
            Op.ALLOCATE: self._e_allocate,
            Op.DEALLOCATE: self._e_deallocate,
            Op.MOVE2: self._e_move2,
            Op.GET_X_VARIABLE: self._e_get_x_variable,
            Op.GET_Y_VARIABLE: self._e_get_y_variable,
            Op.GET_X_VALUE: self._e_get_x_value,
            Op.GET_CONSTANT: self._e_get_constant,
            Op.GET_NIL: self._e_get_nil,
            Op.GET_LIST: self._e_get_list,
            Op.GET_STRUCTURE: self._e_get_structure,
            Op.PUT_Y_VARIABLE: self._e_put_y_variable,
            Op.PUT_X_VALUE: self._e_put_x_value,
            Op.PUT_Y_VALUE: self._e_put_y_value,
            Op.PUT_CONSTANT: self._e_put_constant,
            Op.PUT_LIST: self._e_put_list,
            Op.PUT_STRUCTURE: self._e_put_structure,
            Op.UNIFY_X_VARIABLE: self._e_unify_x_variable,
            Op.UNIFY_X_VALUE: self._e_unify_x_value,
            Op.UNIFY_X_LOCAL_VALUE: self._e_unify_x_local_value,
            Op.UNIFY_Y_LOCAL_VALUE: self._e_unify_y_local_value,
            Op.UNIFY_CONSTANT: self._e_unify_constant,
            Op.UNIFY_NIL: self._e_unify_nil,
        }

    def _data_index(self, zone: Zone, var: str) -> Tuple[str, int]:
        """(index-expression, tag-shift) of the data-cache line for an
        address held in ``var``; the zone's section base is baked."""
        if self._sectioned:
            words = self._section_words
            base = (int(zone) & 7) * words
            shift = words.bit_length() - 1
            return f"{base} + ({var} & {words - 1})", shift
        mask = self._d_plain_mask
        return f"{var} & {mask}", (mask + 1).bit_length() - 1

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def fusable(self, steps: Tuple) -> bool:
        """Whether the block ``steps`` gets a closure: every block but a
        lone instruction without an inline emitter, whose call-tier
        closure would save nothing over the run loop's own step."""
        return len(steps) > 1 or steps[0][4].op in self._emitters

    def on_entry(self, table) -> Callable[[], None]:
        """The one callable :func:`~repro.core.predecode.predecode` puts
        in the fused slot of every fusable entry of ``table``.

        It relies on :meth:`Machine._loop` calling a fused slot while
        ``P`` is still at the block: it fuses the block at
        ``machine.p``, stores the closure in that entry (the loop calls
        the closure from then on) and runs it.  The loop has already
        charged the entry's block sums, which the closure settles as
        always."""
        machine = self.machine
        entries = table.entries

        def fuse_on_entry() -> None:
            address = machine.p
            steps, cycles, instrs, infers, _ = entries[address]
            closure = self.fuse(address, steps)
            entries[address] = ((), cycles, instrs, infers, closure)
            table.fused_count += 1
            closure()
        return fuse_on_entry

    def fuse(self, address: int, steps: Tuple) -> Callable[[], None]:
        """The closure of the block at ``address``: its code from the
        image's memo (generated and compiled on a miss), bound to this
        machine's objects."""
        key = (address, self._config, tuple([_instr_key(step[4])
                                             for step in steps]))
        memoized = self.code_memo.get(key)
        if memoized is None:
            source, recipe = self._generate(address, steps)
            module = compile(source, f"<superop:{address}>", "exec")
            code = next(const for const in module.co_consts
                        if isinstance(const, CodeType))
            memoized = self.code_memo[key] = (code, recipe)
            SuperopFuser.compiles_performed += 1
        code, recipe = memoized
        fixed = self._fixed_env
        zones = self._zone_entries
        defaults = [fixed[name] for name in recipe.fixed]
        defaults += [steps[k][field] for k, field in recipe.steps]
        defaults += [zones[zone] for zone in recipe.zones]
        defaults += recipe.consts
        return FunctionType(code, _GLOBALS, "_superop", tuple(defaults))

    # ------------------------------------------------------------------
    # source generation
    # ------------------------------------------------------------------

    def _generate(self, address: int,
                  steps: Tuple) -> Tuple[str, _Recipe]:
        count = len(steps)
        # Suffix sums: suf[u] = (cycles, instructions, inferences) of
        # instructions u..count-1 — the share of the block charge to
        # take back when instruction u-1 deviates.  suf[count] is
        # all-zero (deviation in the last instruction has nothing to
        # uncharge).
        suf = [(0, 0, 0)] * (count + 1)
        for k in range(count - 1, -1, -1):
            cost_after, instr_after, infer_after = suf[k + 1]
            suf[k] = (cost_after + steps[k][1], instr_after + 1,
                      infer_after + steps[k][2])
        gen = _Gen()
        for name in ("cells", "MEM", "tags", "cs"):
            gen.use(name)
        suf_name = gen.const(tuple(suf), "SUF")

        body: List[Tuple[int, str]] = []   # (indent, text) under `try:`
        uses: set = set()

        pc = address
        for k, step in enumerate(steps):
            instr = step[4]
            fall_through = pc + instr.size
            is_last = k == count - 1
            chunk = _Chunk(self, gen, body, uses, k, pc, fall_through,
                           instr, is_last, suf, count)
            chunk.emit_preamble(step)
            emitter = self._emitters.get(instr.op)
            emitted = False
            if emitter is not None:
                mark = len(body)
                try:
                    emitter(chunk)
                    emitted = True
                except _Demote:
                    del body[mark:]
            if not emitted:
                chunk.emit_call_tier(step)
            pc = fall_through

        lines = gen.lines
        lines.append("    stats = m.stats")
        lines.append("    recent = m._recent_pcs")
        lines.append("    ri = m._recent_index")
        for local, attr in (("read", "_read"), ("write", "_write"),
                            ("deref", "deref"), ("bind", "bind"),
                            ("unify", "unify")):
            if local in uses:
                lines.append(f"    {local} = m.{attr}")
        if "ze" in uses:
            gen.use("ZN")
            lines.append("    ze = ZN.enabled")
        lines.append("    timing = MEM.timing_enabled")
        lines.append("    h_ = 0")
        lines.append("    try:")
        for indent, text in body:
            gen.line(indent, text)
        lines.append("    except BaseException:")
        lines.append(f"        c_, i_, f_ = {suf_name}[u]")
        lines.append("        m.cycles -= c_")
        lines.append("        stats.instructions -= i_")
        lines.append("        stats.inferences -= f_")
        lines.append("        m._recent_index = ri + u")
        lines.append("        if h_:")
        lines.append("            cs.reads += h_")
        lines.append("            cs.read_hits += h_")
        lines.append("        raise")
        lines.append(f"    m._recent_index = ri + {count}")
        lines.append("    if h_:")
        lines.append("        cs.reads += h_")
        lines.append("        cs.read_hits += h_")

        return (gen.header() + "\n" + "\n".join(lines) + "\n",
                gen.recipe())

    # ------------------------------------------------------------------
    # per-opcode inline emitters.  Each receives a _Chunk positioned
    # after the per-instruction preamble (u/p/ring/code-fetch timing)
    # and emits statements observationally identical to the bound
    # handler's body, with operands baked as literals.  Raising _Demote
    # falls back to the handler call.
    # ------------------------------------------------------------------

    # -- control transfer (always block-terminal) ----------------------

    def _e_call(self, c: "_Chunk") -> None:
        target = _intop(c.instr.a)
        c.put(f"m.cp = {c.fall_through}")
        c.put("m.b0 = m.b")
        c.put(f"m.p = {target}")

    def _e_execute(self, c: "_Chunk") -> None:
        target = _intop(c.instr.a)
        c.put("m.b0 = m.b")
        c.put(f"m.p = {target}")

    def _e_proceed(self, c: "_Chunk") -> None:
        c.put("m.p = m.cp")

    # -- clause indexing (always block-terminal) -----------------------

    def _switch_targets(self, c: "_Chunk", pairs) -> None:
        for cond, target in pairs:
            c.put(cond)
            if target is None:
                c.put("    m.fail()")
            else:
                c.put(f"    m.p = {_intop(target)}")

    def _e_switch_on_term(self, c: "_Chunk") -> None:
        instr = c.instr
        c.switch_penalty()
        c.use("deref", "REF", "LIST", "STRUCT")
        c.put("w_ = cells[0]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("cells[0] = w_")
        c.put("t_ = w_.type")
        self._switch_targets(c, (("if t_ is REF:", instr.a),
                                 ("elif t_ is LIST:", instr.c),
                                 ("elif t_ is STRUCT:", instr.d),
                                 ("else:", instr.b)))

    def _switch_lookup_tail(self, c: "_Chunk", table_name: str,
                            key: str, default) -> None:
        if default is not None:
            default = _intop(default)
        c.put(f"t_ = {table_name}.get({key}, {default!r})")
        c.put("if t_ is None:")
        c.put("    m.fail()")
        c.put("else:")
        c.put("    m.p = t_")

    def _e_switch_on_constant(self, c: "_Chunk") -> None:
        instr = c.instr
        if not isinstance(instr.a, dict):
            raise _Demote()
        c.switch_penalty()
        c.use("deref", "REF")
        table_name = c.gen.const(instr.a, "D")
        c.put("w_ = cells[0]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        self._switch_lookup_tail(c, table_name, "(w_.tag, w_.value)",
                                 instr.b)

    def _e_switch_on_structure(self, c: "_Chunk") -> None:
        instr = c.instr
        if not isinstance(instr.a, dict):
            raise _Demote()
        c.switch_penalty()
        c.use("read", "deref", "REF")
        table_name = c.gen.const(instr.a, "D")
        c.put("w_ = cells[0]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("y_ = read(w_.value, w_.zone)")
        self._switch_lookup_tail(c, table_name, "int(y_.value)", instr.b)

    # -- choice-point management ---------------------------------------

    def _enter_alternatives(self, c: "_Chunk", alt: int, arity) -> None:
        """Inline Machine._enter_with_alternatives (try / try_me_else):
        the shadow-register save of section 3.1.5, or a materialised
        choice point with shallow backtracking ablated."""
        if not self._shallow:
            c.put(f"m._create_choice_point({alt}, {_intop(arity)}, m.h, "
                  f"m.trail.top, m.local_top())")
            return
        from repro.core.word import make_code_ptr
        slot_alt, slot_h, slot_tr = self._shadow_slots
        alt_word = c.gen.const(make_code_ptr(alt), "W")
        c.use("GLOBAL", "TRAIL")
        c.gen.use("MKD")
        c.put("m.shallow_flag = True")
        c.put("m.cp_flag = False")
        c.put("t_ = m.h")
        c.put("v_ = m.trail.top")
        c.put("s_ = m.shadow")
        c.put(f"s_.alt = {alt}")
        c.put("s_.h = t_")
        c.put("s_.tr = v_")
        c.put(f"cells[{slot_alt}] = {alt_word}")
        c.put(f"cells[{slot_h}] = MKD(t_, GLOBAL)")
        c.put(f"cells[{slot_tr}] = MKD(v_, TRAIL)")
        c.put("m.hb = t_")
        c.put("m.lb = m.local_top()")

    def _e_try(self, c: "_Chunk") -> None:
        # The handler reads self.p as the saved alternative; the
        # preamble has already set it to the fall-through.
        target = _intop(c.instr.a)
        self._enter_alternatives(c, c.fall_through, c.instr.b)
        c.put(f"m.p = {target}")

    def _e_try_me_else(self, c: "_Chunk") -> None:
        self._enter_alternatives(c, _intop(c.instr.a), c.instr.b)

    def _e_retry_me_else(self, c: "_Chunk") -> None:
        from repro.core.word import make_code_ptr
        alt = _intop(c.instr.a)
        slot_alt, slot_h, slot_tr = self._shadow_slots
        alt_word = c.gen.const(make_code_ptr(alt), "W")
        c.use("write", "CONTROL")
        if not self._shallow:
            c.put(f"write(m.b + {self._cp_alt}, {alt_word}, CONTROL)")
            return
        c.use("GLOBAL", "TRAIL")
        c.gen.use("MKD")
        c.put("if m.cp_flag:")
        c.put(f"    write(m.b + {self._cp_alt}, {alt_word}, CONTROL)")
        c.put("else:")
        c.put("    s_ = m.shadow")
        c.put(f"    s_.alt = {alt}")
        c.put(f"    cells[{slot_alt}] = {alt_word}")
        c.put(f"    cells[{slot_h}] = MKD(s_.h, GLOBAL)")
        c.put(f"    cells[{slot_tr}] = MKD(s_.tr, TRAIL)")
        c.put("m.shallow_flag = True")

    def _trust_body(self, c: "_Chunk") -> None:
        if not self._shallow:
            c.put("m._pop_choice_point()")
            return
        c.put("if m.cp_flag:")
        c.put("    m._pop_choice_point()")
        c.put("else:")
        c.put("    m._refresh_barriers()")
        c.put("m.shallow_flag = False")

    def _e_trust(self, c: "_Chunk") -> None:
        target = _intop(c.instr.a)
        self._trust_body(c)
        c.put(f"m.p = {target}")

    def _e_trust_me(self, c: "_Chunk") -> None:
        self._trust_body(c)

    # -- frames, cut, shallow backtracking -----------------------------

    def _e_neck(self, c: "_Chunk") -> None:
        if not self._shallow:
            c.put("pass")
            return
        arity = _intop(c.instr.a)
        c.put("if m.shallow_flag and not m.cp_flag:")
        c.put("    s_ = m.shadow")
        c.put(f"    m._create_choice_point(s_.alt, {arity}, s_.h, s_.tr, "
              f"m.lb)")
        c.put("    m.cp_flag = True")
        c.put("m.shallow_flag = False")

    def _e_neck_cut(self, c: "_Chunk") -> None:
        if self._shallow:
            c.put("if m.shallow_flag and not m.cp_flag:")
            c.put("    stats.choice_points_avoided += 1")
            c.put("    m.shallow_flag = False")
            c.put("    m._refresh_barriers()")
            c.put("else:")
            c.put("    m.shallow_flag = False")
            c.put("    if m.b != m.b0:")
            c.put("        m.b = m.b0")
            c.put("        m._refresh_barriers()")
        else:
            c.put("m.shallow_flag = False")
            c.put("if m.b != m.b0:")
            c.put("    m.b = m.b0")
            c.put("    m._refresh_barriers()")

    def _e_cut(self, c: "_Chunk") -> None:
        c.put("if m.b != m.b0:")
        c.put("    m.b = m.b0")
        c.put("    m._refresh_barriers()")

    def _e_allocate(self, c: "_Chunk") -> None:
        c.gen.use("MKD")
        c.gen.use("MKC")
        c.put("a_ = m.local_top()")
        c.write_zone(f"a_ + {self._env_ce}", "MKD(m.e, LOCAL)", "LOCAL")
        c.write_zone(f"a_ + {self._env_cp}", "MKC(m.cp)", "LOCAL")
        c.put("m.e = a_")

    def _e_deallocate(self, c: "_Chunk") -> None:
        c.put("a_ = m.e")
        c.read_zone("y_", f"a_ + {self._env_cp}", "LOCAL")
        c.put("m.cp = int(y_.value)")
        c.read_zone("y_", f"a_ + {self._env_ce}", "LOCAL")
        c.put("m.e = int(y_.value)")

    def _e_move2(self, c: "_Chunk") -> None:
        instr = c.instr
        src1, dst1 = _reg(instr.a), _reg(instr.b)
        if instr.c is None:
            c.put(f"cells[{dst1}] = cells[{src1}]")
            return
        src2, dst2 = _reg(instr.c), _reg(instr.d)
        c.put(f"t_ = cells[{src1}]")
        c.put(f"v_ = cells[{src2}]")
        c.put(f"cells[{dst1}] = t_")
        c.put(f"cells[{dst2}] = v_")

    # -- arithmetic and guard tests ------------------------------------

    def _numeric_inline(self, c: "_Chunk", reg: int, var: str) -> None:
        """Inline Machine._numeric_operand for X register ``reg`` into
        ``var``: deref, then raise the handler's exact arithmetic traps
        on non-numeric operands."""
        c.use("deref", "REF", "INT", "FLOAT")
        c.gen.use("AER")
        c.put(f"{var} = cells[{reg}]")
        c.put(f"if {var}.type is REF:")
        c.put(f"    {var} = deref({var})")
        c.put(f"t_ = {var}.type")
        c.put("if t_ is not INT and t_ is not FLOAT:")
        c.put("    if t_ is REF:")
        c.put('        raise AER("unbound variable in arithmetic")')
        c.put('    raise AER("non-numeric operand in arithmetic: "')
        c.put(f"              + m.symbols.describe_constant({var}))")

    def _e_test(self, c: "_Chunk") -> None:
        op = c.instr.a
        if not isinstance(op, int):
            raise _Demote()
        # Any op outside the five below compares not-equal, exactly as
        # the handler's else branch does.
        sym = {TestOp.LT: "<", TestOp.GT: ">", TestOp.LE: "<=",
               TestOp.GE: ">=", TestOp.EQ: "=="}.get(op, "!=")
        self._numeric_inline(c, _reg(c.instr.b), "w_")
        self._numeric_inline(c, _reg(c.instr.c), "y_")
        costs = self._costs
        if costs.test_dispatch:
            c.put(f"m.cycles += {costs.test_dispatch}")
        c.put(f"if not (w_.value {sym} y_.value):")
        if costs.branch_taken_extra:
            c.put(f"    m.cycles += {costs.branch_taken_extra}")
        c.put("    m.fail()")
        c.settle(1)

    def _e_arith(self, c: "_Chunk") -> None:
        instr = c.instr
        op = instr.a
        if not isinstance(op, int):
            raise _Demote()
        # Only the trap-free operators inline; DIV/MOD and friends keep
        # the handler's ZeroDivisionError translation.
        binary = {ArithOp.ADD: "w_.value + y_.value",
                  ArithOp.SUB: "w_.value - y_.value",
                  ArithOp.MUL: "w_.value * y_.value",
                  # '/' and mod trap on a zero divisor; the guard below
                  # replicates the handler's ZeroDivisionError
                  # translation after the cycle charge, where the
                  # handler's try block raises.  The shared expression
                  # works for '/' because the handler's int branch is
                  # int(lv / rv) (truncating float division, the
                  # Warren-era semantics) and the emitter's int branch
                  # wraps the expression in int() anyway.
                  ArithOp.DIV: "w_.value / y_.value",
                  ArithOp.IDIV: "w_.value // y_.value",
                  ArithOp.MOD: "w_.value % y_.value"}
        unary = {ArithOp.NEG: "-w_.value", ArithOp.ABS: "abs(w_.value)"}
        guarded = (ArithOp.DIV, ArithOp.IDIV, ArithOp.MOD)
        costs = self._costs
        try:
            icost = costs.arith_int[op] - 1 + costs.arith_dispatch
            fcost = costs.arith_float[op] - 1 + costs.arith_dispatch
        except (KeyError, TypeError):
            raise _Demote()
        dst = _reg(instr.d)
        if op in binary and instr.c is not None:
            expr = binary[op]
            self._numeric_inline(c, _reg(instr.b), "w_")
            self._numeric_inline(c, _reg(instr.c), "y_")
            float_test = "w_.type is FLOAT or y_.type is FLOAT"
        elif op in unary and instr.c is None:
            expr = unary[op]
            self._numeric_inline(c, _reg(instr.b), "w_")
            float_test = "w_.type is FLOAT"
        else:
            raise _Demote()
        # The handler computes integer floor division even for float
        # operands and converts afterwards; mirror that on the float
        # branch (int() of an infinite quotient must still overflow
        # exactly where the handler's would).
        fexpr = f"int({expr})" if op is ArithOp.IDIV else expr
        c.use("FLOAT")
        c.use_env("MKI", "WI", "MKF", "SP")
        if op in guarded:
            c.gen.use("AER")
        zero_guard = 'if y_.value == 0: raise AER("division by zero")'
        c.put(f"if {float_test}:")
        if fcost:
            c.put(f"    m.cycles += {fcost}")
        if op in guarded:
            c.put(f"    {zero_guard}")
        c.put(f"    cells[{dst}] = MKF(SP(float({fexpr})))")
        c.put("else:")
        if icost:
            c.put(f"    m.cycles += {icost}")
        if op in guarded:
            c.put(f"    {zero_guard}")
        c.put(f"    cells[{dst}] = MKI(WI(int({expr})))")

    def _e_gen_unify(self, c: "_Chunk") -> None:
        a, b = _reg(c.instr.a), _reg(c.instr.b)
        c.use("unify")
        c.put(f"if not unify(cells[{a}], cells[{b}]):")
        c.put("    m.fail()")
        c.settle(1)

    # -- get instructions (head unification) ---------------------------

    def _e_get_x_variable(self, c: "_Chunk") -> None:
        c.put(f"cells[{_reg(c.instr.a)}] = cells[{_reg(c.instr.b)}]")

    def _e_get_y_variable(self, c: "_Chunk") -> None:
        slot = self._env_y0 + _intop(c.instr.a)
        c.write_zone(f"m.e + {slot}", f"cells[{_reg(c.instr.b)}]",
                     "LOCAL")

    def _e_get_x_value(self, c: "_Chunk") -> None:
        c.penalty()
        c.use("unify")
        c.put(f"if not unify(cells[{_reg(c.instr.a)}], "
              f"cells[{_reg(c.instr.b)}]):")
        c.put("    m.fail()")
        c.settle(1)

    def _e_get_constant(self, c: "_Chunk") -> None:
        const = _wordop(c.instr.a)
        reg = _reg(c.instr.b)
        c.penalty()
        c.use("deref", "bind", "REF")
        const_name = c.gen.const(const, "W")
        c.put(f"w_ = cells[{reg}]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("if w_.type is REF:")
        c.put(f"    bind(w_.value, w_.zone, {const_name})")
        c.put(f"elif w_.tag != {const.tag} or w_.value != {const.value!r}:")
        c.put("    m.fail()")
        c.settle(1)

    def _e_get_nil(self, c: "_Chunk") -> None:
        reg = _reg(c.instr.a)
        c.penalty()
        c.use("deref", "bind", "REF", "NIL")
        nil_name = c.gen.const(self._nil_word, "W")
        c.put(f"w_ = cells[{reg}]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("if w_.type is REF:")
        c.put(f"    bind(w_.value, w_.zone, {nil_name})")
        c.put("elif w_.type is not NIL:")
        c.put("    m.fail()")
        c.settle(1)

    def _e_get_list(self, c: "_Chunk") -> None:
        reg = _reg(c.instr.a)
        c.penalty()
        c.use("deref", "bind", "REF", "LIST")
        c.gen.use("MKL")
        c.put(f"w_ = cells[{reg}]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("t_ = w_.type")
        c.put("if t_ is LIST:")
        c.put("    m.s = w_.value")
        c.put("    m.mode_write = False")
        c.put("elif t_ is REF:")
        c.put("    bind(w_.value, w_.zone, MKL(m.h))")
        c.put("    m.mode_write = True")
        c.put("else:")
        c.put("    m.fail()")
        c.settle(1)

    def _e_get_structure(self, c: "_Chunk") -> None:
        findex = _intop(c.instr.a)
        reg = _reg(c.instr.b)
        c.penalty()
        c.use("read", "write", "deref", "bind", "REF", "STRUCT", "GLOBAL")
        c.gen.use("MKS")
        from repro.core.word import make_functor
        functor_name = c.gen.const(make_functor(findex), "W")
        c.put(f"w_ = cells[{reg}]")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("t_ = w_.type")
        c.put("if t_ is STRUCT:")
        c.put("    y_ = read(w_.value, w_.zone)")
        c.put(f"    if int(y_.value) != {findex}:")
        c.put("        m.fail()")
        c.settle(2)
        c.put("    m.s = w_.value + 1")
        c.put("    m.mode_write = False")
        c.put("elif t_ is REF:")
        c.put("    bind(w_.value, w_.zone, MKS(m.h))")
        c.put("    a_ = m.h")
        c.write_zone("a_", functor_name, "GLOBAL", indent=1)
        c.put("    m.h = a_ + 1")
        c.put("    m.mode_write = True")
        c.put("else:")
        c.put("    m.fail()")
        c.settle(1)

    # -- put instructions (argument loading) ---------------------------

    def _e_put_y_variable(self, c: "_Chunk") -> None:
        slot = self._env_y0 + _intop(c.instr.a)
        reg = _reg(c.instr.b)
        c.use("LOCAL")
        c.gen.use("UNB")
        c.put(f"a_ = m.e + {slot}")
        c.put("v_ = UNB(a_, LOCAL)")
        c.write_zone("a_", "v_", "LOCAL")
        c.put(f"cells[{reg}] = v_")

    def _e_put_x_value(self, c: "_Chunk") -> None:
        c.put(f"cells[{_reg(c.instr.b)}] = cells[{_reg(c.instr.a)}]")

    def _e_put_y_value(self, c: "_Chunk") -> None:
        slot = self._env_y0 + _intop(c.instr.a)
        c.read_zone("y_", f"m.e + {slot}", "LOCAL")
        c.put(f"cells[{_reg(c.instr.b)}] = y_")

    def _e_put_unsafe_value(self, c: "_Chunk") -> None:
        slot = self._env_y0 + _intop(c.instr.a)
        reg = _reg(c.instr.b)
        c.use("deref", "bind", "REF", "LOCAL")
        c.read_zone("w_", f"m.e + {slot}", "LOCAL")
        c.put("if w_.type is REF:")
        c.put("    w_ = deref(w_)")
        c.put("if w_.type is REF and w_.zone is LOCAL "
              "and w_.value >= m.e:")
        c.new_heap_var("v_", indent=1)
        c.put("    bind(w_.value, w_.zone, v_)")
        c.put("    w_ = v_")
        c.put(f"cells[{reg}] = w_")

    def _e_put_constant(self, c: "_Chunk") -> None:
        const = c.instr.a
        if not isinstance(const, Word):
            raise _Demote()
        name = c.gen.const(const, "W")
        c.put(f"cells[{_reg(c.instr.b)}] = {name}")

    def _e_put_list(self, c: "_Chunk") -> None:
        c.gen.use("MKL")
        c.put(f"cells[{_reg(c.instr.a)}] = MKL(m.h)")
        c.put("m.mode_write = True")

    def _e_put_structure(self, c: "_Chunk") -> None:
        findex = _intop(c.instr.a)
        reg = _reg(c.instr.b)
        c.use("GLOBAL")
        c.gen.use("MKS")
        from repro.core.word import make_functor
        functor_name = c.gen.const(make_functor(findex), "W")
        c.put("a_ = m.h")
        c.write_zone("a_", functor_name, "GLOBAL")
        c.put("m.h = a_ + 1")
        c.put(f"cells[{reg}] = MKS(a_)")
        c.put("m.mode_write = True")

    # -- unify instructions (structure arguments) ----------------------

    def _e_unify_x_variable(self, c: "_Chunk") -> None:
        reg = _reg(c.instr.a)
        c.use("GLOBAL")
        c.put("if m.mode_write:")
        c.new_heap_var("v_", indent=1)
        c.put(f"    cells[{reg}] = v_")
        c.put("else:")
        c.read_zone("v_", "m.s", "GLOBAL", indent=1)
        c.put(f"    cells[{reg}] = v_")
        c.put("    m.s += 1")

    def _e_unify_x_value(self, c: "_Chunk") -> None:
        reg = _reg(c.instr.a)
        c.penalty()
        c.use("unify", "GLOBAL")
        c.put("if m.mode_write:")
        c.put("    a_ = m.h")
        c.write_zone("a_", f"cells[{reg}]", "GLOBAL", indent=1)
        c.put("    m.h = a_ + 1")
        c.put("else:")
        c.read_zone("v_", "m.s", "GLOBAL", indent=1)
        c.put(f"    if not unify(cells[{reg}], v_):")
        c.put("        m.fail()")
        c.settle(2)
        c.put("    m.s += 1")

    def _e_unify_x_local_value(self, c: "_Chunk") -> None:
        reg = _reg(c.instr.a)
        c.penalty()
        c.use("deref", "bind", "unify", "REF", "LOCAL", "GLOBAL")
        c.gen.use("UNB")
        c.put("if m.mode_write:")
        c.put(f"    w_ = cells[{reg}]")
        c.put("    if w_.type is REF:")
        c.put("        w_ = deref(w_)")
        c.put("    if w_.type is REF and w_.zone is LOCAL:")
        c.new_heap_var("v_", indent=2)
        c.put("        bind(w_.value, w_.zone, v_)")
        c.put(f"        cells[{reg}] = v_")
        c.put("    else:")
        c.put("        a_ = m.h")
        c.write_zone("a_", "w_", "GLOBAL", indent=2)
        c.put("        m.h = a_ + 1")
        c.put(f"        cells[{reg}] = w_")
        c.put("else:")
        # Read mode delegates to unify_x_value in the handler, which
        # charges its own MWAC-off penalty again; keep that faithfully.
        c.penalty(indent=1)
        c.read_zone("v_", "m.s", "GLOBAL", indent=1)
        c.put(f"    if not unify(cells[{reg}], v_):")
        c.put("        m.fail()")
        c.settle(2)
        c.put("    m.s += 1")

    def _e_unify_y_local_value(self, c: "_Chunk") -> None:
        slot = self._env_y0 + _intop(c.instr.a)
        c.penalty()
        c.use("deref", "bind", "unify", "REF", "LOCAL", "GLOBAL")
        c.gen.use("UNB")
        c.put("if m.mode_write:")
        c.read_zone("w_", f"m.e + {slot}", "LOCAL", indent=1)
        c.put("    if w_.type is REF:")
        c.put("        w_ = deref(w_)")
        c.put("    if w_.type is REF and w_.zone is LOCAL:")
        c.new_heap_var("v_", indent=2)
        c.put("        bind(w_.value, w_.zone, v_)")
        c.put("    else:")
        c.put("        a_ = m.h")
        c.write_zone("a_", "w_", "GLOBAL", indent=2)
        c.put("        m.h = a_ + 1")
        c.put("else:")
        c.penalty(indent=1)
        c.read_zone("y_", f"m.e + {slot}", "LOCAL", indent=1)
        c.read_zone("v_", "m.s", "GLOBAL", indent=1)
        c.put("    if not unify(y_, v_):")
        c.put("        m.fail()")
        c.settle(2)
        c.put("    m.s += 1")

    def _e_unify_constant(self, c: "_Chunk") -> None:
        const = _wordop(c.instr.a)
        c.penalty()
        self._unify_const_body(c, const)

    def _e_unify_nil(self, c: "_Chunk") -> None:
        # No MWAC penalty in the handler (unlike unify_constant).
        self._unify_const_body(c, self._nil_word)

    def _unify_const_body(self, c: "_Chunk", const: Word) -> None:
        c.use("deref", "bind", "REF", "GLOBAL")
        name = c.gen.const(const, "W")
        c.put("if m.mode_write:")
        c.put("    a_ = m.h")
        c.write_zone("a_", name, "GLOBAL", indent=1)
        c.put("    m.h = a_ + 1")
        c.put("else:")
        c.read_zone("w_", "m.s", "GLOBAL", indent=1)
        c.put("    if w_.type is REF:")
        c.put("        w_ = deref(w_)")
        c.put("    m.s += 1")
        c.put("    if w_.type is REF:")
        c.put(f"        bind(w_.value, w_.zone, {name})")
        c.put(f"    elif w_.tag != {const.tag} "
              f"or w_.value != {const.value!r}:")
        c.put("        m.fail()")
        c.settle(2)


class _Chunk:
    """Emission context for one instruction inside a fused block."""

    def __init__(self, fuser: SuperopFuser, gen: _Gen, body: List,
                 uses: set, k: int, pc: int, fall_through: int,
                 instr, is_last: bool, suf: List, count: int) -> None:
        self.fuser = fuser
        self.gen = gen
        self.body = body
        self.uses = uses
        self.k = k
        self.pc = pc
        self.fall_through = fall_through
        self.instr = instr
        self.is_last = is_last
        self.suf = suf
        self.count = count

    #: Names that are closure locals fetched in the prologue
    #: (everything else in use() is a fixed env binding).
    _LOCALS = frozenset(("read", "write", "deref", "bind", "unify",
                         "ze"))

    def put(self, text: str, indent: int = 0) -> None:
        # Chunk statements live at indent 2 (function body 1, try 2).
        self.body.append((2 + indent, text))

    def use(self, *names: str) -> None:
        for name in names:
            if name in self._LOCALS:
                self.uses.add(name)
            else:
                self.gen.use(name)

    def use_env(self, *names: str) -> None:
        for name in names:
            self.gen.use(name)

    def read_zone(self, target: str, addr: str, zone_name: str,
                  indent: int = 0) -> None:
        """Emit a data read at a build-time-constant zone with the
        cache/zone *hit* path inlined (the layered path's counters
        committed only once every condition has passed); any edge —
        timing off, zone checking off, cache miss, uninitialised cell,
        zone bounds — falls back to the fused read closure, which owns
        those cases.  A written cell lies inside the data space, so the
        hit needs no address-range test.

        This and :meth:`write_zone` are the block-source form of the
        hit rule whose closure form is the constant-zone accessors of
        :meth:`Machine._fused_paths` (``specialise``): constants baked
        as literals here, captured per run there.  Why both stay is in
        that docstring."""
        fuser = self.fuser
        zone = getattr(Zone, zone_name)
        self.use("read", zone_name)
        if zone not in fuser._zone_entries:
            self.put(f"{target} = read({addr}, {zone_name})", indent)
            return
        self.use("ze")
        self.use_env("dwords", "dtags", "ds", "DPT")
        en = self.gen.zone(zone)
        jexpr, shift = fuser._data_index(zone, "ra_")
        self.put(f"ra_ = {addr}", indent)
        self.put(f"{target} = None", indent)
        self.put(f"if timing and ze and dtags[{jexpr}] == ra_ >> {shift}:",
                 indent)
        self.put("    rw_ = dwords.get(ra_)", indent)
        self.put(f"    if rw_ is not None "
                 f"and DPT in {en}.allowed_types "
                 f"and {en}.low_bound <= ra_ < {en}.high_bound:", indent)
        self.put(f"        {en}.checks += 1", indent)
        self.put("        ds.reads += 1", indent)
        self.put("        ds.read_hits += 1", indent)
        self.put("        stats.data_reads += 1", indent)
        self.put(f"        {target} = rw_", indent)
        self.put(f"if {target} is None:", indent)
        self.put(f"    {target} = read(ra_, {zone_name})", indent)

    def write_zone(self, addr: str, word: str, zone_name: str,
                   indent: int = 0) -> None:
        """Emit a data write at a build-time-constant zone with the
        hit path inlined; anything off the happy path (an armed undo
        log, timing/zone checking off, zone bounds, an address at or
        past the store's end, cache miss) falls back to the fused
        write closure."""
        fuser = self.fuser
        zone = getattr(Zone, zone_name)
        self.use("write", zone_name)
        if zone not in fuser._zone_entries:
            self.put(f"write({addr}, {word}, {zone_name})", indent)
            return
        self.use("ze")
        self.use_env("dwords", "DSIZE", "dtags", "ddirty", "ds", "DPT")
        en = self.gen.zone(zone)
        jexpr, shift = fuser._data_index(zone, "wa_")
        self.put(f"wa_ = {addr}", indent)
        self.put(f"ww_ = {word}", indent)
        self.put(f"wj_ = {jexpr}", indent)
        self.put(f"if (timing and ze and m._undo_log is None "
                 f"and dtags[wj_] == wa_ >> {shift} "
                 f"and DPT in {en}.allowed_types "
                 f"and not {en}.write_protected "
                 f"and {en}.low_bound <= wa_ < {en}.high_bound "
                 f"and 0 <= wa_ < DSIZE):", indent)
        self.put(f"    {en}.checks += 1", indent)
        self.put("    dwords[wa_] = ww_", indent)
        self.put("    ds.writes += 1", indent)
        self.put("    ds.write_hits += 1", indent)
        self.put("    ddirty[wj_] = True", indent)
        self.put("    stats.data_writes += 1", indent)
        self.put("else:", indent)
        self.put(f"    write(wa_, ww_, {zone_name})", indent)

    def penalty(self, indent: int = 0) -> None:
        """The MWAC-off unification penalty (no-op in the default
        all-units-on configuration, baked accordingly)."""
        if not self.fuser._mwac and self.fuser._unify_penalty:
            self.put(f"m.cycles += {self.fuser._unify_penalty}", indent)

    def switch_penalty(self, indent: int = 0) -> None:
        """The MWAC-off clause-indexing penalty (baked away in the
        default all-units-on configuration)."""
        if not self.fuser._mwac and self.fuser._switch_penalty:
            self.put(f"m.cycles += {self.fuser._switch_penalty}", indent)

    def new_heap_var(self, target: str, indent: int = 0) -> None:
        """Inline Machine.new_heap_var(); ``target`` receives the new
        unbound Word."""
        self.use("GLOBAL")
        self.gen.use("UNB")
        self.put("a_ = m.h", indent)
        self.put(f"{target} = UNB(a_, GLOBAL)", indent)
        self.write_zone("a_", target, "GLOBAL", indent)
        self.put("m.h = a_ + 1", indent)

    def settle(self, indent: int) -> None:
        """Emit the early-exit sequence after a deviation in this
        instruction: uncharge the unexecuted suffix (baked literals),
        publish the recent-PC ring index, flush batched code-cache
        hits, and return.  ``m.p`` is already the fall-through (set in
        the preamble) unless the deviation itself redirected it —
        exactly the seed loop's state."""
        cost, instrs, infers = self.suf[self.k + 1]
        if cost:
            self.put(f"m.cycles -= {cost}", indent)
        if instrs:
            self.put(f"stats.instructions -= {instrs}", indent)
        if infers:
            self.put(f"stats.inferences -= {infers}", indent)
        self.put(f"m._recent_index = ri + {self.k + 1}", indent)
        self.put("if h_:", indent)
        self.put("    cs.reads += h_", indent)
        self.put("    cs.read_hits += h_", indent)
        self.put("return", indent)

    def emit_preamble(self, step: Tuple) -> None:
        """Per-instruction bookkeeping identical to the run loop's:
        deviation cursor, P advance, recent-PC ring write, and the
        inlined code-cache probe (a miss charges the run's fused
        ``m._code_fetch`` and, on a fetch trap, takes back this
        instruction's own share — the function-level handler takes
        back the suffix)."""
        fuser = self.fuser
        k = self.k
        self.put(f"u = {k + 1}")
        self.put(f"m.p = {self.fall_through}")
        self.put(f"recent[(ri + {k}) & {fuser._ring_mask}] = {self.pc}")
        self.put("if timing:")
        self.put(f"    if tags[{self.pc & fuser._index_mask}] == "
                 f"{self.pc >> fuser._tag_shift}:")
        self.put("        h_ += 1")
        self.put("    else:")
        self.put("        try:")
        self.put(f"            m.cycles += m._code_fetch({self.pc})")
        self.put("        except BaseException:")
        self.put(f"            m.cycles -= {step[1]}")
        self.put("            stats.instructions -= 1")
        if step[2]:
            self.put(f"            stats.inferences -= {step[2]}")
        self.put("            raise")

    def emit_call_tier(self, step: Tuple) -> None:
        """Dispatch through the bound handler (opcodes without an
        inline emitter, or inline ones demoted on odd operands), with
        a deviation check on the way out."""
        handler_name = self.gen.step(self.k, _Gen.HANDLER, "H")
        instr_name = self.gen.step(self.k, _Gen.INSTR, "I")
        self.put(f"{handler_name}({instr_name})")
        if not self.is_last:
            self.put(f"if m.p != {self.fall_through} or not m.running:")
            self.settle(1)
