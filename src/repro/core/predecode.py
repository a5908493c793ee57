"""Predecoded threaded-dispatch code representation.

The seed interpreter re-decodes every instruction on every execution:
an ``Op`` dict dispatch, a cost-table call, attribute loads on the
:class:`~repro.core.instruction.Instruction` and a per-instruction
cycle-limit branch.  KCM itself pays decode cost once per code word —
the prefetch unit of section 3.1.3 — and the bytecode-interpreter
literature (Körner et al., PAPERS.md) shows predecoding plus
threaded-style dispatch is the dominant host-side win for this
interpreter shape.

This module translates the code zone once, at load time, into *bound
step tuples*::

    (handler, static_cost, infer, next_p, instr)

where ``handler`` is the machine's already-bound ``_op_*`` method,
``static_cost`` the precomputed ``CostModel.instruction_cost`` for the
opcode, ``infer`` 0/1 for the inference counter, and ``next_p`` the
fall-through address.  :attr:`PredecodedCode.singles` holds one step
per instruction start; the run loop (:meth:`Machine._loop`) executes
them one at a time in the seed order, so simulated cycle accounting is
bit-identical to the seed interpreter; only host work changes.

Steps are also grouped into *basic blocks*: for every code address the
table holds the straight-line run of steps from that address to the
next block-ending instruction, together with the block's summed static
cost / instruction count / inference count.  Blocks are the unit of
the superinstruction layer (:mod:`repro.core.superops`): when a fuser
is supplied, every fusable entry's ``fused`` slot starts out holding
the table's one :meth:`~repro.core.superops.SuperopFuser.on_entry`
callable, which fuses the block into a single closure the first time
the run loop enters it and stores the closure in the entry.  The run
loop charges a fused entry's sums once and calls the slot; the closure
"uncharges" its unexecuted suffix when a mid-block failure or trap
transfers control early.

The table is a pure cache over ``machine.code``: anything that writes
the code zone (the linker's :meth:`LinkedImage.install`, the
incremental loader, the bootstrap-stub allocator, ``patch_code``) must
call ``machine.invalidate_predecode()`` or bump the machine's code
generation.  Staleness is checked on both the code length *and* the
generation counter — a length check alone misses same-length in-place
code-word rewrites.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.opcodes import Op

#: Opcodes that always (or typically) end a straight-line block: every
#: unconditional control transfer, plus ESCAPE because builtins may
#: redirect P (call/1) or stop the machine ('$answer', halt/0) without
#: touching P.  Conditional transfers — unification failure, TEST,
#: arithmetic faults — need no entry here: a fused closure detects any
#: deviation of P (or of ``running``) after each step and settles the
#: accounts then.
BLOCK_ENDERS = frozenset({
    Op.CALL, Op.EXECUTE, Op.PROCEED, Op.JUMP, Op.FAIL, Op.HALT,
    Op.TRY, Op.RETRY, Op.TRUST,
    Op.SWITCH_ON_TERM, Op.SWITCH_ON_CONSTANT, Op.SWITCH_ON_STRUCTURE,
    Op.ESCAPE,
})

#: One predecoded instruction: (handler, static_cost, infer, next_p, instr).
Step = Tuple[Callable, int, int, int, object]

#: One table entry: (steps-from-here-to-block-end, static-cycle sum,
#: instruction count, inference count, fused-slot-or-None).  Until its
#: block first runs, a fusable entry keeps its steps and holds the
#: table's on-entry callable; a fused entry keeps its sums but carries
#: an empty steps tuple — the closure embodies the whole run.
BlockView = Tuple[Tuple[Step, ...], int, int, int, Optional[Callable]]


class PredecodedCode:
    """The per-address block table for one machine's code zone."""

    __slots__ = ("entries", "singles", "code_len", "generation",
                 "fused_count")

    #: Total code-zone translations performed in this process; serving
    #: regression tests snapshot it around ``reset_for_reuse`` cycles
    #: to prove warm engines do not re-translate (mirrors the linker's
    #: ``links_performed`` counter).
    translations_performed = 0

    def __init__(self, entries: List[Optional[BlockView]], code_len: int,
                 singles: List[Optional[Step]], generation: int = 0):
        self.entries = entries
        self.singles = singles
        self.code_len = code_len
        self.generation = generation
        #: closures installed so far by the on-entry callable.
        self.fused_count = 0

    def valid_for(self, code: list, generation: Optional[int] = None) -> bool:
        """Staleness check: code length (catches installs/extends that
        forgot the explicit ``invalidate_predecode`` call) plus, when
        given, the machine's code-zone generation counter (catches
        same-length in-place rewrites, e.g. ``patch_code``)."""
        if self.code_len != len(code):
            return False
        return generation is None or self.generation == generation


def predecode(code: list, dispatch: Dict[Op, Callable],
              static_costs: Dict[Op, int],
              fuser=None, generation: int = 0) -> PredecodedCode:
    """Translate ``code`` into a :class:`PredecodedCode` table.

    ``dispatch`` maps opcodes to bound handlers (the machine's dispatch
    table); ``static_costs`` maps opcodes to their fixed per-execution
    cycle charge (:meth:`CostModel.static_cost_table`).  ``fuser``, when
    given, is a :class:`repro.core.superops.SuperopFuser`: every block
    it deems fusable is fused on its first entry, and executes as one
    closure whenever the run loop applies fusion.  Nothing is generated
    or compiled here.  ``generation`` stamps the table with the
    machine's code-zone generation for the
    :meth:`PredecodedCode.valid_for` check.

    Entries are built right to left so each address's block view shares
    the step tuples (not the tuples-of-steps) of its suffix addresses,
    and its sums are the step's own plus the fall-through entry's.
    """
    n = len(code)
    steps: List[Optional[Step]] = [None] * n
    for address, instr in enumerate(code):
        if instr is None:
            continue  # continuation word of a multi-word instruction
        op = instr.op
        steps[address] = (dispatch[op], static_costs[op],
                          1 if instr.infer else 0,
                          address + instr.size, instr)

    entries: List[Optional[BlockView]] = [None] * n
    for address in range(n - 1, -1, -1):
        step = steps[address]
        if step is None:
            continue
        next_p = step[3]
        if (code[address].op in BLOCK_ENDERS
                or next_p >= n or entries[next_p] is None):
            entries[address] = ((step,), step[1], 1, step[2], None)
        else:
            tail_steps, tail_cost, tail_instr, tail_infer, _ = \
                entries[next_p]
            entries[address] = ((step,) + tail_steps,
                                step[1] + tail_cost,
                                1 + tail_instr,
                                step[2] + tail_infer,
                                None)

    table = PredecodedCode(entries, n, steps, generation)
    if fuser is not None:
        on_entry = fuser.on_entry(table)
        for address, entry in enumerate(entries):
            if entry is not None and fuser.fusable(entry[0]):
                entries[address] = entry[:4] + (on_entry,)
    PredecodedCode.translations_performed += 1
    return table
