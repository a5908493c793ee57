"""The cycle cost model.

KCM executes "most data manipulation instructions ... in one cycle"
(section 3.1.1) at an 80 ns cycle time (section 3).  The paper pins
down several other costs explicitly, which this table encodes:

- immediate jumps and calls take 2 cycles (prefetch pipeline break,
  section 3.1.3);
- conditional branches: 1 cycle not taken, 4 cycles taken;
- a minimal call/return sequence is 5 cycles ("two prefetch pipeline
  breaks", section 4.2) — call 2 + proceed 3 here;
- dereferencing follows reference chains at 1 reference per cycle
  (section 3.1.4);
- choice-point save/restore moves 1 register per cycle through the RAC
  (section 3.1.5);
- the trail's three address comparisons run in parallel with
  dereferencing, so conditional trailing costs only the push itself;
- fast indirect calls via memory take 4 cycles (section 4.2);
- one list-concatenation step is 15 cycles (section 4.3) — the unit
  test ``test_calibration.py::test_con1_step_cycles`` pins this model
  to that figure;
- floating multiplication/division is *faster* than integer
  multiplication/division (section 4.2), hence the FPU costs below.

Baseline machines (PLM, Quintus) reuse the same functional simulator
with different :class:`CostModel` parameters and feature switches; see
:mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.core.opcodes import ArithOp, Op

#: KCM cycle time in seconds (80 ns, section 3).
KCM_CYCLE_SECONDS = 80e-9


def _default_base_costs() -> Dict[Op, int]:
    costs = {op: 1 for op in Op}
    costs.update({
        Op.CALL: 2,            # immediate call: 2-cycle pipeline break
        Op.EXECUTE: 2,
        Op.JUMP: 2,
        Op.PROCEED: 3,         # return via register: call+proceed = 5
        Op.ALLOCATE: 2,        # push CE and CP frame header
        Op.DEALLOCATE: 2,
        Op.TRY_ME_ELSE: 2,     # save 3 shadow registers (2 moves/cycle)
        Op.RETRY_ME_ELSE: 2,
        Op.TRUST_ME: 1,
        Op.TRY: 3,             # shadow save + jump to the clause
        Op.RETRY: 3,
        Op.TRUST: 2,
        Op.NECK: 0,            # flag folded into decode (section 3.1.5);
                               #   CP creation cost added dynamically
        Op.NECK_CUT: 1,
        Op.CUT: 1,
        Op.CUT_Y: 2,
        Op.GET_LEVEL: 1,
        Op.SWITCH_ON_TERM: 2,  # MWAC 16-way dispatch
        Op.SWITCH_ON_CONSTANT: 3,
        Op.SWITCH_ON_STRUCTURE: 3,
        Op.GET_LIST: 2,        # type dispatch + bind-or-enter-read-mode
        Op.GET_STRUCTURE: 2,
        Op.GET_CONSTANT: 1,
        Op.ESCAPE: 3,          # escape-mechanism entry (cf. the PLM
                               #   suite's standard 3-cycle assumption)
        Op.GEN_UNIFY: 2,       # microcode entry; per-cell work dynamic
        Op.FAIL: 1,
        Op.HALT: 0,
    })
    return costs


@dataclass
class CostModel:
    """All timing parameters of one machine configuration."""

    #: Seconds per cycle (80 ns for KCM).
    cycle_seconds: float = KCM_CYCLE_SECONDS
    #: Per-opcode base cycles (hit-case memory access included).
    base: Dict[Op, int] = field(default_factory=_default_base_costs)
    #: Extra cycles per instruction, modelling interpretation overhead
    #: of software systems (0 on real hardware).
    dispatch_overhead: int = 0

    # Dynamic costs -----------------------------------------------------------
    deref_per_link: int = 1         # one reference per cycle (MWAC+cache)
    trail_push: int = 1             # push on the trail stack
    trail_check: int = 0            # parallel comparators: free; the
                                    #   ablation sets 2 (serial compares)
    bind: int = 1                   # store through the data cache
    heap_push: int = 1
    cp_create_base: int = 4         # frame header words via RAC loop
    cp_save_per_reg: int = 1        # 1 register/cycle (RAC)
    cp_restore_base: int = 4
    cp_restore_per_reg: int = 1
    fail_shallow: int = 3           # restore 3 shadow registers + branch
    fail_deep_branch: int = 3       # taken-branch part of a deep fail
    branch_taken_extra: int = 3     # conditional: 4 taken vs 1 not taken
    unify_per_cell: int = 2         # general unifier cost per visited cell
    indirect_call: int = 4          # "fast indirect calls via memory"
    escape_per_arg: int = 1
    write_builtin: int = 5          # write/1, nl/0 as unit clauses: one
                                    #   minimal call/return (section 4.2)
    trail_unwind_per_entry: int = 1

    # Arithmetic.  The TTL ALU has no hardware multiplier: integer
    # multiply/divide run as microcode shift-add/subtract loops over the
    # 32-bit value, which is exactly why section 4.2 can say "floating
    # arithmetic is significantly faster than integer arithmetic on
    # multiplications and divisions" — those go to the FPU.
    arith_int: Dict[ArithOp, int] = field(default_factory=lambda: {
        ArithOp.ADD: 1, ArithOp.SUB: 1, ArithOp.MUL: 30, ArithOp.DIV: 50,
        ArithOp.IDIV: 50, ArithOp.MOD: 50, ArithOp.NEG: 1, ArithOp.ABS: 1,
        ArithOp.MIN: 1, ArithOp.MAX: 1, ArithOp.AND: 1, ArithOp.OR: 1,
        ArithOp.XOR: 1, ArithOp.SHL: 1, ArithOp.SHR: 1,
    })
    arith_float: Dict[ArithOp, int] = field(default_factory=lambda: {
        ArithOp.ADD: 3, ArithOp.SUB: 3, ArithOp.MUL: 5, ArithOp.DIV: 9,
        ArithOp.IDIV: 9, ArithOp.MOD: 9, ArithOp.NEG: 1, ArithOp.ABS: 1,
        ArithOp.MIN: 3, ArithOp.MAX: 3, ArithOp.AND: 3, ArithOp.OR: 3,
        ArithOp.XOR: 3, ArithOp.SHL: 3, ArithOp.SHR: 3,
    })
    #: Extra cycles per ARITH operation when the type combination has to
    #: be resolved without the MWAC's multi-way branch (generic-
    #: arithmetic ablation and baseline machines); software systems also
    #: pay number boxing/unboxing here.
    arith_dispatch: int = 0
    #: Extra cycles per TEST (numeric comparison) for the same reason.
    test_dispatch: int = 0

    def instruction_cost(self, op: Op) -> int:
        """Base cycles for ``op`` including interpretation overhead."""
        return self.base[op] + self.dispatch_overhead

    def static_cost_table(self) -> Dict[Op, int]:
        """The full opcode -> :meth:`instruction_cost` map, precomputed.

        The predecoder (:mod:`repro.core.predecode`) bakes these into
        its step tuples so the hot loop never calls back into the cost
        model.  The table is a snapshot: mutating ``base`` or
        ``dispatch_overhead`` afterwards requires re-predecoding (the
        machine rebuilds its table per :meth:`Machine.run` entry only
        when the code zone changed, so reconfigure costs between
        machines, not mid-flight — exactly the hardware constraint).
        """
        overhead = self.dispatch_overhead
        return {op: cost + overhead for op, cost in self.base.items()}

    def scaled(self, **changes) -> "CostModel":
        """A copy with the given fields replaced (baseline construction)."""
        return replace(self, **changes)


def kcm_cost_model() -> CostModel:
    """The calibrated KCM model (80 ns, all special units enabled)."""
    return CostModel()


@dataclass
class Features:
    """Architectural feature switches.

    The KCM configuration has everything on.  Baselines and the
    ablation benchmarks (A1–A3 in DESIGN.md) switch features off
    individually to measure the "influence of each specialized unit"
    the paper's future-work section calls for.
    """

    #: Delayed choice-point creation + shadow registers (section 3.1.5).
    shallow_backtracking: bool = True
    #: Superinstruction fusion over the predecoded fast path
    #: (repro.core.superops): each straight-line block a run enters is
    #: fused into a single generated host function.  A host-side switch
    #: only — simulated statistics are bit-identical either way — kept
    #: here so the fusion layer can be ablated independently of
    #: ``fast_path``, like every other specialized-unit switch.
    superops: bool = True
    #: MWAC multi-way dispatch; off adds serial type-test cycles.
    mwac: bool = True
    #: Trail comparators in parallel with deref; off costs trail_check=2.
    parallel_trail: bool = True
    #: Zone-sectioned data cache; off = plain direct-mapped 8K.
    sectioned_cache: bool = True
    #: Zone check enabled (traps on bad addresses).
    zone_check: bool = True
    #: Extra cycles for switch instructions without the MWAC.
    mwac_off_switch_penalty: int = 4
    #: Extra cycles for unification instructions without the MWAC.
    mwac_off_unify_penalty: int = 1
    #: Serial trail-comparison cycles per binding when the parallel
    #: comparators are disabled (up to three compares, section 3.1.5).
    serial_trail_cycles: int = 2


def kcm_features() -> Features:
    """All KCM special units enabled."""
    return Features()
