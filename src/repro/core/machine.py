"""The KCM processor model.

Executes linked KCM code (see :mod:`repro.compiler`) over the simulated
memory system, with cycle accounting per :mod:`repro.core.costs` and
the architectural features of section 3 of the paper:

- WAM-derived instruction set over 64-bit tagged words,
- split-stack model: separate local (environment) and control (choice
  point) stacks (section 2.4), plus global stack (heap) and trail,
- MWAC-style type dispatch in unification instructions (section 3.1.4),
- **shallow backtracking** (section 3.1.5): entering a clause that has
  alternatives saves only three state registers (alternative address,
  H, TR) into shadow registers; the choice point is materialised at the
  clause *neck*, and a failure in the head or guard restores the shadow
  registers instead of a full choice-point reload,
- trail comparators running in parallel with dereferencing,
- zone-checked memory accesses through the logical data cache.

Everything dynamic is counted in :class:`repro.core.statistics.RunStats`.

Choice-point frame layout (CONTROL zone, grows upward)::

    B+0  arity          B+5  saved TR
    B+1  previous B     B+6  saved B0
    B+2  saved CP       B+7  saved LB (local barrier)
    B+3  saved E        B+8  alternative clause address
    B+4  saved H        B+9.. saved A1..An

making the typical frame about 10 words, as section 3.1.5 says.

Environment frame layout (LOCAL zone, grows upward)::

    E+0  CE (continuation environment)
    E+1  CP (continuation code address)
    E+2.. Y1..Yn

The live size of the topmost frame is not stored: as in the WAM, it is
read from the ``nperms`` field of the call instruction just before the
current return address — which is also how environment trimming works.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.costs import CostModel, Features, kcm_cost_model, kcm_features
from repro.core.instruction import Instruction
from repro.core.opcodes import ArithOp, Op, TestOp
from repro.core.registers import RegisterFile, ShadowState
from repro.core.statistics import RunStats
from repro.core.symbols import SymbolTable
from repro.core.tags import Type, Zone, tag_zone
from repro.core.trail import Trail
from repro.core.word import (
    Word, make_code_ptr, make_data_ptr, make_float, make_functor, make_int,
    make_list, make_struct, make_unbound, to_single_precision, wrap_int32,
)
from repro.core.predecode import PredecodedCode, predecode
from repro.core.superops import SuperopFuser
from repro.core.traps import (
    MachineCheckpoint, TrapLogRing, TrapReport, TrapVector,
)
from repro.errors import (
    ArithmeticError_, CycleLimitExceeded, ExistenceError, InstructionError,
    MachineError, MachineTrap,
)
from repro.memory.layout import initial_stack_pointer
from repro.memory.memory_system import MemorySystem

#: size of the recently-executed-addresses ring buffer kept by the run
#: loop (power of two; the index mask below depends on it).
RECENT_RING = 16
_RECENT_MASK = RECENT_RING - 1

#: consecutive recoveries of the same trap kind at the same PC before
#: the trap vector declares a recovery livelock and aborts.
MAX_TRAP_RETRIES = 8

# Choice-point frame field offsets.
CP_ARITY = 0
CP_PREV_B = 1
CP_SAVED_CP = 2
CP_SAVED_E = 3
CP_SAVED_H = 4
CP_SAVED_TR = 5
CP_SAVED_B0 = 6
CP_SAVED_LB = 7
CP_ALT = 8
CP_ARGS = 9

# Environment frame field offsets.
ENV_CE = 0
ENV_CP = 1
ENV_Y0 = 2


class Machine:
    """One KCM (or baseline-configured) processor instance."""

    def __init__(self,
                 symbols: Optional[SymbolTable] = None,
                 costs: Optional[CostModel] = None,
                 features: Optional[Features] = None,
                 memory: Optional[MemorySystem] = None,
                 stagger_stacks: bool = True,
                 max_cycles: int = 500_000_000,
                 fast_path: bool = True):
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.costs = costs if costs is not None else kcm_cost_model()
        self.features = features if features is not None else kcm_features()
        if memory is None:
            memory = MemorySystem(
                sectioned_cache=self.features.sectioned_cache,
                zone_check=self.features.zone_check)
        self.memory = memory
        self.stagger_stacks = stagger_stacks
        self.max_cycles = max_cycles
        #: run from the predecoded table with superops and the fused
        #: data and control paths (docs/PERF.md).  ``False`` is the
        #: ablation: the same loop decodes ``code`` per instruction and
        #: takes the layered methods, bit-identical in every simulated
        #: statistic.
        self.fast_path = fast_path

        # Code space: word-addressed list of Instruction (None for the
        # continuation words of multi-word instructions).
        self.code: List[Optional[Instruction]] = []
        #: (name, arity) -> code entry address, filled by the linker.
        self.predicates: Dict[tuple, int] = {}
        #: builtin id -> callable(machine, arity) -> bool.
        self.builtins: Dict[int, Callable[["Machine", int], bool]] = {}

        self.regs = RegisterFile()
        self.shadow = ShadowState()
        self.stats = RunStats()

        self._stack_base: Dict[Zone, int] = {}
        for zone in (Zone.GLOBAL, Zone.LOCAL, Zone.CONTROL, Zone.TRAIL):
            region = self.memory.layout[zone]
            self._stack_base[zone] = initial_stack_pointer(
                region, staggered=stagger_stacks)

        self.trail = Trail(self._stack_base[Zone.TRAIL],
                           self._trail_read, self._trail_write)

        # Answer collection (the '$answer' escape).
        self.solutions: List[dict] = []
        self.answer_names: List[str] = []
        self.collect_all = False
        #: session hook: with collect_all set, pause (running = False at
        #: the next instruction boundary, after the answer's fail/
        #: backtrack) each time '$answer' records a solution, instead of
        #: driving on to exhaustion.  resume() continues the search for
        #: the next solution bit-identically (docs/SESSIONS.md).
        self.stop_on_solution = False
        #: set by the '$answer' escape when stop_on_solution pauses the
        #: run; cleared on the next run/resume entry.  Distinguishes
        #: "paused with a fresh solution" from cycle-budget pauses.
        self.solution_paused = False

        # Output from write/1 and friends when real I/O is linked in.
        self.output: List[str] = []

        #: optional execution monitor (see repro.core.monitor).
        self.tracer = None

        #: trap-handler table (empty = every trap aborts, the seed
        #: behaviour; see repro.recovery for ready-made handlers).
        self.trap_vector = TrapVector()
        #: optional deterministic fault injector (repro.recovery.inject).
        self.injector = None
        #: TrapReports of delivered traps, recovered or fatal (a
        #: bounded ring: long-lived session engines keep the newest
        #: TRAP_LOG_RING reports plus a dropped-count).
        self.trap_log = TrapLogRing()

        self._dispatch = self._build_dispatch()
        #: predecoded block table (repro.core.predecode), built lazily
        #: per code image and dropped whenever the code zone changes.
        self._predecoded: Optional[PredecodedCode] = None
        #: compiled superop code shared with every machine over the
        #: same image (set by LinkedImage.install; None: no sharing).
        self._superop_code: Optional[dict] = None
        #: code-zone generation: bumped by every code writer (including
        #: same-length in-place rewrites via patch_code, which a code-
        #: length staleness check alone would miss).
        self._code_generation = 0
        self._stubs: Dict[int, int] = {}
        self._recent_pcs: List[int] = [-1] * RECENT_RING
        self._recent_index = 0
        self._entry_name: Optional[str] = None
        self._retry_pc = -1
        self._retry_kind = ""
        self._retry_count = 0
        #: per-instruction write-undo log, armed by _loop only while
        #: the trap vector is armed or an injector is attached (None ⇒
        #: _write does no extra work).
        self._undo_log: Optional[List[tuple]] = None
        self._reset_state()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def _reset_state(self) -> None:
        self.p = 0                  # program counter
        self.cp = 0                 # continuation code address
        self.e = 0                  # current environment
        self.b = 0                  # current choice point (0 = none)
        self.b0 = 0                 # cut barrier
        self.h = self._stack_base[Zone.GLOBAL]
        self.hb = self.h            # heap barrier
        self.s = 0                  # structure pointer
        self.lb = self._stack_base[Zone.LOCAL]   # local barrier
        self.mode_write = False
        self.shallow_flag = False
        self.cp_flag = False
        self.trail.top = self.trail.base
        self.cycles = 0
        self.running = False
        self.halted = False
        self.exhausted = False
        self.solution_paused = False
        self.trap_log = TrapLogRing()
        self._recent_pcs = [-1] * RECENT_RING
        self._recent_index = 0
        self._retry_pc = -1
        self._retry_kind = ""
        self._retry_count = 0
        self._undo_log = None

    def reset(self) -> None:
        """Full reset of machine state and statistics (keeps code)."""
        self._reset_state()
        self.stats = RunStats()
        self.solutions = []
        self.output = []
        self.trail.pushes = 0
        self.trail.checks = 0

    def reset_for_reuse(self) -> None:
        """:meth:`reset` hardened into a true engine-reuse path.

        ``reset`` clears run state and statistics but leaves behind
        everything else a run dirtied: warm cache lines, mapped pages,
        zone limits moved by growth handlers or the fault injector, the
        register file, an attached injector.  Any of those makes the
        next run's simulated statistics diverge from a fresh machine's.
        This restores the full power-on state while keeping the
        host-side assets that are expensive to rebuild and purely
        deterministic: the linked code image, the bootstrap stubs, the
        dispatch table and the predecoded block table (a pure function
        of the unchanged code zone).  The warm machine pool
        (:mod:`repro.serve`) relies on the resulting guarantee, pinned
        by ``tests/test_warm_reuse.py``: run-after-reuse is
        bit-identical to run-on-fresh, including under injected faults.

        Host-side instrumentation that the caller attached explicitly
        (``tracer``, ``trap_vector`` handlers) is left in place; the
        injector is detached because its schedule is consumed by a run
        and its attach side effects (working-set premap, demand-paging
        switch) are undone here — re-attach a rewound injector for a
        faulted replay.
        """
        self.memory.reset_for_reuse()
        self.regs.clear()
        self.shadow.set(0, 0, 0)
        self.injector = None
        self.reset()

    # ------------------------------------------------------------------
    # pickling (spawn-safe worker shipping, see repro.serve)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the unpicklable/derived host-side state.

        The fused memory closures (installed as instance attributes
        ``_read``/``_write``/``deref`` for the duration of one run),
        the dispatch table of bound methods and lambdas, the
        predecoded block table and the image's superop code memo are
        all excluded; every one is rebuilt deterministically — the
        dispatch table eagerly on unpickle, the closures on the next
        run, the predecode table lazily by :meth:`_ensure_predecoded`
        and its superops afresh as blocks are entered.
        """
        state = self.__dict__.copy()
        for derived in ("_read", "_write", "deref"):
            state.pop(derived, None)
        state["_dispatch"] = None
        state["_predecoded"] = None
        state["_superop_code"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._dispatch = self._build_dispatch()

    # ------------------------------------------------------------------
    # memory access helpers (all cycle-accounted)
    # ------------------------------------------------------------------

    # NOTE: under fast_path, _execute shadows _read/_write for the
    # duration of one run with the memory system's fused single-frame
    # closures (MemorySystem.fused_data_path); same observables.

    def _read(self, address: int, zone: Zone,
              word_type: Type = Type.DATA_PTR) -> Word:
        word, cycles = self.memory.data_read(address, zone, word_type)
        self.cycles += cycles - 1   # base cycle is in the instruction cost
        self.stats.data_reads += 1
        return word

    def _write(self, address: int, word: Word, zone: Zone,
               word_type: Type = Type.DATA_PTR) -> None:
        if self._undo_log is not None:
            # A trap mid-instruction must be able to undo writes that
            # succeeded functionally before the fault — including
            # *untrailed* young bindings the trail cannot rewind.
            self._undo_log.append((address, self.memory.store.peek(address)))
        cycles = self.memory.data_write(address, word, zone, word_type)
        self.cycles += cycles - 1
        self.stats.data_writes += 1

    def _trail_read(self, address: int, zone: Zone) -> Word:
        return self._read(address, zone)

    def _trail_write(self, address: int, word: Word, zone: Zone) -> None:
        self._write(address, word, zone)

    # ------------------------------------------------------------------
    # dereferencing, binding, trailing
    # ------------------------------------------------------------------

    def deref(self, word: Word) -> Word:
        """Follow the reference chain at one reference per cycle.

        Returns either a non-REF word or an unbound REF (a cell whose
        contents point to itself).
        """
        while word.type is Type.REF:
            address = word.value
            zone = word.zone
            if zone is None:
                zone = tag_zone(word.tag)   # raises, invalid encoding
            cell = self._read(address, zone, Type.REF)
            self.cycles += self.costs.deref_per_link
            self.stats.dereference_links += 1
            if cell.type is Type.REF and cell.value == address:
                return cell         # unbound variable
            word = cell
        return word

    def bind(self, address: int, zone: Zone, value: Word) -> None:
        """Bind the (unbound) cell at ``address`` to ``value``,
        trailing when the cell is older than the relevant barrier."""
        self.stats.trail_checks += 1
        if not self.features.parallel_trail:
            # The three address comparisons run serially before the
            # decision (the hardware does them alongside dereferencing
            # for free, section 3.1.5).
            self.cycles += max(self.costs.trail_check,
                               self.features.serial_trail_cycles)
        if self.trail.needs_trailing(address, zone, self.hb, self.lb):
            self.trail.push(address, zone)
            self.cycles += self.costs.trail_push
            self.stats.trail_pushes += 1
        self._write(address, value, zone)
        self.cycles += self.costs.bind - 1

    def _bind_or_compare(self, target: Word, value: Word) -> bool:
        """Unify a dereferenced ``target`` with a *constant* ``value``."""
        if target.type is Type.REF:
            self.bind(target.value, target.zone, value)
            return True
        return target.tag == value.tag and target.value == value.value

    # ------------------------------------------------------------------
    # heap construction
    # ------------------------------------------------------------------

    def heap_push(self, word: Word) -> int:
        """Append one word to the global stack; returns its address."""
        address = self.h
        self._write(address, word, Zone.GLOBAL)
        self.h = address + 1
        return address

    def new_heap_var(self) -> Word:
        """A fresh unbound variable on the global stack."""
        address = self.h
        self._write(address, make_unbound(address, Zone.GLOBAL), Zone.GLOBAL)
        self.h = address + 1
        return make_unbound(address, Zone.GLOBAL)

    # ------------------------------------------------------------------
    # general unification (the microcoded unifier behind the MWAC)
    # ------------------------------------------------------------------

    def unify(self, left: Word, right: Word) -> bool:
        """Full unification of two words; returns success.

        Iterative with an explicit work list (the hardware uses a push
        -down list in the system zone).  Cost: ``unify_per_cell`` per
        visited pair beyond the dereferences and binds it performs.
        """
        self.stats.general_unifications += 1
        worklist = [(left, right)]
        while worklist:
            a, b = worklist.pop()
            a = self.deref(a)
            b = self.deref(b)
            self.cycles += self.costs.unify_per_cell
            if a.type is Type.REF and b.type is Type.REF:
                if a.value == b.value:
                    continue
                # Bind the younger to the older: locals bind to heap
                # cells; within one zone higher addresses are younger.
                if a.zone == b.zone:
                    young, old = (a, b) if a.value > b.value else (b, a)
                elif a.zone is Zone.LOCAL:
                    young, old = a, b
                else:
                    young, old = b, a
                self.bind(young.value, young.zone, old)
            elif a.type is Type.REF:
                self.bind(a.value, a.zone, b)
            elif b.type is Type.REF:
                self.bind(b.value, b.zone, a)
            elif a.type is Type.LIST and b.type is Type.LIST:
                ah, bh = a.value, b.value
                worklist.append((self._read(ah + 1, a.zone),
                                 self._read(bh + 1, b.zone)))
                worklist.append((self._read(ah, a.zone),
                                 self._read(bh, b.zone)))
            elif a.type is Type.STRUCT and b.type is Type.STRUCT:
                fa = self._read(a.value, a.zone)
                fb = self._read(b.value, b.zone)
                if fa.value != fb.value:
                    return False
                _, arity = self.symbols.functor_key(int(fa.value))
                for i in range(arity, 0, -1):
                    worklist.append((self._read(a.value + i, a.zone),
                                     self._read(b.value + i, b.zone)))
            elif a.type is Type.FLOAT and b.type is Type.FLOAT:
                if a.value != b.value:
                    return False
            else:
                if a.tag != b.tag or a.value != b.value:
                    return False
        return True

    def _fused_control_path(self):
        """Single-frame replacements for the hot control-path methods
        (``bind``, ``unify``, ``fail``, choice-point create/pop/
        refresh) used during fast-path runs, mirroring
        :meth:`MemorySystem.fused_data_path`.

        Both replicate the class methods above statement for statement
        — same counters, same cycle charges, same raise points — with
        the per-call attribute traffic (costs, stats, trail, symbol
        table) hoisted into the closure, and the trail check/push of
        :meth:`bind` inlined.  Built by :meth:`_execute` after the
        fused data accessors are installed so they capture those;
        uninstalled with them, so the ablation and inter-run accesses
        always take the class methods.
        """
        machine = self
        stats = self.stats
        trail = self.trail
        costs = self.costs
        read = self._read
        write = self._write
        deref = self.deref
        serial_penalty = 0 if self.features.parallel_trail else \
            max(costs.trail_check, self.features.serial_trail_cycles)
        trail_push_cost = costs.trail_push
        bind_extra = costs.bind - 1
        unify_per_cell = costs.unify_per_cell
        functor_key = self.symbols.functor_key
        mdp = make_data_ptr
        GLOBAL = Zone.GLOBAL
        LOCAL = Zone.LOCAL
        TRAIL = Zone.TRAIL
        REF = Type.REF
        LIST = Type.LIST
        STRUCT = Type.STRUCT
        FLOAT = Type.FLOAT

        def bind(address, zone, value):
            stats.trail_checks += 1
            if serial_penalty:
                machine.cycles += serial_penalty
            trail.checks += 1
            if (address < machine.hb if zone is GLOBAL
                    else address < machine.lb if zone is LOCAL else True):
                top = trail.top
                w = mdp(address, zone)
                # wr_trail's hit path expanded in place: one push per
                # trailed binding makes this the densest write site on
                # the fast path, worth saving the call frame.
                hit = False
                if (te_ok and machine._undo_log is None
                        and not te.write_protected):
                    if sectioned:
                        j = te_base | (top & 1023)
                        t = top >> 10
                    else:
                        j = top & 8191
                        t = top >> 13
                    if (dtags[j] == t
                            and te.low_bound <= top < te.high_bound
                            and 0 <= top < size):
                        te.checks += 1
                        dwords[top] = w
                        ds.writes += 1
                        ds.write_hits += 1
                        ddirty[j] = True
                        stats.data_writes += 1
                        hit = True
                if not hit:
                    write(top, w, TRAIL)
                trail.top = top + 1
                trail.pushes += 1
                machine.cycles += trail_push_cost
                stats.trail_pushes += 1
            if zone is GLOBAL:
                wr_global(address, value)
            elif zone is LOCAL:
                wr_local(address, value)
            else:
                write(address, value, zone)
            machine.cycles += bind_extra

        def unify(left, right):
            stats.general_unifications += 1
            worklist = [(left, right)]
            while worklist:
                a, b = worklist.pop()
                if a.type is REF:
                    a = deref(a)
                if b.type is REF:
                    b = deref(b)
                machine.cycles += unify_per_cell
                ta = a.type
                tb = b.type
                if ta is REF and tb is REF:
                    if a.value == b.value:
                        continue
                    if a.zone == b.zone:
                        young, old = (a, b) if a.value > b.value else (b, a)
                    elif a.zone is LOCAL:
                        young, old = a, b
                    else:
                        young, old = b, a
                    bind(young.value, young.zone, old)
                elif ta is REF:
                    bind(a.value, a.zone, b)
                elif tb is REF:
                    bind(b.value, b.zone, a)
                elif ta is LIST and tb is LIST:
                    ah, bh = a.value, b.value
                    az, bz = a.zone, b.zone
                    worklist.append((read(ah + 1, az), read(bh + 1, bz)))
                    worklist.append((read(ah, az), read(bh, bz)))
                elif ta is STRUCT and tb is STRUCT:
                    av, bv, az, bz = a.value, b.value, a.zone, b.zone
                    fa = read(av, az)
                    fb = read(bv, bz)
                    if fa.value != fb.value:
                        return False
                    _, arity = functor_key(int(fa.value))
                    for i in range(arity, 0, -1):
                        worklist.append((read(av + i, az),
                                         read(bv + i, bz)))
                elif ta is FLOAT and tb is FLOAT:
                    if a.value != b.value:
                        return False
                else:
                    if a.tag != b.tag or a.value != b.value:
                        return False
            return True

        shadow = self.shadow
        set_x = self.regs.set_x
        reg_x = self.regs.x
        memory = self.memory
        dwords = memory.store.words
        size = memory.store.size
        dcache = memory.data_cache
        dtags = dcache.tags
        ddirty = dcache.dirty
        ds = dcache.stats
        sectioned = dcache.sectioned
        timing = memory.timing_enabled
        zone_checking = memory.zones.enabled
        DPT = Type.DATA_PTR

        def specialise(zone):
            """Constant-zone read/write with the cache/zone hit path
            inlined, the same shape the superinstruction emitter
            (repro.core.superops) generates for build-time-constant
            zones: every counter commits only after all conditions
            passed, and any edge — timing or zone checking off, armed
            undo log, write protection, uninitialised cell, zone bounds,
            a write at or past the store's end, cache miss — falls back
            to the generic fused accessor, which owns those cases.
            ``allowed_types`` is never reassigned after construction,
            so the membership test is baked; limits and protection are
            read per access (growth handlers move them mid-run)."""
            entry = memory.zones.entries.get(zone)
            ok = (entry is not None and DPT in entry.allowed_types
                  and timing and zone_checking)
            base = (int(zone) & 7) << 10

            def rd(a):
                if ok:
                    if sectioned:
                        j = base | (a & 1023)
                        t = a >> 10
                    else:
                        j = a & 8191
                        t = a >> 13
                    if dtags[j] == t:
                        # A written cell lies inside the data space, so
                        # a hit needs no address-range test.
                        w = dwords.get(a)
                        if (w is not None
                                and entry.low_bound <= a
                                < entry.high_bound):
                            entry.checks += 1
                            ds.reads += 1
                            ds.read_hits += 1
                            stats.data_reads += 1
                            return w
                return read(a, zone)

            def wr(a, w):
                if (ok and machine._undo_log is None
                        and not entry.write_protected):
                    if sectioned:
                        j = base | (a & 1023)
                        t = a >> 10
                    else:
                        j = a & 8191
                        t = a >> 13
                    if (dtags[j] == t
                            and entry.low_bound <= a < entry.high_bound
                            and 0 <= a < size):
                        entry.checks += 1
                        dwords[a] = w
                        ds.writes += 1
                        ds.write_hits += 1
                        ddirty[j] = True
                        stats.data_writes += 1
                        return
                write(a, w, zone)

            return rd, wr, entry, ok
        shallow_enabled = self.features.shallow_backtracking
        fail_shallow = costs.fail_shallow
        unwind_cost = costs.trail_unwind_per_entry
        cp_restore_base = costs.cp_restore_base
        cp_restore_per_reg = costs.cp_restore_per_reg
        fail_deep_branch = costs.fail_deep_branch
        cp_create_base = costs.cp_create_base
        cp_save_per_reg = costs.cp_save_per_reg
        global_base = self._stack_base[GLOBAL]
        local_base = self._stack_base[LOCAL]
        control_base = self._stack_base[Zone.CONTROL]
        CONTROL = Zone.CONTROL
        mcp = make_code_ptr
        mki = make_int
        rd_control, wr_control, ce, ce_ok = specialise(CONTROL)
        ce_base = (int(CONTROL) & 7) << 10
        rd_trail, wr_trail, te, te_ok = specialise(TRAIL)
        wr_global = specialise(GLOBAL)[1]
        wr_local = specialise(LOCAL)[1]
        te_base = (int(TRAIL) & 7) << 10

        mku = make_unbound

        def unwind(mark):
            # Trail.unwind_to with the specialised accessors; trail.top
            # moves before each entry's restore, like the class method,
            # so a trap mid-unwind leaves identical partial state.
            undone = 0
            while trail.top > mark:
                t = trail.top - 1
                trail.top = t
                entry = rd_trail(t)
                address = int(entry.value)
                z = entry.zone
                if z is GLOBAL:
                    wr_global(address, mku(address, z))
                elif z is LOCAL:
                    wr_local(address, mku(address, z))
                else:
                    write(address, mku(address, z), z)
                undone += 1
            return undone

        def fail():
            tracer = machine.tracer
            if tracer is not None:
                note = getattr(tracer, "note_failure", None)
                if note is not None:
                    note()
            if shallow_enabled and machine.shallow_flag:
                stats.shallow_fails += 1
                machine.cycles += fail_shallow
                if not machine.cp_flag:
                    undone = unwind(shadow.tr)
                    machine.cycles += undone * unwind_cost
                    machine.h = shadow.h
                    machine.p = shadow.alt
                else:
                    b = machine.b
                    tr = int(rd_control(b + CP_SAVED_TR).value)
                    undone = unwind(tr)
                    machine.cycles += undone * unwind_cost
                    machine.h = int(rd_control(b + CP_SAVED_H).value)
                    machine.p = int(rd_control(b + CP_ALT).value)
                return

            stats.deep_fails += 1
            b = machine.b
            if not b:
                machine.running = False
                machine.exhausted = True
                return
            arity = int(rd_control(b + CP_ARITY).value)
            for i in range(arity):
                set_x(i, rd_control(b + CP_ARGS + i))
            machine.cp = int(rd_control(b + CP_SAVED_CP).value)
            machine.e = int(rd_control(b + CP_SAVED_E).value)
            machine.b0 = int(rd_control(b + CP_SAVED_B0).value)
            tr = int(rd_control(b + CP_SAVED_TR).value)
            undone = unwind(tr)
            h = int(rd_control(b + CP_SAVED_H).value)
            machine.h = h
            machine.hb = h
            machine.lb = int(rd_control(b + CP_SAVED_LB).value)
            machine.p = int(rd_control(b + CP_ALT).value)
            machine.cp_flag = True
            machine.shallow_flag = False
            machine.cycles += (cp_restore_base
                               + arity * cp_restore_per_reg
                               + fail_deep_branch
                               + undone * unwind_cost)

        def create_choice_point(alt, arity, h, tr, lb):
            b = machine.b
            base = (b + CP_ARGS
                    + int(rd_control(b + CP_ARITY).value)) if b \
                else control_base
            # The frame's 9 + arity words go to consecutive ascending
            # addresses, so wr_control's hit path is expanded once as a
            # loop (per-word fallback keeps access order and counters
            # exact).  The undo-log and protection guards hoist out of
            # the loop: no handler can run between the
            # writes of one instruction without recovery, and a run with
            # recovery always has the undo log armed, which routes every
            # word through the generic accessor.
            words = [mki(arity), mdp(b, CONTROL), mcp(machine.cp),
                     mdp(machine.e, LOCAL), mdp(h, GLOBAL),
                     mdp(tr, TRAIL), mdp(machine.b0, CONTROL),
                     mdp(lb, LOCAL), mcp(alt)]
            for i in range(arity):
                words.append(reg_x(i))
            a = base
            if (ce_ok and machine._undo_log is None
                    and not ce.write_protected):
                for w in words:
                    if sectioned:
                        j = ce_base | (a & 1023)
                        t = a >> 10
                    else:
                        j = a & 8191
                        t = a >> 13
                    if (dtags[j] == t
                            and ce.low_bound <= a < ce.high_bound
                            and 0 <= a < size):
                        ce.checks += 1
                        dwords[a] = w
                        ds.writes += 1
                        ds.write_hits += 1
                        ddirty[j] = True
                        stats.data_writes += 1
                    else:
                        write(a, w, CONTROL)
                    a += 1
            else:
                for w in words:
                    write(a, w, CONTROL)
                    a += 1
            machine.b = base
            machine.hb = h
            machine.lb = lb
            machine.cycles += cp_create_base + arity * cp_save_per_reg
            stats.choice_points_created += 1

        def refresh_barriers():
            b = machine.b
            if b:
                machine.hb = int(rd_control(b + CP_SAVED_H).value)
                machine.lb = int(rd_control(b + CP_SAVED_LB).value)
            else:
                machine.hb = global_base
                machine.lb = local_base

        def pop_choice_point():
            machine.b = int(rd_control(machine.b + CP_PREV_B).value)
            refresh_barriers()

        return (bind, unify, fail, create_choice_point,
                refresh_barriers, pop_choice_point)

    # ------------------------------------------------------------------
    # stack geometry
    # ------------------------------------------------------------------

    def _caller_frame_size(self) -> int:
        """Live size of the current environment frame, read from the
        nperms field of the call instruction before the return address
        (the WAM environment-trimming convention)."""
        call_instr = self.code[self.cp - 1] if self.cp >= 1 else None
        if call_instr is not None and call_instr.op is Op.CALL:
            return ENV_Y0 + call_instr.b
        return ENV_Y0

    def local_top(self) -> int:
        """First free word of the local stack."""
        e_top = self.e + self._caller_frame_size() if self.e else \
            self._stack_base[Zone.LOCAL]
        return max(e_top, self.lb)

    def control_top(self) -> int:
        """First free word of the control stack."""
        if not self.b:
            return self._stack_base[Zone.CONTROL]
        arity = int(self._read(self.b + CP_ARITY, Zone.CONTROL).value)
        return self.b + CP_ARGS + arity

    # ------------------------------------------------------------------
    # choice points
    # ------------------------------------------------------------------

    def _create_choice_point(self, alt: int, arity: int,
                             h: int, tr: int, lb: int) -> None:
        base = self.control_top()
        write = self._write
        write(base + CP_ARITY, make_int(arity), Zone.CONTROL)
        write(base + CP_PREV_B, make_data_ptr(self.b, Zone.CONTROL),
              Zone.CONTROL)
        write(base + CP_SAVED_CP, make_code_ptr(self.cp), Zone.CONTROL)
        write(base + CP_SAVED_E, make_data_ptr(self.e, Zone.LOCAL),
              Zone.CONTROL)
        write(base + CP_SAVED_H, make_data_ptr(h, Zone.GLOBAL), Zone.CONTROL)
        write(base + CP_SAVED_TR, make_data_ptr(tr, Zone.TRAIL),
              Zone.CONTROL)
        write(base + CP_SAVED_B0, make_data_ptr(self.b0, Zone.CONTROL),
              Zone.CONTROL)
        write(base + CP_SAVED_LB, make_data_ptr(lb, Zone.LOCAL),
              Zone.CONTROL)
        write(base + CP_ALT, make_code_ptr(alt), Zone.CONTROL)
        for i in range(arity):
            write(base + CP_ARGS + i, self.regs.x(i), Zone.CONTROL)
        self.b = base
        self.hb = h
        self.lb = lb
        self.cycles += self.costs.cp_create_base \
            + arity * self.costs.cp_save_per_reg
        self.stats.choice_points_created += 1

    def _cp_field(self, index: int) -> Word:
        return self._read(self.b + index, Zone.CONTROL)

    def _refresh_barriers(self) -> None:
        """Reload HB and LB from the current choice point (or bases)."""
        if self.b:
            self.hb = int(self._cp_field(CP_SAVED_H).value)
            self.lb = int(self._cp_field(CP_SAVED_LB).value)
        else:
            self.hb = self._stack_base[Zone.GLOBAL]
            self.lb = self._stack_base[Zone.LOCAL]

    def _pop_choice_point(self) -> None:
        self.b = int(self._cp_field(CP_PREV_B).value)
        self._refresh_barriers()

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Backtrack: shallow when the shadow registers suffice,
        otherwise a full choice-point restore."""
        if self.tracer is not None:
            note = getattr(self.tracer, "note_failure", None)
            if note is not None:
                note()
        costs = self.costs
        if self.features.shallow_backtracking and self.shallow_flag:
            self.stats.shallow_fails += 1
            self.cycles += costs.fail_shallow
            if not self.cp_flag:
                undone = self.trail.unwind_to(self.shadow.tr)
                self.cycles += undone * costs.trail_unwind_per_entry
                self.h = self.shadow.h
                self.p = self.shadow.alt
            else:
                tr = int(self._cp_field(CP_SAVED_TR).value)
                undone = self.trail.unwind_to(tr)
                self.cycles += undone * costs.trail_unwind_per_entry
                self.h = int(self._cp_field(CP_SAVED_H).value)
                self.p = int(self._cp_field(CP_ALT).value)
            return

        self.stats.deep_fails += 1
        if not self.b:
            self.running = False
            self.exhausted = True
            return
        arity = int(self._cp_field(CP_ARITY).value)
        for i in range(arity):
            self.regs.set_x(i, self._read(self.b + CP_ARGS + i,
                                          Zone.CONTROL))
        self.cp = int(self._cp_field(CP_SAVED_CP).value)
        self.e = int(self._cp_field(CP_SAVED_E).value)
        self.b0 = int(self._cp_field(CP_SAVED_B0).value)
        tr = int(self._cp_field(CP_SAVED_TR).value)
        undone = self.trail.unwind_to(tr)
        self.h = int(self._cp_field(CP_SAVED_H).value)
        self.hb = self.h
        self.lb = int(self._cp_field(CP_SAVED_LB).value)
        self.p = int(self._cp_field(CP_ALT).value)
        self.cp_flag = True
        self.shallow_flag = False
        self.cycles += (costs.cp_restore_base
                        + arity * costs.cp_restore_per_reg
                        + costs.fail_deep_branch
                        + undone * costs.trail_unwind_per_entry)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self, entry: int, collect_all: bool = False,
            answer_names: Optional[List[str]] = None) -> RunStats:
        """Execute from the bootstrap stub calling ``entry``.

        The linker places a two-instruction stub (``call entry, 0`` then
        ``halt``) at the end of the code space; running starts there so
        CP conventions hold from the first instruction.

        Every :class:`MachineError` escaping this method carries the
        partial ``RunStats`` of the interrupted run and the program
        counter at the fault (``err.stats`` / ``err.pc``); the stats
        object is finalized (cycles, solutions, trail pushes) whether
        the run completes or not.
        """
        self.collect_all = collect_all
        self.answer_names = answer_names or []
        self._reset_state()
        self.stats = RunStats()
        self.solutions = []
        self.output = []

        stub = self._bootstrap_stub(entry)
        self.p = stub
        # Initial environment frame: CE = self, CP = the halt address.
        e0 = self._stack_base[Zone.LOCAL]
        self._write(e0 + ENV_CE, make_data_ptr(e0, Zone.LOCAL), Zone.LOCAL)
        self._write(e0 + ENV_CP, make_code_ptr(stub + 1), Zone.LOCAL)
        self.e = e0
        self.lb = e0 + ENV_Y0
        self.cp = stub + 1
        self._entry_name = self._describe_entry(entry)

        self.running = True
        return self._execute()

    def resume(self, extra_cycles: Optional[int] = None) -> RunStats:
        """Continue the run loop from the machine's current state.

        Used after a :class:`CycleLimitExceeded` watchdog stop (state is
        intact at an instruction boundary; pass ``extra_cycles`` to
        extend the budget) or after :meth:`restore` of a checkpoint.
        Statistics keep accumulating into the same ``RunStats``.
        """
        if self.halted or self.exhausted:
            return self.stats
        if extra_cycles is not None:
            self.max_cycles = self.cycles + extra_cycles
        self.running = True
        return self._execute()

    def run_sliced(self, entry: int,
                   next_stop: Callable[[int], Optional[int]],
                   on_stop: Callable[["Machine"], None],
                   collect_all: bool = False,
                   answer_names: Optional[List[str]] = None) -> RunStats:
        """:meth:`run`, pre-emptible at chosen cycle counts.

        ``next_stop(cycles)`` names the next absolute cycle count at
        which to pause (strictly greater than ``cycles``, or ``None``
        for no further stops); ``on_stop(machine)`` runs at each pause
        with the machine at an instruction boundary — the serving
        layer's checkpoint and chaos hooks.  Implemented purely by
        narrowing ``max_cycles`` per slice and resuming, so the run
        loops are untouched: a run with no stops is byte-for-byte the
        plain :meth:`run`, and simulated state/statistics are identical
        regardless of slicing (the watchdog stop is resume-exact).  The
        real budget in ``self.max_cycles`` still aborts the run with
        :class:`~repro.errors.CycleLimitExceeded`, with the same
        message an unsliced run would produce.
        """
        budget = self.max_cycles
        target = next_stop(0)
        self.max_cycles = budget if target is None else min(budget, target)
        return self._drive_slices(
            budget, next_stop, on_stop,
            lambda: self.run(entry, collect_all=collect_all,
                             answer_names=answer_names))

    def resume_sliced(self, next_stop: Callable[[int], Optional[int]],
                      on_stop: Callable[["Machine"], None]) -> RunStats:
        """:meth:`resume`, pre-emptible like :meth:`run_sliced` (used
        to continue a restored checkpoint under the same slicing).
        ``self.max_cycles`` must already hold the true budget."""
        budget = self.max_cycles
        target = next_stop(self.cycles)
        self.max_cycles = budget if target is None else min(budget, target)
        return self._drive_slices(budget, next_stop, on_stop, self.resume)

    def _drive_slices(self, budget: int,
                      next_stop: Callable[[int], Optional[int]],
                      on_stop: Callable[["Machine"], None],
                      first: Callable[[], RunStats]) -> RunStats:
        """Run/resume until completion, pausing at ``next_stop`` cycle
        targets.  A watchdog stop below the budget is a slice boundary;
        at (or beyond) the budget it is the genuine limit and the error
        propagates untouched."""
        try:
            try:
                return first()
            except CycleLimitExceeded:
                if self.max_cycles >= budget:
                    raise
            while True:
                on_stop(self)
                target = next_stop(self.cycles)
                self.max_cycles = budget if target is None \
                    else min(budget, target)
                try:
                    return self.resume()
                except CycleLimitExceeded:
                    if self.max_cycles >= budget:
                        raise
        finally:
            self.max_cycles = budget

    def _execute(self) -> RunStats:
        """Run :meth:`_loop` until halt/exhaustion, finalizing stats and
        annotating escaping errors no matter how the loop exits."""
        stats = self.stats
        # A fresh (re)entry consumes any pending stop-at-solution pause;
        # the '$answer' escape re-raises it at the next solution.
        self.solution_paused = False
        # Under fast_path, traced and recovering runs included, shadow
        # _read/_write and the hot control-path methods with fused
        # single-frame closures for the duration of this run — same
        # observables (docs/PERF.md), so the ablation keeps the seed
        # layered path.  Installed here rather than in __init__
        # because the closures capture this run's RunStats; the finally
        # below uninstalls them so accesses between runs (bootstrap
        # frame setup, tests poking _read directly) take the layered
        # class methods again.
        if self.fast_path:
            self._read, self._write, self.deref = \
                self.memory.fused_data_path(self)
            (self.bind, self.unify, self.fail,
             self._create_choice_point, self._refresh_barriers,
             self._pop_choice_point) = self._fused_control_path()
        try:
            self._loop()
        except MachineError as err:
            err.stats = stats
            err.pc = self.p
            if isinstance(err, MachineTrap) and err.report is None:
                # Traps of runs without recovery skip _service_trap;
                # give them the same audit trail on the way out.  The
                # ring buffer holds the faulting instruction's address
                # (self.p has already advanced past it).
                pc = self._recent_pcs[(self._recent_index - 1)
                                      & _RECENT_MASK] \
                    if self._recent_index else self.p
                report = self._build_report(err, pc)
                err.report = report
                self.trap_log.append(report)
                stats.traps_raised += 1
                stats.count_trap(report.kind)
            raise
        finally:
            self.running = False
            self._undo_log = None
            self.__dict__.pop("_read", None)
            self.__dict__.pop("_write", None)
            self.__dict__.pop("deref", None)
            self.__dict__.pop("bind", None)
            self.__dict__.pop("unify", None)
            self.__dict__.pop("fail", None)
            self.__dict__.pop("_create_choice_point", None)
            self.__dict__.pop("_refresh_barriers", None)
            self.__dict__.pop("_pop_choice_point", None)
            stats.cycles = self.cycles
            stats.solutions = len(self.solutions)
            stats.trail_pushes = self.trail.pushes
        return stats

    # -- predecode cache management ------------------------------------

    def invalidate_predecode(self) -> None:
        """Drop the predecoded block table; every code-zone writer
        (linker install, incremental loader, bootstrap-stub allocator)
        calls this, and :meth:`_ensure_predecoded` re-checks the code
        length and generation defensively."""
        self._predecoded = None
        self._code_generation += 1

    def patch_code(self, address: int, instr: "Instruction") -> None:
        """Rewrite one already-decoded instruction in place.

        The blessed API for same-length code-word rewrites (runtime
        specialisation, debugger breakpoints): validates that an
        instruction of the same encoded size starts at ``address``,
        writes it, and bumps the code-zone generation *without*
        dropping the predecoded table — :meth:`_ensure_predecoded`
        notices the stale generation on the next run and retranslates.
        A raw ``machine.code[address] = ...`` store would leave the
        fast path executing the old predecoded instruction.
        """
        old = self.code[address] if 0 <= address < len(self.code) else None
        if old is None:
            raise InstructionError(
                f"no instruction starts at code address {address}")
        if instr.size != old.size:
            raise InstructionError(
                f"patch at {address} changes instruction size "
                f"({old.size} -> {instr.size} words); only same-size "
                f"rewrites keep the code layout valid")
        self.code[address] = instr
        self._code_generation += 1

    def _ensure_predecoded(self) -> PredecodedCode:
        """The predecoded table for the current code zone, rebuilt only
        when the code changed since the last build.  With
        ``features.superops`` on, each block is fused into a single
        closure (repro.core.superops) the first time a run enters it,
        not here; the table keeps its closures across
        ``reset_for_reuse``."""
        table = self._predecoded
        if table is None or not table.valid_for(self.code,
                                                self._code_generation):
            fuser = SuperopFuser(self, code_memo=self._superop_code) \
                if self.features.superops else None
            table = predecode(self.code, self._dispatch,
                              self.costs.static_cost_table(),
                              fuser=fuser,
                              generation=self._code_generation)
            self._predecoded = table
        return table

    def _loop(self) -> None:
        """The run loop: every instruction is one step, in the seed
        order — recent-PC ring write, ``P`` to the fall-through,
        ``cycles += cost + code fetch``, instruction and inference
        counters, tracer hook, handler, cycle-budget check.

        On the fast path the step comes predecoded from
        :attr:`PredecodedCode.singles` and the code-cache hit probe is
        inlined (a hit touches only the two read counters, batched
        here and flushed on every exit).  With ``fast_path=False``, the
        ablation, it is decoded from ``self.code`` and every fetch goes
        through :meth:`MemorySystem.code_fetch`, so the ablation builds
        no predecode table.

        Fusion applies on the fast path while nothing observes or
        recovers single instructions: no tracer, no armed trap vector,
        no injector.  A table entry carrying a superop closure
        (repro.core.superops) is then charged its block sums and run
        as one call; the closure maintains P, the ring, fetch timing
        and the uncharge of its unexecuted suffix itself.  The budget
        is checked after the closure, so a fused block may overshoot
        ``max_cycles`` by up to one closure; the stop is still at an
        instruction boundary and ``resume`` continues exactly.

        With a trap vector armed or an injector attached, each step
        first takes a register snapshot, arms the write-undo log and
        calls the injector; a :class:`MachineTrap` goes to
        :meth:`_service_trap`, and a recovered instruction is replayed
        with ``replay=True`` on the tracer hook, so monitors can
        collapse the aborted attempt and its replay into one event.
        """
        memory = self.memory
        stats = self.stats
        recent = self._recent_pcs
        max_cycles = self.max_cycles
        tracer = self.tracer
        injector = self.injector
        recovering = self.trap_vector.armed or injector is not None
        code_fetch = memory.code_fetch
        line_tags, index_mask, tag_shift = memory.code_probe_state()
        cache_stats = memory.code_cache.stats
        entries = singles = None
        probe = False
        if self.fast_path:
            table = self._ensure_predecoded()
            singles = table.singles
            if tracer is None and not recovering:
                entries = table.entries
            probe = memory.timing_enabled
        else:
            code = self.code
            dispatch = self._dispatch
            instruction_cost = self.costs.instruction_cost
        undo: list = []
        snapshot = None
        replay = False
        hits = 0
        try:
            while self.running:
                p = self.p
                if entries is not None:
                    entry = entries[p]
                    if entry is not None and entry[4] is not None:
                        self.cycles += entry[1]
                        stats.instructions += entry[2]
                        stats.inferences += entry[3]
                        entry[4]()
                        if self.cycles > max_cycles:
                            raise self._cycle_limit_error(max_cycles)
                        continue
                if singles is not None:
                    step = singles[p]
                else:
                    instr = code[p]
                    step = None if instr is None else (
                        dispatch[instr.op], instruction_cost(instr.op),
                        1 if instr.infer else 0, p + instr.size, instr)
                if step is None:
                    raise InstructionError(
                        f"execution fell into the middle of "
                        f"a multi-word instruction at {p}")
                handler, cost, infer, next_p, instr = step
                try:
                    if recovering:
                        snapshot = self._replay_snapshot(p)
                        del undo[:]
                        self._undo_log = undo
                        if injector is not None:
                            injector.before_instruction(self)
                    recent[self._recent_index & _RECENT_MASK] = p
                    self._recent_index += 1
                    self.p = next_p
                    if probe and line_tags[p & index_mask] == p >> tag_shift:
                        hits += 1
                        self.cycles += cost
                    else:
                        self.cycles += cost + code_fetch(p)
                    stats.instructions += 1
                    stats.inferences += infer
                    if tracer is not None:
                        tracer.on_instruction(self, p, instr, replay=replay)
                    handler(instr)
                except MachineTrap as trap:
                    if not recovering \
                            or not self._service_trap(trap, p, snapshot):
                        raise
                    replay = True
                    continue
                replay = False
                if self.cycles > max_cycles:
                    raise self._cycle_limit_error(max_cycles)
        finally:
            if hits:
                cache_stats.reads += hits
                cache_stats.read_hits += hits

    # ------------------------------------------------------------------
    # trap delivery and recovery
    # ------------------------------------------------------------------

    def _replay_snapshot(self, p: int) -> tuple:
        """The pre-instruction register state needed to restart the
        instruction at ``p`` precisely after a trap.

        ``stats.instructions`` / ``stats.inferences`` are part of the
        snapshot: the loop counts an instruction *before* dispatching
        it, so an aborted attempt must be un-counted on replay or every
        trapped instruction inflates the LIPS-bearing counters by one.
        ``cycles`` is snapshotted (last element, read by
        :meth:`_service_trap`) but deliberately **not** restored: the
        wasted attempt took real machine time, which stays on the clock
        and is attributed to ``stats.recovery_cycles`` — so fault-free
        and faulted runs of the same program agree on *functional*
        counters (instructions, inferences, solutions) while cycles
        honestly include the recovery overhead."""
        shadow = self.shadow
        stats = self.stats
        return (p, self.cp, self.e, self.b, self.b0, self.h, self.hb,
                self.s, self.lb, self.mode_write, self.shallow_flag,
                self.cp_flag, shadow.alt, shadow.h, shadow.tr,
                self.trail.top, self.trail.pushes,
                len(self.solutions), len(self.output),
                list(self.regs.cells),
                stats.instructions, stats.inferences, self.cycles)

    def _restore_replay(self, snapshot: tuple) -> None:
        """Rewind to the snapshot: every memory write of the partially
        executed instruction undone exactly (the write-undo log covers
        *untrailed* young bindings the trail cannot rewind — without
        it, a replayed GET_STRUCTURE would deref its own half-finished
        binding and take READ mode over a half-built structure),
        registers back, partial answers dropped, instruction/inference
        counters rewound (cycles intentionally kept — see
        :meth:`_replay_snapshot`)."""
        (p, cp, e, b, b0, h, hb, s, lb, mode_write, shallow_flag,
         cp_flag, sh_alt, sh_h, sh_tr, tr_top, tr_pushes, n_solutions,
         n_output, regs, n_instructions, n_inferences,
         _cycles_at_entry) = snapshot
        undo = self._undo_log
        if undo is not None:
            # Disarm before replaying so the trap handler's own writes
            # (GC compaction, limit moves) are never treated as part of
            # the faulted instruction; the loop re-arms per iteration.
            self._undo_log = None
            store = self.memory.store
            for address, old in reversed(undo):
                store.poke(address, old)
        self.trail.top = tr_top
        self.trail.pushes = tr_pushes
        self.p = p
        self.cp = cp
        self.e = e
        self.b = b
        self.b0 = b0
        self.h = h
        self.hb = hb
        self.s = s
        self.lb = lb
        self.mode_write = mode_write
        self.shallow_flag = shallow_flag
        self.cp_flag = cp_flag
        self.shadow.set(sh_alt, sh_h, sh_tr)
        del self.solutions[n_solutions:]
        del self.output[n_output:]
        self.regs.cells[:] = regs
        self.stats.instructions = n_instructions
        self.stats.inferences = n_inferences

    def _service_trap(self, trap: MachineTrap, p: int,
                      snapshot: tuple) -> bool:
        """Deliver one trap: rewind, report, dispatch to handlers.

        Returns True when a handler recovered the fault (the loop then
        restarts the instruction at ``p``); False aborts the run with
        the original trap, now carrying its TrapReport.
        """
        stats = self.stats
        report = self._build_report(trap, p)
        trap.report = report
        self.trap_log.append(report)
        stats.traps_raised += 1
        stats.count_trap(report.kind)

        # Livelock guard: the same trap kind at the same PC recovering
        # over and over means the handler is not actually fixing it.
        if p == self._retry_pc and report.kind == self._retry_kind:
            self._retry_count += 1
        else:
            self._retry_pc = p
            self._retry_kind = report.kind
            self._retry_count = 1
        report.retry = self._retry_count
        if self._retry_count > MAX_TRAP_RETRIES:
            return False

        vector = self.trap_vector
        if not vector.armed:
            return False

        # The handler runs in system mode: zone checking is suspended
        # (handlers legitimately touch memory the squeezed/overflowed
        # zone would reject) and everything it costs — the faulted
        # instruction's wasted partial attempt (re-paid on replay), the
        # rewind, its own memory traffic, explicit cycle charges — is
        # recovery overhead.  The window opens at the instruction's
        # start, which the snapshot recorded.
        cycles_before = snapshot[-1]
        zones = self.memory.zones
        zones_enabled = zones.enabled
        zones.enabled = False
        try:
            self._restore_replay(snapshot)
            recovered = vector.dispatch(self, trap, report)
        finally:
            zones.enabled = zones_enabled
        self.cycles += vector.service_cycles
        stats.recovery_cycles += self.cycles - cycles_before
        if recovered:
            report.recovered = True
            stats.traps_recovered += 1
        return recovered

    def _build_report(self, trap: MachineTrap, p: int) -> TrapReport:
        """Snapshot the machine state at a trap into a TrapReport."""
        address = getattr(trap, "address", None)
        zone = getattr(trap, "zone", None)
        vpage = getattr(trap, "virtual_page", None)
        return TrapReport(
            kind=type(trap).__name__,
            message=str(trap),
            pc=p,
            cycles=self.cycles,
            instructions=self.stats.instructions,
            faulting_address=address,
            zone=zone,
            virtual_page=vpage,
            registers={
                "p": p, "cp": self.cp, "e": self.e, "b": self.b,
                "b0": self.b0, "h": self.h, "hb": self.hb,
                "s": self.s, "lb": self.lb, "tr": self.trail.top,
            },
            injected=getattr(trap, "injected", False),
        )

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, label: str = "") -> MachineCheckpoint:
        """Snapshot all dynamic state (registers, the written store
        cells that hold the stacks and trail, zone limits, statistics,
        answers, timing state) so the run can be rolled back after a
        fatal trap or watchdog stop, or resumed in another process."""
        return MachineCheckpoint.capture(self, label=label)

    def restore(self, checkpoint: MachineCheckpoint) -> None:
        """Roll the machine back to ``checkpoint``; :meth:`resume`
        continues execution from the captured program counter."""
        checkpoint.restore(self)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def recent_addresses(self) -> List[int]:
        """The last executed code addresses, oldest first (the run
        loop's ring buffer; at most RECENT_RING entries)."""
        count = min(self._recent_index, RECENT_RING)
        if not count:
            return []
        ring = self._recent_pcs
        start = self._recent_index - count
        return [ring[(start + i) & _RECENT_MASK] for i in range(count)]

    def _describe_entry(self, entry: int) -> str:
        """``name/arity`` of the predicate linked at ``entry``."""
        for (name, arity), address in self.predicates.items():
            if address == entry:
                return f"{name}/{arity}"
        return f"@{entry}"

    def _cycle_limit_error(self, max_cycles: int) -> CycleLimitExceeded:
        """Build the watchdog error with enough context to locate the
        runaway loop without re-running under a tracer."""
        recent = self.recent_addresses()
        entry = self._entry_name or "?"
        tail = ", ".join(str(a) for a in recent)
        return CycleLimitExceeded(
            f"exceeded {max_cycles} cycles at P={self.p} running {entry} "
            f"(last {len(recent)} addresses: {tail})",
            entry=entry, recent_addresses=recent)

    def _bootstrap_stub(self, entry: int) -> int:
        """Build (or reuse) the bootstrap call/halt stub for ``entry``
        at the end of code space; returns its address."""
        cached = self._stubs.get(entry)
        if cached is not None:
            return cached
        stub = len(self.code)
        self.code.append(Instruction(Op.CALL, entry, 0, None))
        self.code.append(Instruction(Op.HALT))
        self._stubs[entry] = stub
        self.invalidate_predecode()
        return stub

    # ------------------------------------------------------------------
    # dispatch table
    # ------------------------------------------------------------------

    def _build_dispatch(self) -> Dict[Op, Callable[[Instruction], None]]:
        return {
            Op.CALL: self._op_call,
            Op.EXECUTE: self._op_execute,
            Op.PROCEED: self._op_proceed,
            Op.ALLOCATE: self._op_allocate,
            Op.DEALLOCATE: self._op_deallocate,
            Op.HALT: self._op_halt,
            Op.JUMP: self._op_jump,
            Op.FAIL: lambda instr: self.fail(),
            Op.TRY_ME_ELSE: self._op_try_me_else,
            Op.RETRY_ME_ELSE: self._op_retry_me_else,
            Op.TRUST_ME: self._op_trust_me,
            Op.TRY: self._op_try,
            Op.RETRY: self._op_retry,
            Op.TRUST: self._op_trust,
            Op.NECK: self._op_neck,
            Op.NECK_CUT: self._op_neck_cut,
            Op.GET_LEVEL: self._op_get_level,
            Op.CUT: self._op_cut,
            Op.CUT_Y: self._op_cut_y,
            Op.SWITCH_ON_TERM: self._op_switch_on_term,
            Op.SWITCH_ON_CONSTANT: self._op_switch_on_constant,
            Op.SWITCH_ON_STRUCTURE: self._op_switch_on_structure,
            Op.GET_X_VARIABLE: self._op_get_x_variable,
            Op.GET_Y_VARIABLE: self._op_get_y_variable,
            Op.GET_X_VALUE: self._op_get_x_value,
            Op.GET_Y_VALUE: self._op_get_y_value,
            Op.GET_CONSTANT: self._op_get_constant,
            Op.GET_NIL: self._op_get_nil,
            Op.GET_LIST: self._op_get_list,
            Op.GET_STRUCTURE: self._op_get_structure,
            Op.PUT_X_VARIABLE: self._op_put_x_variable,
            Op.PUT_Y_VARIABLE: self._op_put_y_variable,
            Op.PUT_X_VALUE: self._op_put_x_value,
            Op.PUT_Y_VALUE: self._op_put_y_value,
            Op.PUT_UNSAFE_VALUE: self._op_put_unsafe_value,
            Op.PUT_CONSTANT: self._op_put_constant,
            Op.PUT_NIL: self._op_put_nil,
            Op.PUT_LIST: self._op_put_list,
            Op.PUT_STRUCTURE: self._op_put_structure,
            Op.UNIFY_X_VARIABLE: self._op_unify_x_variable,
            Op.UNIFY_Y_VARIABLE: self._op_unify_y_variable,
            Op.UNIFY_X_VALUE: self._op_unify_x_value,
            Op.UNIFY_Y_VALUE: self._op_unify_y_value,
            Op.UNIFY_X_LOCAL_VALUE: self._op_unify_x_local_value,
            Op.UNIFY_Y_LOCAL_VALUE: self._op_unify_y_local_value,
            Op.UNIFY_CONSTANT: self._op_unify_constant,
            Op.UNIFY_NIL: self._op_unify_nil,
            Op.UNIFY_VOID: self._op_unify_void,
            Op.MOVE2: self._op_move2,
            Op.ARITH: self._op_arith,
            Op.TEST: self._op_test,
            Op.GEN_UNIFY: self._op_gen_unify,
            Op.ESCAPE: self._op_escape,
        }

    # ------------------------------------------------------------------
    # control instructions
    # ------------------------------------------------------------------

    def _op_call(self, instr: Instruction) -> None:
        self.cp = self.p
        self.b0 = self.b
        self.p = instr.a

    def _op_execute(self, instr: Instruction) -> None:
        self.b0 = self.b
        self.p = instr.a

    def _op_proceed(self, instr: Instruction) -> None:
        self.p = self.cp

    def _op_allocate(self, instr: Instruction) -> None:
        new_e = self.local_top()
        self._write(new_e + ENV_CE, make_data_ptr(self.e, Zone.LOCAL),
                    Zone.LOCAL)
        self._write(new_e + ENV_CP, make_code_ptr(self.cp), Zone.LOCAL)
        self.e = new_e

    def _op_deallocate(self, instr: Instruction) -> None:
        self.cp = int(self._read(self.e + ENV_CP, Zone.LOCAL).value)
        self.e = int(self._read(self.e + ENV_CE, Zone.LOCAL).value)

    def _op_halt(self, instr: Instruction) -> None:
        self.running = False
        self.halted = True

    def _op_jump(self, instr: Instruction) -> None:
        self.p = instr.a

    # -- clause selection -------------------------------------------------------

    def _enter_with_alternatives(self, alt: int, arity: int) -> None:
        """Common body of try_me_else / try."""
        if self.features.shallow_backtracking:
            self.shallow_flag = True
            self.cp_flag = False
            self.shadow.set(alt, self.h, self.trail.top)
            self.regs.save_shadow(make_code_ptr(alt),
                                  make_data_ptr(self.h, Zone.GLOBAL),
                                  make_data_ptr(self.trail.top, Zone.TRAIL))
            self.hb = self.h
            self.lb = self.local_top()
        else:
            self._create_choice_point(alt, arity, self.h, self.trail.top,
                                      self.local_top())

    def _op_try_me_else(self, instr: Instruction) -> None:
        self._enter_with_alternatives(instr.a, instr.b)

    def _op_retry_me_else(self, instr: Instruction) -> None:
        if not self.features.shallow_backtracking:
            self._write(self.b + CP_ALT, make_code_ptr(instr.a),
                        Zone.CONTROL)
            return
        if self.cp_flag:
            self._write(self.b + CP_ALT, make_code_ptr(instr.a),
                        Zone.CONTROL)
        else:
            self.shadow.alt = instr.a
            self.regs.save_shadow(
                make_code_ptr(instr.a),
                make_data_ptr(self.shadow.h, Zone.GLOBAL),
                make_data_ptr(self.shadow.tr, Zone.TRAIL))
        self.shallow_flag = True

    def _op_trust_me(self, instr: Instruction) -> None:
        if not self.features.shallow_backtracking:
            self._pop_choice_point()
            return
        if self.cp_flag:
            self._pop_choice_point()
        else:
            # The shadow is simply discarded; no choice point was ever
            # materialised for this call.
            self._refresh_barriers()
        self.shallow_flag = False

    def _op_try(self, instr: Instruction) -> None:
        self._enter_with_alternatives(self.p, instr.b)
        self.p = instr.a

    def _op_retry(self, instr: Instruction) -> None:
        alt = self.p
        if not self.features.shallow_backtracking:
            self._write(self.b + CP_ALT, make_code_ptr(alt), Zone.CONTROL)
        elif self.cp_flag:
            self._write(self.b + CP_ALT, make_code_ptr(alt), Zone.CONTROL)
            self.shallow_flag = True
        else:
            self.shadow.alt = alt
            self.regs.save_shadow(
                make_code_ptr(alt),
                make_data_ptr(self.shadow.h, Zone.GLOBAL),
                make_data_ptr(self.shadow.tr, Zone.TRAIL))
            self.shallow_flag = True
        self.p = instr.a

    def _op_trust(self, instr: Instruction) -> None:
        self._op_trust_me(instr)
        self.p = instr.a

    def _op_neck(self, instr: Instruction) -> None:
        if not self.features.shallow_backtracking:
            return
        if self.shallow_flag and not self.cp_flag:
            self._create_choice_point(self.shadow.alt, instr.a,
                                      self.shadow.h, self.shadow.tr,
                                      self.lb)
            self.cp_flag = True
        self.shallow_flag = False

    def _op_neck_cut(self, instr: Instruction) -> None:
        if (self.features.shallow_backtracking and self.shallow_flag
                and not self.cp_flag):
            # The shadow evaporates: the paper's headline case — the
            # head and guard selected a unique clause, no choice point
            # was ever created, and the cut costs one cycle.
            self.stats.choice_points_avoided += 1
            self.shallow_flag = False
            self._refresh_barriers()
            return
        self.shallow_flag = False
        if self.b != self.b0:
            self.b = self.b0
            self._refresh_barriers()

    def _op_get_level(self, instr: Instruction) -> None:
        self._write(self.e + ENV_Y0 + instr.a,
                    make_data_ptr(self.b0, Zone.CONTROL), Zone.LOCAL)

    def _op_cut(self, instr: Instruction) -> None:
        if self.b != self.b0:
            self.b = self.b0
            self._refresh_barriers()

    def _op_cut_y(self, instr: Instruction) -> None:
        level = int(self._read(self.e + ENV_Y0 + instr.a,
                               Zone.LOCAL).value)
        if self.b != level:
            self.b = level
            self._refresh_barriers()

    # -- switches ------------------------------------------------------------------

    def _op_switch_on_term(self, instr: Instruction) -> None:
        if not self.features.mwac:
            self.cycles += self.features.mwac_off_switch_penalty
        word = self.deref(self.regs.x(0))
        self.regs.set_x(0, word)
        t = word.type
        if t is Type.REF:
            target = instr.a
        elif t is Type.LIST:
            target = instr.c
        elif t is Type.STRUCT:
            target = instr.d
        else:
            target = instr.b
        if target is None:
            self.fail()
        else:
            self.p = target

    def _op_switch_on_constant(self, instr: Instruction) -> None:
        if not self.features.mwac:
            self.cycles += self.features.mwac_off_switch_penalty
        word = self.deref(self.regs.x(0))
        target = instr.a.get((word.tag, word.value), instr.b)
        if target is None:
            self.fail()
        else:
            self.p = target

    def _op_switch_on_structure(self, instr: Instruction) -> None:
        if not self.features.mwac:
            self.cycles += self.features.mwac_off_switch_penalty
        word = self.deref(self.regs.x(0))
        functor = self._read(word.value, word.zone)
        target = instr.a.get(int(functor.value), instr.b)
        if target is None:
            self.fail()
        else:
            self.p = target

    # ------------------------------------------------------------------
    # get instructions (head unification)
    # ------------------------------------------------------------------

    def _unify_penalty(self) -> None:
        if not self.features.mwac:
            self.cycles += self.features.mwac_off_unify_penalty

    def _op_get_x_variable(self, instr: Instruction) -> None:
        self.regs.set_x(instr.a, self.regs.x(instr.b))

    def _op_get_y_variable(self, instr: Instruction) -> None:
        self._write(self.e + ENV_Y0 + instr.a, self.regs.x(instr.b),
                    Zone.LOCAL)

    def _op_get_x_value(self, instr: Instruction) -> None:
        self._unify_penalty()
        if not self.unify(self.regs.x(instr.a), self.regs.x(instr.b)):
            self.fail()

    def _op_get_y_value(self, instr: Instruction) -> None:
        self._unify_penalty()
        y = self._read(self.e + ENV_Y0 + instr.a, Zone.LOCAL)
        if not self.unify(y, self.regs.x(instr.b)):
            self.fail()

    def _op_get_constant(self, instr: Instruction) -> None:
        self._unify_penalty()
        word = self.deref(self.regs.x(instr.b))
        if not self._bind_or_compare(word, instr.a):
            self.fail()

    def _op_get_nil(self, instr: Instruction) -> None:
        self._unify_penalty()
        word = self.deref(self.regs.x(instr.a))
        if word.type is Type.NIL:
            return
        if word.type is Type.REF:
            self.bind(word.value, word.zone, self.symbols.atom_word("[]"))
            return
        self.fail()

    def _op_get_list(self, instr: Instruction) -> None:
        self._unify_penalty()
        word = self.deref(self.regs.x(instr.a))
        if word.type is Type.LIST:
            self.s = word.value
            self.mode_write = False
        elif word.type is Type.REF:
            self.bind(word.value, word.zone, make_list(self.h))
            self.mode_write = True
        else:
            self.fail()

    def _op_get_structure(self, instr: Instruction) -> None:
        self._unify_penalty()
        word = self.deref(self.regs.x(instr.b))
        if word.type is Type.STRUCT:
            functor = self._read(word.value, word.zone)
            if int(functor.value) != instr.a:
                self.fail()
                return
            self.s = word.value + 1
            self.mode_write = False
        elif word.type is Type.REF:
            self.bind(word.value, word.zone, make_struct(self.h))
            self.heap_push(make_functor(instr.a))
            self.mode_write = True
        else:
            self.fail()

    # ------------------------------------------------------------------
    # put instructions (argument loading)
    # ------------------------------------------------------------------

    def _op_put_x_variable(self, instr: Instruction) -> None:
        var = self.new_heap_var()
        self.regs.set_x(instr.a, var)
        self.regs.set_x(instr.b, var)

    def _op_put_y_variable(self, instr: Instruction) -> None:
        address = self.e + ENV_Y0 + instr.a
        var = make_unbound(address, Zone.LOCAL)
        self._write(address, var, Zone.LOCAL)
        self.regs.set_x(instr.b, var)

    def _op_put_x_value(self, instr: Instruction) -> None:
        self.regs.set_x(instr.b, self.regs.x(instr.a))

    def _op_put_y_value(self, instr: Instruction) -> None:
        self.regs.set_x(instr.b,
                        self._read(self.e + ENV_Y0 + instr.a, Zone.LOCAL))

    def _op_put_unsafe_value(self, instr: Instruction) -> None:
        word = self.deref(self._read(self.e + ENV_Y0 + instr.a, Zone.LOCAL))
        if word.type is Type.REF and word.zone is Zone.LOCAL \
                and word.value >= self.e:
            # A variable of the environment being discarded: globalise.
            var = self.new_heap_var()
            self.bind(word.value, word.zone, var)
            word = var
        self.regs.set_x(instr.b, word)

    def _op_put_constant(self, instr: Instruction) -> None:
        self.regs.set_x(instr.b, instr.a)

    def _op_put_nil(self, instr: Instruction) -> None:
        self.regs.set_x(instr.a, self.symbols.atom_word("[]"))

    def _op_put_list(self, instr: Instruction) -> None:
        self.regs.set_x(instr.a, make_list(self.h))
        self.mode_write = True

    def _op_put_structure(self, instr: Instruction) -> None:
        address = self.heap_push(make_functor(instr.a))
        self.regs.set_x(instr.b, make_struct(address))
        self.mode_write = True

    # ------------------------------------------------------------------
    # unify instructions (structure arguments)
    # ------------------------------------------------------------------

    def _op_unify_x_variable(self, instr: Instruction) -> None:
        if self.mode_write:
            self.regs.set_x(instr.a, self.new_heap_var())
        else:
            self.regs.set_x(instr.a, self._read(self.s, Zone.GLOBAL))
            self.s += 1

    def _op_unify_y_variable(self, instr: Instruction) -> None:
        if self.mode_write:
            var = self.new_heap_var()
        else:
            var = self._read(self.s, Zone.GLOBAL)
            self.s += 1
        self._write(self.e + ENV_Y0 + instr.a, var, Zone.LOCAL)

    def _op_unify_x_value(self, instr: Instruction) -> None:
        self._unify_penalty()
        if self.mode_write:
            self.heap_push(self.regs.x(instr.a))
        else:
            if not self.unify(self.regs.x(instr.a),
                              self._read(self.s, Zone.GLOBAL)):
                self.fail()
                return
            self.s += 1

    def _op_unify_y_value(self, instr: Instruction) -> None:
        self._unify_penalty()
        y = self._read(self.e + ENV_Y0 + instr.a, Zone.LOCAL)
        if self.mode_write:
            self.heap_push(y)
        else:
            if not self.unify(y, self._read(self.s, Zone.GLOBAL)):
                self.fail()
                return
            self.s += 1

    def _push_local_value(self, word: Word) -> Word:
        """Write-mode unify_local_value: append ``word`` to the open
        structure, globalising unbound local variables.

        The fresh heap cell doubles as the structure's argument slot
        (the classic WAM trick): pushing a separate cell would corrupt
        the argument layout.
        """
        word = self.deref(word)
        if word.type is Type.REF and word.zone is Zone.LOCAL:
            var = self.new_heap_var()       # lands in the arg slot
            self.bind(word.value, word.zone, var)
            return var
        self.heap_push(word)
        return word

    def _op_unify_x_local_value(self, instr: Instruction) -> None:
        self._unify_penalty()
        if self.mode_write:
            word = self._push_local_value(self.regs.x(instr.a))
            self.regs.set_x(instr.a, word)
        else:
            self._op_unify_x_value(instr)

    def _op_unify_y_local_value(self, instr: Instruction) -> None:
        self._unify_penalty()
        if self.mode_write:
            y = self._read(self.e + ENV_Y0 + instr.a, Zone.LOCAL)
            self._push_local_value(y)
        else:
            self._op_unify_y_value(instr)

    def _op_unify_constant(self, instr: Instruction) -> None:
        self._unify_penalty()
        if self.mode_write:
            self.heap_push(instr.a)
        else:
            word = self.deref(self._read(self.s, Zone.GLOBAL))
            self.s += 1
            if not self._bind_or_compare(word, instr.a):
                self.fail()

    def _op_unify_nil(self, instr: Instruction) -> None:
        if self.mode_write:
            self.heap_push(self.symbols.atom_word("[]"))
        else:
            word = self.deref(self._read(self.s, Zone.GLOBAL))
            self.s += 1
            if not self._bind_or_compare(word, self.symbols.atom_word("[]")):
                self.fail()

    def _op_unify_void(self, instr: Instruction) -> None:
        count = instr.a
        if self.mode_write:
            for _ in range(count):
                self.new_heap_var()
        else:
            self.s += count
        self.cycles += max(0, count - 1)

    # ------------------------------------------------------------------
    # data movement and arithmetic
    # ------------------------------------------------------------------

    def _op_move2(self, instr: Instruction) -> None:
        first = self.regs.x(instr.a)
        second = self.regs.x(instr.c) if instr.c is not None else None
        self.regs.set_x(instr.b, first)
        if second is not None:
            self.regs.set_x(instr.d, second)

    def _numeric_operand(self, index: int) -> Word:
        word = self.deref(self.regs.x(index))
        if word.type is Type.INT or word.type is Type.FLOAT:
            return word
        if word.type is Type.REF:
            raise ArithmeticError_("unbound variable in arithmetic")
        raise ArithmeticError_(
            f"non-numeric operand in arithmetic: "
            f"{self.symbols.describe_constant(word)}")

    def _op_arith(self, instr: Instruction) -> None:
        op: ArithOp = instr.a
        left = self._numeric_operand(instr.b)
        right = self._numeric_operand(instr.c) if instr.c is not None \
            else left
        is_float = (left.type is Type.FLOAT or right.type is Type.FLOAT)
        table = self.costs.arith_float if is_float else self.costs.arith_int
        # The base instruction cost already covered one cycle.
        self.cycles += table[op] - 1 + self.costs.arith_dispatch
        lv, rv = left.value, right.value
        try:
            if op is ArithOp.ADD:
                result = lv + rv
            elif op is ArithOp.SUB:
                result = lv - rv
            elif op is ArithOp.MUL:
                result = lv * rv
            elif op is ArithOp.DIV:
                # Warren-era '/' semantics: truncating integer division
                # on two integers, float division otherwise.
                result = (lv / rv) if is_float else int(lv / rv)
            elif op is ArithOp.IDIV:
                result = lv // rv if not is_float else int(lv // rv)
            elif op is ArithOp.MOD:
                result = lv % rv
            elif op is ArithOp.NEG:
                result = -lv
            elif op is ArithOp.ABS:
                result = abs(lv)
            elif op is ArithOp.MIN:
                result = min(lv, rv)
            elif op is ArithOp.MAX:
                result = max(lv, rv)
            elif op is ArithOp.AND:
                result = int(lv) & int(rv)
            elif op is ArithOp.OR:
                result = int(lv) | int(rv)
            elif op is ArithOp.XOR:
                result = int(lv) ^ int(rv)
            elif op is ArithOp.SHL:
                result = int(lv) << int(rv)
            elif op is ArithOp.SHR:
                result = int(lv) >> int(rv)
            else:
                raise InstructionError(f"unknown arithmetic op {op}")
        except ZeroDivisionError:
            raise ArithmeticError_("division by zero")
        if is_float:
            self.regs.set_x(instr.d, make_float(to_single_precision(
                float(result))))
        else:
            self.regs.set_x(instr.d, make_int(wrap_int32(int(result))))

    def _op_test(self, instr: Instruction) -> None:
        op: TestOp = instr.a
        left = self._numeric_operand(instr.b)
        right = self._numeric_operand(instr.c)
        self.cycles += self.costs.test_dispatch
        lv, rv = left.value, right.value
        if op is TestOp.LT:
            ok = lv < rv
        elif op is TestOp.GT:
            ok = lv > rv
        elif op is TestOp.LE:
            ok = lv <= rv
        elif op is TestOp.GE:
            ok = lv >= rv
        elif op is TestOp.EQ:
            ok = lv == rv
        else:
            ok = lv != rv
        if ok:
            return
        # A failed guard test is the shallow-backtracking sweet spot.
        self.cycles += self.costs.branch_taken_extra
        self.fail()

    def _op_gen_unify(self, instr: Instruction) -> None:
        if not self.unify(self.regs.x(instr.a), self.regs.x(instr.b)):
            self.fail()

    # ------------------------------------------------------------------
    # escapes (built-in predicates)
    # ------------------------------------------------------------------

    def _op_escape(self, instr: Instruction) -> None:
        handler = self.builtins.get(instr.a)
        if handler is None:
            name = self.symbols.functor_name(instr.c) if instr.c is not None \
                else f"builtin#{instr.a}"
            raise ExistenceError(f"undefined built-in {name}")
        self.cycles += instr.b * self.costs.escape_per_arg
        if not handler(self, instr.b):
            self.fail()

    # ------------------------------------------------------------------
    # conveniences for tests and tools
    # ------------------------------------------------------------------

    def x_deref(self, index: int) -> Word:
        """Dereferenced view of an X register (test helper)."""
        return self.deref(self.regs.x(index))

    def predicate_address(self, name: str, arity: int) -> int:
        """Entry address of a linked predicate."""
        try:
            return self.predicates[(name, arity)]
        except KeyError:
            raise ExistenceError(f"unknown predicate {name}/{arity}")
