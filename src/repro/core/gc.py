"""Garbage-collection support: the mark phase over the global stack.

The KCM data word reserves two GC bits that the Tag-Value-Multiplexer
can manipulate (section 3.1.1), and the zone check's stack monitoring
exists partly "to trigger garbage collection" (section 3.2.3).  The
full SEPIA collector was host software; this module implements its
core — a pointer-reversal-free marking pass over the global stack —
plus the trigger policy, giving the simulator real heap-liveness
diagnostics:

- :class:`HeapMarker` marks every reachable global-stack cell via the
  ``gc_mark`` bit, reports live/dead statistics, and restores the heap
  to its exact pre-mark state (the bits are cleared by a sweep),
- :func:`should_collect` is the zone-monitoring trigger: collect when
  the heap top crosses a configurable fraction of its zone, and
- :class:`HeapCompactor` is a *reclaiming* collector: an
  order-preserving sliding compaction that moves live cells to the
  bottom of the global stack and relocates every referent, used by the
  heap-overflow recovery handler (see :mod:`repro.recovery`).

Root set: the argument/temporary registers, the environment chain
(Y slots sized by the WAM trimming convention), every choice point's
saved arguments and environment, and the trail.  Stale registers can
over-approximate liveness — exactly the conservatism a real collector
on this architecture needed, since the machine cannot know which X
registers are dead without compiler liveness maps.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List

from repro.core.machine import (
    CP_ARGS, CP_ARITY, CP_PREV_B, ENV_CE, ENV_CP, ENV_Y0,
)
from repro.core.opcodes import Op
from repro.core.registers import X_REGISTERS
from repro.core.tags import Type, Zone
from repro.core.word import Word, make_unbound


@dataclass
class MarkStats:
    """Result of one marking pass."""

    heap_cells: int           # words between heap base and H
    live_cells: int           # cells reachable from the root set
    roots_scanned: int

    @property
    def dead_cells(self) -> int:
        """Unreachable cells the sweep/compaction would reclaim."""
        return self.heap_cells - self.live_cells

    @property
    def live_fraction(self) -> float:
        """live / total (1.0 on an empty heap)."""
        if not self.heap_cells:
            return 1.0
        return self.live_cells / self.heap_cells


class HeapMarker:
    """Mark reachable global-stack cells through the GC bits."""

    def __init__(self, machine):
        self.machine = machine

    # -- root enumeration ---------------------------------------------------

    def _roots(self) -> List[Word]:
        machine = self.machine
        store = machine.memory.store
        roots: List[Word] = []

        # Argument / temporary registers.
        roots.extend(machine.regs.cells[:X_REGISTERS])

        # The environment chain: frame sizes via the nperms convention.
        e = machine.e
        cp = machine.cp
        local_base = machine._stack_base[Zone.LOCAL]
        seen = set()
        while e and e not in seen and e >= local_base:
            seen.add(e)
            call_instr = machine.code[cp - 1] if cp >= 1 else None
            nperms = call_instr.b if (call_instr is not None
                                      and call_instr.op is Op.CALL
                                      and call_instr.b is not None) else 0
            for i in range(nperms):
                roots.append(store.read(e + ENV_Y0 + i))
            cp = int(store.read(e + ENV_CP).value)
            e = int(store.read(e + ENV_CE).value)

        # Choice points: saved arguments and saved environments are
        # roots too (their continuations may still run).
        b = machine.b
        while b:
            arity = int(store.read(b + CP_ARITY).value)
            for i in range(arity):
                roots.append(store.read(b + CP_ARGS + i))
            b = int(store.read(b + CP_PREV_B).value)

        # Trail entries point at bound cells that must survive.
        for address in range(machine.trail.base, machine.trail.top):
            roots.append(store.read(address))
        return roots

    # -- mark / sweep ----------------------------------------------------------

    def mark(self) -> MarkStats:
        """Run one marking pass; leaves the mark bits SET (call
        :meth:`clear` or use :meth:`collect_statistics`)."""
        machine = self.machine
        store = machine.memory.store
        heap_base = machine._stack_base[Zone.GLOBAL]
        heap_top = machine.h

        roots = self._roots()
        stack: List[Word] = list(roots)
        live = 0
        while stack:
            word = stack.pop()
            t = word.type
            if t is Type.REF or t is Type.DATA_PTR:
                if word.zone is Zone.GLOBAL \
                        and heap_base <= word.value < heap_top:
                    cell = store.read(word.value)
                    if not cell.gc_mark:
                        store.write(word.value, cell.with_gc_mark(True))
                        live += 1
                        if cell.value != word.value or not cell.is_ref():
                            stack.append(cell)
                elif word.zone is Zone.LOCAL:
                    cell = store.read(word.value)
                    if cell.value != word.value or not cell.is_ref():
                        stack.append(cell)
            elif t is Type.LIST:
                for offset in (0, 1):
                    address = word.value + offset
                    if not heap_base <= address < heap_top:
                        continue
                    cell = store.read(address)
                    if not cell.gc_mark:
                        store.write(address, cell.with_gc_mark(True))
                        live += 1
                        stack.append(cell)
            elif t is Type.STRUCT:
                functor = store.read(word.value)
                if not functor.gc_mark \
                        and heap_base <= word.value < heap_top:
                    store.write(word.value, functor.with_gc_mark(True))
                    live += 1
                    # A structure pointer whose target is not a functor
                    # cell is garbage from an interrupted heap write
                    # (e.g. a trap between the STRUCT bind and the
                    # functor push); mark the target conservatively but
                    # do not walk arguments that were never written.
                    if functor.type is not Type.FUNCTOR:
                        continue
                    _, arity = machine.symbols.functor_key(
                        int(functor.value))
                    for i in range(1, arity + 1):
                        cell = store.read(word.value + i)
                        if not cell.gc_mark:
                            store.write(word.value + i,
                                        cell.with_gc_mark(True))
                            live += 1
                            stack.append(cell)
        return MarkStats(heap_cells=heap_top - heap_base,
                         live_cells=live, roots_scanned=len(roots))

    def clear(self) -> int:
        """Sweep the mark bits; returns how many were cleared.  After
        this the heap is bit-for-bit what it was before :meth:`mark`."""
        machine = self.machine
        store = machine.memory.store
        cleared = 0
        for address in range(machine._stack_base[Zone.GLOBAL], machine.h):
            cell = store.read(address)
            if cell.gc_mark:
                store.write(address, cell.with_gc_mark(False))
                cleared += 1
        return cleared

    def collect_statistics(self) -> MarkStats:
        """Mark, record, clear: a side-effect-free liveness snapshot."""
        stats = self.mark()
        cleared = self.clear()
        assert cleared == stats.live_cells
        return stats


def should_collect(machine, threshold: float = 0.9) -> bool:
    """The zone-monitoring GC trigger (section 3.2.3): true when the
    heap top has crossed ``threshold`` of the GLOBAL zone."""
    region = machine.memory.layout[Zone.GLOBAL]
    used = machine.h - region.base
    return used >= threshold * region.size


# ---------------------------------------------------------------------------
# compaction (the reclaiming collector behind heap-overflow recovery)
# ---------------------------------------------------------------------------

@dataclass
class CollectStats:
    """Result of one compacting collection."""

    heap_cells: int            # words between heap base and old H
    live_cells: int            # cells that survived (new heap size)
    roots_scanned: int

    @property
    def freed_cells(self) -> int:
        """Words returned to the top of the global stack."""
        return self.heap_cells - self.live_cells

    @property
    def freed_fraction(self) -> float:
        """freed / total (0.0 on an empty heap)."""
        if not self.heap_cells:
            return 0.0
        return self.freed_cells / self.heap_cells


class HeapCompactor:
    """Order-preserving sliding compaction of the global stack.

    Marks via :class:`HeapMarker`, then slides every live cell down
    toward the heap base *preserving address order* — the property that
    keeps the WAM invariants alive: saved-H values in choice points
    still delimit exactly the cells allocated after that choice point,
    so backtracking's "reset H" reclamation stays correct (this is the
    standard approach of SICStus-family collectors).

    All referents are relocated: pointers inside surviving heap cells,
    the register file (including the shadow H register), every
    initialised cell outside the heap that carries a GLOBAL-zone
    pointer (environments, choice-point saved fields, trail entries,
    bound static cells), and the machine's H, HB, S and shadow-H
    registers.  Boundary pointers at dead addresses (saved H marks)
    forward to the new address of the first surviving cell at or above
    them, which preserves segment boundaries.

    Runs on the functional store directly: a real collection was host
    software on KCM (section 2.2), so its cost is charged by the
    recovery handler as a lump sum, not per simulated access.
    """

    #: cycles charged per heap cell examined by the collector (a
    #: host-software mark-slide pass; deliberately coarse).
    CYCLES_PER_CELL = 2

    def __init__(self, machine):
        self.machine = machine

    def collect(self) -> CollectStats:
        """Mark, slide, relocate; returns what was reclaimed."""
        machine = self.machine
        store = machine.memory.store
        heap_base = machine._stack_base[Zone.GLOBAL]
        old_top = machine.h

        mark_stats = HeapMarker(machine).mark()
        marked = [address for address in range(heap_base, old_top)
                  if store.read(address).gc_mark]

        def forward(address: int) -> int:
            """New address for ``address``: its slide target when live,
            else the slide target of the next live cell above it
            (monotone, so segment boundaries survive)."""
            return heap_base + bisect_left(marked, address)

        def relocate(word: Word) -> Word:
            # Inclusive of old_top: a GET_LIST/GET_STRUCTURE in write
            # mode binds LIST(H)/STRUCT(H) *before* pushing the cells,
            # so mid-clause a live pointer to the next allocation site
            # is legal WAM state; forward(old_top) is exactly new_top.
            if word.zone is Zone.GLOBAL \
                    and word.type in _RELOCATABLE_TYPES \
                    and heap_base <= word.value <= old_top:
                return Word(word.tag, forward(word.value))
            return word

        # Slide the survivors (clearing mark bits as they move), then
        # erase the reclaimed tail so stale words cannot leak back in.
        compacted = []
        for address in marked:
            cell = store.read(address).with_gc_mark(False)
            compacted.append(relocate(cell))
        for offset, cell in enumerate(compacted):
            store.write(heap_base + offset, cell)
        new_top = heap_base + len(compacted)
        for address in range(new_top, old_top):
            store.write(address, make_unbound(address, Zone.GLOBAL))

        # Relocate every referent outside the heap.
        regs = machine.regs.cells
        for index, word in enumerate(regs):
            regs[index] = relocate(word)
        self._relocate_store_outside_heap(relocate, heap_base, old_top)

        machine.h = new_top
        machine.hb = forward(machine.hb)
        if heap_base <= machine.s <= old_top:
            machine.s = forward(machine.s)
        machine.shadow.h = forward(machine.shadow.h)

        return CollectStats(heap_cells=old_top - heap_base,
                            live_cells=len(compacted),
                            roots_scanned=mark_stats.roots_scanned)

    def _relocate_store_outside_heap(self, relocate, heap_base: int,
                                     old_top: int) -> None:
        """Rewrite GLOBAL-zone pointers in every initialised cell that
        is not itself a heap cell (local stack, control stack, trail,
        static/system areas)."""
        words = self.machine.memory.store.words
        # Replacing the value of an existing key does not resize the
        # dict, so it is safe while iterating.
        for address, cell in words.items():
            if heap_base <= address < old_top:
                continue
            moved = relocate(cell)
            if moved is not cell:
                words[address] = moved


#: pointer types a compaction must forward when they target the heap.
_RELOCATABLE_TYPES = frozenset(
    {Type.REF, Type.STRUCT, Type.LIST, Type.DATA_PTR}
)
