"""The composed KCM memory system (paper section 3.2, figure 4).

Wires together the functional store, the zone checker, the two logical
caches, the MMU and the main-memory board into the two access paths the
CPU sees:

- ``data_read`` / ``data_write`` — the data-cache path, used by the
  execution unit.  Zone check runs on every access; address translation
  only on cache misses (the caches are logical).
- ``code_fetch`` / ``code_write`` — the code-cache path used by the
  prefetch unit and by incremental code generation.

Every method returns the cycle cost of the access: 1 base cycle (the
80 ns cache access) plus any miss/write-back/page-fault penalty.  The
machine adds these to its cycle counter.  A ``timing_enabled=False``
mode skips the cache/MMU models entirely (functional simulation only),
used by tests that don't care about cycles.

This is the layered path only, the seed reference.  The fast path's
single-frame accessors are built with the machine's control-path
closures in one scope, :meth:`repro.core.machine.Machine._fused_paths`:
they fold the zone-check and cache-hit rule of both paths above into
one Python frame, and a cache miss with its main-memory transfer and
the translation of an already-mapped page into one more, calling
:meth:`MMU.translate` for any other page.  They hold references to
this hierarchy's containers (tag and dirty lists, fill logs, page
tables, counters), which is why every method below mutates them in
place and never rebinds them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.tags import Type, Zone
from repro.core.word import Word
from repro.memory.cache import CodeCache, DataCache
from repro.memory.layout import DEFAULT_LAYOUT, Region
from repro.memory.main_memory import MainMemory
from repro.memory.mmu import MMU, PageTableEntry
from repro.memory.store import DataStore
from repro.memory.zones import ZoneChecker


class MemorySystem:
    """Facade over the whole memory hierarchy."""

    def __init__(self,
                 layout: Optional[Dict[Zone, Region]] = None,
                 sectioned_cache: bool = True,
                 zone_check: bool = True,
                 timing_enabled: bool = True,
                 page_fault_cycles: int = 0,
                 demand_paging: bool = True):
        # page_fault_cycles defaults to 0: benchmark timings assume a
        # warm machine whose working set the host has already wired
        # (section 2.1's paging server); the paging experiments pass an
        # explicit host round-trip cost.
        #
        # demand_paging=True maps missing pages implicitly inside the
        # MMU (the warm-machine shortcut).  demand_paging=False makes a
        # missing translation raise a PageFault trap instead, which the
        # recovery subsystem's page-fault handler services — the
        # faithful model of the host paging server of section 2.1.
        self.layout = layout if layout is not None else DEFAULT_LAYOUT
        self.store = DataStore()
        self.zones = ZoneChecker(self.layout, enabled=zone_check)
        self.main_memory = MainMemory()
        self.data_cache = DataCache(self.main_memory,
                                    sectioned=sectioned_cache)
        self.code_cache = CodeCache(self.main_memory)
        self.mmu = MMU(page_fault_cycles=page_fault_cycles,
                       demand_paging=demand_paging)
        self.timing_enabled = timing_enabled

    # -- the data path ---------------------------------------------------------

    def data_read(self, address: int, zone: Zone,
                  word_type: Type = Type.DATA_PTR) -> "tuple[Word, int]":
        """Read one data word; returns ``(word, cycles)``."""
        self.zones.check(zone, address, word_type, is_write=False)
        word = self.store.read(address)
        if not self.timing_enabled:
            return word, 1
        cycles = 1 + self._data_miss_cycles(address, zone, is_write=False)
        return word, cycles

    def data_write(self, address: int, word: Word, zone: Zone,
                   word_type: Type = Type.DATA_PTR) -> int:
        """Write one data word; returns cycles."""
        self.zones.check(zone, address, word_type, is_write=True)
        self.store.write(address, word)
        if not self.timing_enabled:
            return 1
        return 1 + self._data_miss_cycles(address, zone, is_write=True)

    def _data_miss_cycles(self, address: int, zone: Zone,
                          is_write: bool) -> int:
        penalty = self.data_cache.access(address, zone, is_write)
        if penalty:
            # Logical cache: translate only on the miss.
            _, fault = self.mmu.translate(address, is_write)
            penalty += fault
        return penalty

    # -- the code path ---------------------------------------------------------

    def code_fetch(self, address: int) -> int:
        """Instruction fetch timing; returns cycles (content lives in
        the machine's code space, see :mod:`repro.compiler.linker`)."""
        if not self.timing_enabled:
            return 0
        penalty = self.code_cache.fetch(address)
        if penalty:
            _, fault = self.mmu.translate(address, is_write=False,
                                          code_space=True)
            penalty += fault
        return penalty

    def code_probe_state(self) -> "tuple[list, int, int]":
        """State for an inlined code-fetch *hit* probe:
        ``(line_tags, index_mask, tag_shift)``.

        On the fast path the run loop (:meth:`Machine._loop`) and the
        superop closures test
        ``line_tags[address & index_mask] == address >> tag_shift``
        themselves — a hit costs zero penalty cycles and touches
        nothing but the read counters, which they batch and flush
        through :attr:`code_cache` ``.stats`` — and take the fused code
        fetch (``Machine._code_fetch``, :meth:`code_fetch` in one frame)
        on a miss, so miss/prefetch/MMU behaviour and every counter
        stay bit-identical to the seed interpreter, which calls
        :meth:`code_fetch` for every instruction.  The tag list is
        mutated in place by the cache, never rebound, so the reference
        stays valid across the run.
        """
        cache = self.code_cache
        return cache.tags, cache.TOTAL_WORDS - 1, 13

    def code_write(self, address: int) -> int:
        """Incremental code generation write (straight to code cache)."""
        if not self.timing_enabled:
            return 1
        return 1 + self.code_cache.write(address)

    # -- trap servicing ----------------------------------------------------------

    def service_page_fault(self, virtual_page: int,
                           code_space: bool = False) -> int:
        """Map a faulted page in (the page-fault handler's primitive);
        returns the host service cost in cycles.  Raises
        :class:`~repro.errors.PageFault` when physical memory is
        exhausted — that one really is fatal."""
        self.mmu.map_page(virtual_page, code_space=code_space,
                          writable=True)
        self.mmu.faults += 1
        return self.mmu.page_fault_cycles

    # -- timing-state snapshot (durable checkpoints) -----------------------------

    def timing_state(self) -> Dict[str, object]:
        """Everything outside the functional store that influences
        *future* cycle counts, as one picklable dict.

        The original :class:`~repro.core.traps.MachineCheckpoint`
        deliberately treated caches and page tables as expendable — fine
        for restoring onto the machine that captured them (its warm
        state is a superset), but resuming on a *fresh* machine must
        reproduce cache contents, MMU translations and every statistics
        counter or the resumed run's cycle accounting diverges from the
        uninterrupted run.  Mirrors :meth:`reset_for_reuse`'s inventory
        of state a run dirties.

        The caches' part is their valid lines, read from the fill logs
        (:mod:`repro.memory.cache`), which name exactly those lines: a
        dict from line index to ``(tag, dirty)`` for the data cache and
        to the tag for the code cache.  Its size follows the lines a
        run touched, and it compares equal whatever order they were
        filled in.
        """
        main = self.main_memory
        mmu = self.mmu
        entries = {(virtual_page, code_space): (entry.status,
                                                entry.physical_page)
                   for code_space in (False, True)
                   for virtual_page, entry
                   in mmu._table(code_space).items()}
        return {
            "data_lines": self.data_cache.lines(),
            "data_stats": vars(self.data_cache.stats).copy(),
            "code_lines": self.code_cache.lines(),
            "code_stats": vars(self.code_cache.stats).copy(),
            "main_memory": {
                "reads": main.reads, "writes": main.writes,
                "words_read": main.words_read,
                "words_written": main.words_written,
            },
            "mmu": {
                "entries": entries,
                "next_free_page": mmu.next_free_page,
                "faults": mmu.faults,
                "translations": mmu.translations,
                "demand_paging": mmu.demand_paging,
            },
            "uninitialised_reads": self.store.uninitialised_reads,
            "zone_checks": {zone: entry.checks
                            for zone, entry in self.zones.entries.items()},
            "zone_violations": self.zones.violations,
        }

    def restore_timing_state(self, state: Dict[str, object]) -> None:
        """Put the hierarchy back into a :meth:`timing_state` snapshot.

        Containers are mutated in place, never rebound — the machine's
        fused paths and the run loop's code probe hold references to
        the tag/dirty lists, the fill logs and the statistics objects.
        Each cache is cleared through its fill log, then the snapshot's
        lines are replayed into it and logged, so the log still names
        exactly the valid lines and the next :meth:`reset_for_reuse`
        clears only those.
        """
        self.data_cache.replay(state["data_lines"])
        for name, value in state["data_stats"].items():
            setattr(self.data_cache.stats, name, value)
        self.code_cache.replay(state["code_lines"])
        for name, value in state["code_stats"].items():
            setattr(self.code_cache.stats, name, value)
        main = state["main_memory"]
        self.main_memory.reads = main["reads"]
        self.main_memory.writes = main["writes"]
        self.main_memory.words_read = main["words_read"]
        self.main_memory.words_written = main["words_written"]
        mmu = self.mmu
        saved = state["mmu"]
        mmu.data_table.clear()
        mmu.code_table.clear()
        for (virtual_page, code_space), (status, physical) \
                in saved["entries"].items():
            mmu._table(code_space)[virtual_page] = PageTableEntry(status,
                                                                  physical)
        mmu.next_free_page = saved["next_free_page"]
        mmu.faults = saved["faults"]
        mmu.translations = saved["translations"]
        mmu.demand_paging = saved["demand_paging"]
        self.store.uninitialised_reads = state["uninitialised_reads"]
        for zone, checks in state["zone_checks"].items():
            self.zones.entries[zone].checks = checks
        self.zones.violations = state["zone_violations"]

    # -- engine reuse ------------------------------------------------------------

    def reset_for_reuse(self) -> None:
        """Return the whole hierarchy to its just-constructed state.

        The warm-machine-pool path (:meth:`Machine.reset_for_reuse`):
        a reused engine must present *cold* caches, an empty store,
        layout-pristine zone limits and a clean MMU, or its simulated
        statistics diverge from a fresh machine's.  Every container is
        mutated in place, never rebound — the machine's fused paths and
        the run loop's code probe capture ``store.words``,
        ``data_cache.tags``/``dirty``, ``code_cache.tags`` and both
        fill logs by reference.

        Both caches clear only the lines their fill logs name, a median
        of about 130 data and 90 code lines per pooled query instead of
        three 8K-slot lists; a checkpoint restore logs the lines it
        replays, so the same holds after it.
        """
        self.store.words.clear()
        self.store.uninitialised_reads = 0
        self.zones.reset_limits()
        self.data_cache.invalidate()
        self.code_cache.invalidate()
        self.mmu.reset()
        self.reset_statistics()

    # -- statistics --------------------------------------------------------------

    def reset_statistics(self) -> None:
        """Zero every counter in the hierarchy (between benchmark runs)
        without disturbing cache/page-table contents."""
        self.data_cache.stats.reset()
        self.code_cache.stats.reset()
        self.main_memory.reset_statistics()

    def statistics(self) -> Dict[str, float]:
        """A flat snapshot of the interesting counters."""
        return {
            "data_accesses": self.data_cache.stats.accesses,
            "data_hit_ratio": self.data_cache.stats.hit_ratio,
            "data_write_backs": self.data_cache.stats.write_backs,
            "code_fetches": self.code_cache.stats.reads,
            "code_hit_ratio": self.code_cache.stats.hit_ratio,
            "memory_words_read": self.main_memory.words_read,
            "memory_words_written": self.main_memory.words_written,
            "page_faults": self.mmu.faults,
        }
