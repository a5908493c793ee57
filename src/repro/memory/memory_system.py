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
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.tags import (
    ADDRESS_MASK, TAG_TYPE_SHIFT, TAG_ZONE_SHIFT, Type, Zone,
    ZONE_BY_INDEX, tag_zone,
)
from repro.core.word import Word, ZERO_WORD
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

    # -- the fused data path (predecoded execution layer) ----------------------

    def fused_data_path(self, machine) \
            -> "tuple[Callable, Callable, Callable]":
        """Build single-frame replacements for the machine's data
        accessors; returns ``(read, write, deref)`` closures.

        The layered path above costs around eight Python frames per
        access (machine wrapper, zone check, containment, store, miss
        accounting, cache, index split), which dominates host time in a
        cycle-accurate interpreter.  The closures fold the *happy* path
        — zone check passes, cache hits — into one frame, including the
        machine-side cycle/statistics accounting the seed keeps in
        :meth:`Machine._read` / :meth:`Machine._write`, and fall back
        to :meth:`ZoneChecker.check` for every violation so traps,
        messages and every counter (zone ``checks``/``violations``,
        cache hit/miss/write-back statistics, ``uninitialised_reads``,
        MMU faults, ``RunStats`` data accesses) are bit-identical.

        :meth:`Machine._execute` installs the pair for the duration of
        one run when ``fast_path`` is on and removes it afterwards; the
        ablation (``fast_path=False``) never sees them.  Built per run
        because the closures capture the run's ``RunStats``; everything
        else captured (zone table, the store's ``words`` dict, cache
        tag/dirty lists, counters objects) is mutated in place and never
        rebound.  A hit-path write stores straight into ``words`` only
        below the store's ``size``; a zone moved past the data space
        (:meth:`ZoneChecker.set_limits` allows it) sends the write to
        :meth:`DataStore.write`, which raises ``IndexError``.  The
        property tests in ``tests/test_props_fastpath.py`` pin the
        equivalence, including under injected faults.
        """
        zones = self.zones
        zone_enabled = zones.enabled
        entries = zones.entries
        # Zone enums are IntEnums 0..7 and the entries dict's key set is
        # fixed at construction (values are mutated in place), so a
        # 16-slot tuple turns the per-access dict hash into an index.
        zone_entry = tuple(entries.get(Zone(i)) if i < 8 else None
                           for i in range(16))
        zone_check = zones.check
        store = self.store
        dwords = store.words
        size = store.size
        timing = self.timing_enabled
        cache = self.data_cache
        cstats = cache.stats
        tags = cache.tags
        dirty = cache.dirty
        sectioned = cache.sectioned
        main = cache.memory
        translate = self.mmu.translate
        stats = machine.stats
        address_mask = ADDRESS_MASK
        DATA_PTR = Type.DATA_PTR

        def read(address, zone, word_type=DATA_PTR):
            # Counter ordering mirrors the layered path exactly: the
            # store/zone/cache counters move before a trap can escape,
            # stats.data_reads and machine.cycles only after the access
            # is known to complete (an MMU page-fault trap on the miss
            # path must leave them untouched, as data_read would).
            if zone_enabled:
                entry = zone_entry[zone]
                if (entry is not None and 0 <= address <= address_mask
                        and word_type in entry.allowed_types
                        and entry.low_bound <= address < entry.high_bound):
                    entry.checks += 1
                else:
                    zone_check(zone, address, word_type, False)  # raises
            word = dwords.get(address)
            if word is None:
                store.uninitialised_reads += 1
                word = ZERO_WORD
            if not timing:
                stats.data_reads += 1
                return word           # 1 cycle, folded into instr cost
            cstats.reads += 1
            if sectioned:
                index = ((zone & 7) << 10) | (address & 1023)
                tag = address >> 10
            else:
                index = address & 8191
                tag = address >> 13
            if tags[index] == tag:
                cstats.read_hits += 1
                stats.data_reads += 1
                return word
            cstats.misses += 1
            penalty = 0
            if tags[index] is not None and dirty[index]:
                cstats.write_backs += 1
                penalty += main.write_words(1)
            penalty += main.read_words(1)
            tags[index] = tag
            dirty[index] = False
            _, fault = translate(address, False)
            machine.cycles += penalty + fault
            stats.data_reads += 1
            return word

        def write(address, word, zone, word_type=DATA_PTR):
            undo = machine._undo_log
            if undo is not None:
                # Before anything else, exactly like Machine._write: a
                # trap mid-instruction must be able to undo writes that
                # succeeded functionally before the fault.
                undo.append((address, dwords.get(address)))
            if zone_enabled:
                entry = zone_entry[zone]
                if (entry is not None and 0 <= address < size
                        and word_type in entry.allowed_types
                        and not entry.write_protected
                        and entry.low_bound <= address < entry.high_bound):
                    entry.checks += 1
                    dwords[address] = word
                else:
                    # Raises on a violation; an address its zone admits
                    # past the store's end raises in store.write.
                    zone_check(zone, address, word_type, True)
                    store.write(address, word)
            else:
                store.write(address, word)
            if not timing:
                stats.data_writes += 1
                return
            cstats.writes += 1
            if sectioned:
                index = ((zone & 7) << 10) | (address & 1023)
                tag = address >> 10
            else:
                index = address & 8191
                tag = address >> 13
            if tags[index] == tag:
                cstats.write_hits += 1
                dirty[index] = True
                stats.data_writes += 1
                return
            cstats.misses += 1
            penalty = 0
            if tags[index] is not None and dirty[index]:
                cstats.write_backs += 1
                penalty += main.write_words(1)
            penalty += main.read_words(1)
            tags[index] = tag
            dirty[index] = True
            _, fault = translate(address, True)
            machine.cycles += penalty + fault
            stats.data_writes += 1

        # Reference-chain walking is the single hottest compound
        # operation (one read per link), so it gets its own closure
        # implementing Machine.deref semantics with the *hit* read
        # inlined per hop.  The inline path commits no counter until
        # every condition has passed; any edge (zone violation, cache
        # miss, uninitialised cell, timing off, zone checking off)
        # leaves all state untouched and re-runs the hop through
        # ``read`` above, which owns those cases.
        type_shift = TAG_TYPE_SHIFT
        zone_shift = TAG_ZONE_SHIFT
        zone_table = ZONE_BY_INDEX
        REF_TYPE = Type.REF
        ref_index = int(REF_TYPE)
        deref_cost = machine.costs.deref_per_link

        def deref(word):
            while True:
                wtag = word.tag
                if (wtag >> type_shift) & 15 != ref_index:
                    return word
                address = word.value
                zone = word.zone
                if zone is None:
                    zone = tag_zone(wtag)   # raises, as the seed would
                cell = None
                if zone_enabled and timing:
                    entry = zone_entry[zone]
                    if (entry is not None and 0 <= address <= address_mask
                            and REF_TYPE in entry.allowed_types
                            and entry.low_bound <= address
                            < entry.high_bound):
                        cell = dwords.get(address)
                if cell is not None:
                    if sectioned:
                        index = ((zone & 7) << 10) | (address & 1023)
                        line = address >> 10
                    else:
                        index = address & 8191
                        line = address >> 13
                    if tags[index] == line:
                        entry.checks += 1
                        cstats.reads += 1
                        cstats.read_hits += 1
                        stats.data_reads += 1
                    else:
                        cell = None         # miss: layered hop below
                if cell is None:
                    cell = read(address, zone, REF_TYPE)
                machine.cycles += deref_cost
                stats.dereference_links += 1
                ctag = cell.tag
                if (ctag >> type_shift) & 15 == ref_index \
                        and cell.value == address:
                    return cell             # unbound variable
                word = cell

        return read, write, deref

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
        through :attr:`code_cache` ``.stats`` — and fall back to the
        full :meth:`code_fetch` path on a miss, so miss/prefetch/MMU
        behaviour and every counter stay bit-identical to the seed
        interpreter, which calls :meth:`code_fetch` for every
        instruction.  The tag list is mutated in place by the cache,
        never rebound, so the reference stays valid across the run.
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
        reproduce cache tags, MMU translations and every statistics
        counter or the resumed run's cycle accounting diverges from the
        uninterrupted run.  Mirrors :meth:`reset_for_reuse`'s inventory
        of state a run dirties.
        """
        data_cache = self.data_cache
        code_cache = self.code_cache
        main = self.main_memory
        mmu = self.mmu
        entries = {(virtual_page, code_space): (entry.status,
                                                entry.physical_page)
                   for code_space in (False, True)
                   for virtual_page, entry
                   in mmu._table(code_space).items()}
        return {
            "data_tags": list(data_cache.tags),
            "data_dirty": list(data_cache.dirty),
            "data_stats": vars(data_cache.stats).copy(),
            "code_tags": list(code_cache.tags),
            "code_stats": vars(code_cache.stats).copy(),
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

        Containers are mutated in place, never rebound — the fused data
        path and the run loop's code probe hold references to
        the tag/dirty lists and the statistics objects.
        """
        self.data_cache.tags[:] = state["data_tags"]
        self.data_cache.dirty[:] = state["data_dirty"]
        for name, value in state["data_stats"].items():
            setattr(self.data_cache.stats, name, value)
        self.code_cache.tags[:] = state["code_tags"]
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
        mutated in place, never rebound — the fused data path and the
        run loop's code probe capture ``store.words``,
        ``data_cache.tags``/``dirty`` and ``code_cache.tags`` by
        reference.
        """
        self.store.words.clear()
        self.store.uninitialised_reads = 0
        self.zones.reset_limits()
        self.data_cache.tags[:] = [None] * DataCache.TOTAL_WORDS
        self.data_cache.dirty[:] = [False] * DataCache.TOTAL_WORDS
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
