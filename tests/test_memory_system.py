"""Integration tests: store + zones + caches + MMU + main memory."""

import pytest

from repro.core.tags import PAGE_SIZE_WORDS, Type, Zone
from repro.core.word import ZERO_WORD, make_int
from repro.errors import ZoneTrap
from repro.memory.layout import (
    DATA_SPACE_WORDS, DEFAULT_LAYOUT, Region, initial_stack_pointer,
    validate_layout,
)
from repro.memory.main_memory import MainMemory, MemoryTiming
from repro.memory.memory_system import MemorySystem
from repro.memory.store import DataStore

GLOBAL_BASE = DEFAULT_LAYOUT[Zone.GLOBAL].base


class TestDataStore:
    def test_read_back_what_was_written(self):
        store = DataStore()
        store.write(GLOBAL_BASE, make_int(7))
        assert store.read(GLOBAL_BASE) == make_int(7)

    def test_uninitialised_reads_are_counted(self):
        store = DataStore()
        assert store.read(12345) == ZERO_WORD
        assert store.uninitialised_reads == 1

    def test_out_of_space_write_rejected(self):
        store = DataStore()
        with pytest.raises(IndexError):
            store.write(DATA_SPACE_WORDS + 1, make_int(1))

    def test_initialised_flag(self):
        store = DataStore()
        assert not store.initialised(GLOBAL_BASE)
        store.write(GLOBAL_BASE, make_int(1))
        assert store.initialised(GLOBAL_BASE)
        store.poke(GLOBAL_BASE, None)
        assert not store.initialised(GLOBAL_BASE)


class TestMemoryTiming:
    def test_one_word_needs_two_bus_halves(self):
        timing = MemoryTiming(first_access_cycles=3, page_mode_cycles=2)
        assert timing.word_cycles(1) == 3 + 2

    def test_burst_uses_page_mode(self):
        timing = MemoryTiming(first_access_cycles=3, page_mode_cycles=2)
        assert timing.word_cycles(4) == 3 + 7 * 2

    def test_traffic_counters(self):
        memory = MainMemory()
        memory.read_words(2)
        memory.write_words(1)
        assert memory.words_read == 2
        assert memory.words_written == 1
        memory.reset_statistics()
        assert memory.words_read == 0


class TestLayout:
    def test_default_layout_is_valid(self):
        validate_layout(DEFAULT_LAYOUT)

    def test_overlap_rejected(self):
        bad = dict(DEFAULT_LAYOUT)
        bad[Zone.LOCAL] = Region(Zone.LOCAL,
                                 DEFAULT_LAYOUT[Zone.GLOBAL].base, 0x4000)
        with pytest.raises(ValueError):
            validate_layout(bad)

    def test_misaligned_base_rejected(self):
        bad = dict(DEFAULT_LAYOUT)
        bad[Zone.SYSTEM] = Region(Zone.SYSTEM, 0x380001, 0x1000)
        with pytest.raises(ValueError):
            validate_layout(bad)

    def test_staggered_pointers_differ_modulo_cache_section(self):
        offsets = set()
        for zone in (Zone.GLOBAL, Zone.LOCAL, Zone.CONTROL, Zone.TRAIL):
            pointer = initial_stack_pointer(DEFAULT_LAYOUT[zone],
                                            staggered=True)
            offsets.add(pointer % 1024)
        assert len(offsets) == 4

    def test_colliding_pointers_share_cache_index(self):
        offsets = set()
        for zone in (Zone.GLOBAL, Zone.LOCAL, Zone.CONTROL, Zone.TRAIL):
            pointer = initial_stack_pointer(DEFAULT_LAYOUT[zone],
                                            staggered=False)
            offsets.add(pointer % 1024)
        assert offsets == {0}


class TestMemorySystem:
    def test_read_write_roundtrip_with_cycles(self):
        system = MemorySystem()
        cycles = system.data_write(GLOBAL_BASE, make_int(3), Zone.GLOBAL)
        assert cycles >= 1
        word, cycles = system.data_read(GLOBAL_BASE, Zone.GLOBAL)
        assert word == make_int(3)
        assert cycles == 1            # hit after the write allocation

    def test_zone_check_guards_the_data_path(self):
        system = MemorySystem()
        with pytest.raises(ZoneTrap):
            system.data_read(GLOBAL_BASE, Zone.GLOBAL, Type.FLOAT)

    def test_timing_disabled_mode(self):
        system = MemorySystem(timing_enabled=False)
        assert system.data_write(GLOBAL_BASE, make_int(1),
                                 Zone.GLOBAL) == 1
        assert system.code_fetch(0) == 0

    def test_code_fetch_miss_then_hits(self):
        system = MemorySystem()
        assert system.code_fetch(10) > 0
        assert system.code_fetch(10) == 0

    def test_statistics_snapshot(self):
        system = MemorySystem()
        system.data_write(GLOBAL_BASE, make_int(1), Zone.GLOBAL)
        stats = system.statistics()
        assert stats["data_accesses"] == 1
        system.reset_statistics()
        assert system.statistics()["data_accesses"] == 0

    def test_page_fault_cycles_surface_in_penalty(self):
        system = MemorySystem(page_fault_cycles=500)
        word_cycles = system.data_write(GLOBAL_BASE, make_int(1),
                                        Zone.GLOBAL)
        assert word_cycles > 500      # cold miss + host paging round trip


class TestSparsePageTableCheckpoint:
    def test_timing_state_round_trips_absent_and_cleared_entries(self):
        """Absent entries (never mapped) and cleared ones (unmapped or
        re-zoned: their status-0 entries stay) must both behave like
        the zero entry of an eagerly built page-table RAM, through a
        timing-state capture and a restore onto a fresh hierarchy."""
        page = PAGE_SIZE_WORDS
        source = MemorySystem(page_fault_cycles=2000)
        mmu = source.mmu
        for vpage in (1, 2, 3):
            mmu.map_page(vpage)
        mmu.translate(2 * page + 5, is_write=True)   # REFERENCED | DIRTY
        mmu.unmap_page(1)
        mmu.rezone_data_page_to_code(3)
        assert mmu.data_table[1].status == 0
        assert mmu.data_table[3].status == 0
        snapshot = source.timing_state()

        target = MemorySystem(page_fault_cycles=2000)
        target.restore_timing_state(snapshot)
        assert target.timing_state() == snapshot

        probes = [
            (1 * page + 7, False, False),    # cleared by unmap: faults
            (2 * page, True, False),         # still valid
            (3 * page, False, False),        # cleared by the re-zone
            (3 * page + 1, False, True),     # re-zoned into code space
            (5 * page, False, False),        # absent: faults
            (5 * page, False, True),         # absent in code space
        ]
        for address, is_write, code_space in probes:
            assert target.mmu.translate(address, is_write, code_space) \
                == source.mmu.translate(address, is_write, code_space)
        assert target.mmu.faults == source.mmu.faults == 4
        assert target.timing_state() == source.timing_state()
