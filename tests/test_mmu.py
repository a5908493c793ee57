"""Unit tests for the MMU and page-table RAM (paper section 3.2.5)."""

import pytest

from repro.core.tags import PAGE_SIZE_WORDS
from repro.errors import PageFault, ProtectionFault
from repro.memory.mmu import MMU, VIRTUAL_PAGES


class TestTranslation:
    def test_demand_mapping_charges_fault_cycles(self):
        mmu = MMU(page_fault_cycles=2000)
        physical, cycles = mmu.translate(0, is_write=False)
        assert cycles == 2000
        assert mmu.faults == 1

    def test_second_access_is_free(self):
        mmu = MMU(page_fault_cycles=2000)
        mmu.translate(0, is_write=False)
        _, cycles = mmu.translate(5, is_write=False)
        assert cycles == 0

    def test_translation_preserves_offset(self):
        mmu = MMU()
        page = mmu.map_page(3)
        physical, _ = mmu.translate(3 * PAGE_SIZE_WORDS + 77,
                                    is_write=False)
        assert physical == page * PAGE_SIZE_WORDS + 77

    def test_no_demand_paging_faults(self):
        mmu = MMU(demand_paging=False)
        with pytest.raises(PageFault):
            mmu.translate(0, is_write=False)

    def test_separate_code_and_data_spaces(self):
        mmu = MMU()
        data_page = mmu.map_page(0, code_space=False)
        code_page = mmu.map_page(0, code_space=True)
        assert data_page != code_page
        d, _ = mmu.translate(0, is_write=False, code_space=False)
        c, _ = mmu.translate(0, is_write=False, code_space=True)
        assert d != c

    def test_page_table_has_16k_entries_per_space(self):
        # The RAM is modelled sparsely, so the size shows in which page
        # numbers it accepts, not in a container length.
        assert VIRTUAL_PAGES == 1 << 14
        mmu = MMU()
        for code_space in (False, True):
            for vpage in (0, VIRTUAL_PAGES - 1):
                mmu.map_page(vpage, code_space=code_space)
                assert mmu.is_mapped(vpage, code_space=code_space)
        mapped = mmu.next_free_page
        assert mapped == 4
        for code_space in (False, True):
            for vpage in (-1, VIRTUAL_PAGES):
                with pytest.raises(ValueError):
                    mmu.map_page(vpage, code_space=code_space)
                assert mmu.next_free_page == mapped
        assert mmu.resident_pages() == [0, VIRTUAL_PAGES - 1]
        assert mmu.resident_pages(code_space=True) == [0, VIRTUAL_PAGES - 1]

    def test_out_of_range_page_rejected_before_any_change(self):
        mmu = MMU()
        mmu.map_page(VIRTUAL_PAGES - 1)
        before = (dict(mmu.data_table), dict(mmu.code_table),
                  mmu.next_free_page)
        for vpage in (-1, VIRTUAL_PAGES):
            for call in (lambda: mmu.unmap_page(vpage),
                         lambda: mmu.unmap_page(vpage, code_space=True),
                         lambda: mmu.is_mapped(vpage),
                         lambda: mmu.rezone_data_page_to_code(vpage)):
                with pytest.raises(ValueError):
                    call()
        assert (mmu.data_table, mmu.code_table, mmu.next_free_page) \
            == before
        # -1 used to alias page 16383; it must not have touched it.
        assert mmu.data_table[VIRTUAL_PAGES - 1].valid

    def test_absent_and_cleared_entries_read_as_zero(self):
        mmu = MMU(page_fault_cycles=2000, demand_paging=False)
        mmu.map_page(1)
        mmu.unmap_page(1)
        mmu.unmap_page(2)          # never mapped: nothing to clear
        assert mmu.data_table[1].status == 0
        assert 2 not in mmu.data_table
        for vpage in (1, 2):
            assert not mmu.is_mapped(vpage)
            with pytest.raises(PageFault):
                mmu.translate(vpage * PAGE_SIZE_WORDS, is_write=False)
        assert mmu.resident_pages() == []


class TestProtection:
    def test_write_to_read_only_page(self):
        mmu = MMU()
        mmu.map_page(1, writable=False)
        mmu.translate(PAGE_SIZE_WORDS, is_write=False)
        with pytest.raises(ProtectionFault):
            mmu.translate(PAGE_SIZE_WORDS, is_write=True)

    def test_status_bits_tracked(self):
        mmu = MMU()
        mmu.map_page(0)
        mmu.translate(0, is_write=True)
        entry = mmu.data_table[0]
        from repro.memory.mmu import DIRTY, REFERENCED
        assert entry.status & DIRTY
        assert entry.status & REFERENCED


class TestRezoning:
    def test_data_page_moves_to_code_space(self):
        """The section 3.2.1 batch-compilation hand-over."""
        mmu = MMU()
        physical = mmu.map_page(2, code_space=False)
        mmu.rezone_data_page_to_code(2)
        assert not mmu.data_table[2].valid
        entry = mmu.code_table[2]
        assert entry.valid
        assert entry.physical_page == physical
        # The re-zoned page is read-only code.
        with pytest.raises(ProtectionFault):
            mmu.translate(2 * PAGE_SIZE_WORDS, is_write=True,
                          code_space=True)

    def test_rezone_unmapped_page_fails(self):
        with pytest.raises(PageFault):
            MMU().rezone_data_page_to_code(9)


class TestCapacity:
    def test_out_of_physical_memory(self):
        mmu = MMU(physical_pages=2)
        mmu.map_page(0)
        mmu.map_page(1)
        with pytest.raises(PageFault):
            mmu.map_page(2)
