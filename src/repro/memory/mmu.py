"""Memory management unit (paper section 3.2.5).

KCM holds the *entire* page table in a dedicated RAM (32K entries of
16 bits: 16K virtual pages for the code space and 16K for the data
space), so translation never walks main memory and needs no TLB — a
luxury a single-task machine can afford.  Each entry packs 5 status
bits and an 11-bit physical page number; pages are 16K words.

Because the caches are logical, the MMU only acts on cache *misses*:
translation is overlapped with the DRAM setup and costs no extra
cycles on the translation itself.  What does cost time is a **page
fault**: the host workstation services paging for KCM (section 2.1),
and the round trip is modelled with a configurable cycle charge.

The model allocates physical pages on demand from the 32 MB board
(2048 physical pages of 16K words each with 1 Mbit parts).

The page-table RAM is modelled *sparsely*: each address space is a dict
holding only the entries a run has mapped, and an absent entry reads as
the power-on zero entry (status 0, physical page 0).  Translation,
faults and every counter behave exactly as with all 32K entries
present, but a new MMU allocates nothing per entry and a reset only
empties two dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.tags import PAGE_SIZE_WORDS, page_number, page_offset
from repro.errors import PageFault, ProtectionFault

# Entry status bits (5 bits per the paper; assignment is ours).
VALID = 1 << 0
WRITABLE = 1 << 1
DIRTY = 1 << 2
REFERENCED = 1 << 3
CODE_SPACE = 1 << 4

#: 16K virtual pages per address space (28-bit word addresses).
VIRTUAL_PAGES = 1 << 14


@dataclass
class PageTableEntry:
    """One 16-bit page-table RAM entry: status bits + physical page."""

    status: int = 0
    physical_page: int = 0

    @property
    def valid(self) -> bool:
        """Whether the translation is usable."""
        return bool(self.status & VALID)


class MMU:
    """Page-table RAM plus on-demand physical allocation.

    ``translate`` is called by the memory system on cache misses; it
    returns ``(physical_address, fault_cycles)`` where ``fault_cycles``
    is zero unless the host had to map the page in.
    """

    def __init__(self, physical_pages: int = 2048,
                 page_fault_cycles: int = 2000,
                 demand_paging: bool = True):
        #: virtual page -> entry, one dict per address space; a page
        #: with no entry reads as the power-on zero entry.
        self.data_table: Dict[int, PageTableEntry] = {}
        self.code_table: Dict[int, PageTableEntry] = {}
        self.physical_pages = physical_pages
        self.page_fault_cycles = page_fault_cycles
        self.demand_paging = demand_paging
        self._demand_paging_default = demand_paging
        self.next_free_page = 0
        self.faults = 0
        self.translations = 0

    # -- host/runtime interface ------------------------------------------------

    def _table(self, code_space: bool) -> Dict[int, PageTableEntry]:
        return self.code_table if code_space else self.data_table

    @staticmethod
    def _check_page(virtual_page: int) -> None:
        """Reject a page number the 16K-entry RAM has no slot for."""
        if not 0 <= virtual_page < VIRTUAL_PAGES:
            raise ValueError(f"virtual page {virtual_page} outside "
                             f"0..{VIRTUAL_PAGES - 1}")

    def map_page(self, virtual_page: int, code_space: bool = False,
                 writable: bool = True,
                 physical_page: Optional[int] = None) -> int:
        """Install a translation; allocates a physical page if needed."""
        self._check_page(virtual_page)
        if physical_page is None:
            if self.next_free_page >= self.physical_pages:
                raise PageFault("out of physical memory (32 MB board full)",
                                virtual_page=virtual_page,
                                code_space=code_space)
            physical_page = self.next_free_page
            self.next_free_page += 1
        status = VALID | (WRITABLE if writable else 0) \
            | (CODE_SPACE if code_space else 0)
        self._table(code_space)[virtual_page] = PageTableEntry(
            status, physical_page)
        return physical_page

    def reset(self) -> None:
        """Return the MMU to its just-constructed state (engine reuse).

        Empties both page tables (every entry reads as zero again),
        zeroes the fault/translation counters, releases every physical
        page and restores the constructor's ``demand_paging`` setting
        (the fault injector flips it while attached).
        """
        self.data_table.clear()
        self.code_table.clear()
        self.next_free_page = 0
        self.faults = 0
        self.translations = 0
        self.demand_paging = self._demand_paging_default

    def unmap_page(self, virtual_page: int, code_space: bool = False) -> None:
        """Invalidate a translation (used when re-zoning a data page into
        the code space after batch compilation, section 3.2.1, and by the
        fault injector to plant transient page faults).  The entry keeps
        its physical page number, with status 0, as the RAM would."""
        self._check_page(virtual_page)
        entry = self._table(code_space).get(virtual_page)
        if entry is not None:
            entry.status = 0

    def resident_pages(self, code_space: bool = False) -> "List[int]":
        """Virtual pages with a valid translation, ascending (used by
        the fault injector to pick an eviction victim and by paging
        diagnostics)."""
        return sorted(vpage for vpage, entry
                      in self._table(code_space).items() if entry.valid)

    def is_mapped(self, virtual_page: int, code_space: bool = False) -> bool:
        """Whether a virtual page currently has a valid translation."""
        self._check_page(virtual_page)
        entry = self._table(code_space).get(virtual_page)
        return entry is not None and entry.valid

    def rezone_data_page_to_code(self, virtual_page: int) -> None:
        """The section 3.2.1 hand-over: invalidate the virtual data page
        and attach its physical page to the code space."""
        if not self.is_mapped(virtual_page):
            raise PageFault(f"data page {virtual_page} not mapped",
                            virtual_page=virtual_page)
        data_entry = self.data_table[virtual_page]
        data_entry.status = 0
        self.map_page(virtual_page, code_space=True, writable=False,
                      physical_page=data_entry.physical_page)

    # -- translation -----------------------------------------------------------

    def translate(self, address: int, is_write: bool,
                  code_space: bool = False) -> "tuple[int, int]":
        """Translate a virtual word address on a cache miss.

        Returns ``(physical_address, extra_cycles)``.  Raises
        :class:`ProtectionFault` on a write to a read-only page and
        :class:`PageFault` when the page is absent and demand paging is
        disabled (or physical memory is exhausted).
        """
        self.translations += 1
        vpage = page_number(address)
        table = self._table(code_space)
        entry = table.get(vpage)
        fault_cycles = 0
        if entry is None or not entry.valid:
            if not self.demand_paging:
                raise PageFault(
                    f"no translation for virtual page {vpage} "
                    f"({'code' if code_space else 'data'} space)",
                    virtual_page=vpage, code_space=code_space)
            self.faults += 1
            self.map_page(vpage, code_space=code_space, writable=True)
            entry = table[vpage]
            fault_cycles = self.page_fault_cycles
        if is_write and not (entry.status & WRITABLE):
            raise ProtectionFault(
                f"write to read-only page {vpage} "
                f"({'code' if code_space else 'data'} space)",
                virtual_page=vpage, code_space=code_space)
        entry.status |= REFERENCED | (DIRTY if is_write else 0)
        physical = entry.physical_page * PAGE_SIZE_WORDS \
            + page_offset(address)
        return physical, fault_cycles
