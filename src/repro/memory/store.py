"""The functional backing store for the data address space.

The timing side of the memory system (caches, MMU, DRAM) is modelled
separately; this store is where word *contents* actually live, which
keeps functional correctness decoupled from timing experiments — the
standard split in architecture simulators (see DESIGN.md, substitution
note 2).

Uninitialised reads return a distinctive zero integer word rather than
raising, matching hardware (RAM has *some* contents), but the store
counts them so tests can assert none happened on correct programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.word import Word, ZERO_WORD
from repro.memory.layout import DATA_SPACE_WORDS


class DataStore:
    """A flat word-addressed array over the 4 M-word data space.

    Backed by chunked lists allocated on demand so a freshly created
    machine does not pay for 4 M Python slots.

    When ``track_dirty`` is on, every write records its chunk key in
    ``dirty_chunks`` so an incremental checkpoint
    (:class:`repro.core.traps.MachineCheckpoint`) can copy only the
    chunks touched since the previous capture.  Off by default: the
    flag test is the only cost, and the serving layer arms it solely
    for checkpointed runs.
    """

    #: Chunk geometry, the one place it is spelled: ``address >>
    #: CHUNK_SHIFT`` keys an address's chunk and ``address &
    #: CHUNK_MASK`` is its slot.  The fused data and control paths bind
    #: these as closure locals and generated superop code bakes them in.
    CHUNK_SHIFT = 16
    CHUNK_WORDS = 1 << CHUNK_SHIFT  # 64K words per chunk
    CHUNK_MASK = CHUNK_WORDS - 1

    def __init__(self, size: int = DATA_SPACE_WORDS):
        self.size = size
        self._chunks: Dict[int, List[Optional[Word]]] = {}
        self.uninitialised_reads = 0
        self.track_dirty = False
        self.dirty_chunks: Set[int] = set()

    def read(self, address: int) -> Word:
        """Fetch the word at ``address``."""
        chunk = self._chunks.get(address >> self.CHUNK_SHIFT)
        word = None if chunk is None else chunk[address & self.CHUNK_MASK]
        if word is None:
            self.uninitialised_reads += 1
            return ZERO_WORD
        return word

    def write(self, address: int, word: Word) -> None:
        """Store ``word`` at ``address``."""
        key = address >> self.CHUNK_SHIFT
        chunk = self._chunks.get(key)
        if chunk is None:
            if not 0 <= address < self.size:
                raise IndexError(f"address {address:#x} outside data space")
            chunk = [None] * self.CHUNK_WORDS
            self._chunks[key] = chunk
        if self.track_dirty:
            self.dirty_chunks.add(key)
        chunk[address & self.CHUNK_MASK] = word

    def peek(self, address: int) -> Optional[Word]:
        """Raw cell contents, ``None`` when never written.

        Unlike :meth:`read` this does not count an uninitialised read:
        it is for host-side bookkeeping (the trap replay's write-undo
        log), not simulated accesses.
        """
        chunk = self._chunks.get(address >> self.CHUNK_SHIFT)
        return None if chunk is None else chunk[address & self.CHUNK_MASK]

    def poke(self, address: int, word: Optional[Word]) -> None:
        """Raw overwrite; ``None`` restores the never-written state.

        Host-side counterpart of :meth:`peek` — no zone checks, no
        cycle accounting.
        """
        key = address >> self.CHUNK_SHIFT
        chunk = self._chunks.get(key)
        if chunk is None:
            if word is None:
                return
            if not 0 <= address < self.size:
                raise IndexError(f"address {address:#x} outside data space")
            chunk = [None] * self.CHUNK_WORDS
            self._chunks[key] = chunk
        if self.track_dirty:
            self.dirty_chunks.add(key)
        chunk[address & self.CHUNK_MASK] = word

    def initialised(self, address: int) -> bool:
        """Whether ``address`` has been written (test inspection)."""
        chunk = self._chunks.get(address >> self.CHUNK_SHIFT)
        return (chunk is not None
                and chunk[address & self.CHUNK_MASK] is not None)
