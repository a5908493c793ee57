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

from typing import Dict, Optional

from repro.core.word import Word, ZERO_WORD
from repro.memory.layout import DATA_SPACE_WORDS


class DataStore:
    """A word-addressed store over the 4 M-word data space.

    Only written cells exist: ``words`` maps an address to its
    :class:`Word`, and an absent address is a never-written cell.  A
    fresh or reset store is an empty dict, and a checkpoint copies
    exactly the cells a run wrote (tens to a few thousand on the
    corpus, against the 4 M addressable).

    The fused data and control paths and generated superop code bind
    ``words`` directly, so it is mutated in place and never rebound.
    Their inlined stores test ``0 <= address < size`` themselves and
    leave every other address to :meth:`write`, which raises.
    """

    def __init__(self, size: int = DATA_SPACE_WORDS):
        self.size = size
        self.words: Dict[int, Word] = {}
        self.uninitialised_reads = 0

    def read(self, address: int) -> Word:
        """Fetch the word at ``address``."""
        word = self.words.get(address)
        if word is None:
            self.uninitialised_reads += 1
            return ZERO_WORD
        return word

    def write(self, address: int, word: Word) -> None:
        """Store ``word`` at ``address``."""
        if not 0 <= address < self.size:
            raise IndexError(f"address {address:#x} outside data space")
        self.words[address] = word

    def peek(self, address: int) -> Optional[Word]:
        """Raw cell contents, ``None`` when never written.

        Unlike :meth:`read` this does not count an uninitialised read:
        it is for host-side bookkeeping (the trap replay's write-undo
        log), not simulated accesses.
        """
        return self.words.get(address)

    def poke(self, address: int, word: Optional[Word]) -> None:
        """Raw overwrite; ``None`` restores the never-written state.

        Host-side counterpart of :meth:`peek` — no zone checks, no
        cycle accounting.
        """
        if word is None:
            self.words.pop(address, None)
        else:
            self.write(address, word)

    def initialised(self, address: int) -> bool:
        """Whether ``address`` has been written (test inspection)."""
        return address in self.words
