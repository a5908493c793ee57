"""The two logical caches (paper section 3.2.4).

Both caches operate on virtual addresses (logical caches — no address
translation on hits, flushing is a non-issue on a single-task machine).

Data cache
    8K x 64 bits, direct mapped, line size one, *copy-back* (store-in):
    Prolog's read:write ratio of about 1:1 makes write-through
    wasteful.  The KCM twist: the cache is split into 8 sections of
    1K words each, selected by the **zone field of the address word**,
    so different stacks can never evict each other even when their
    top-of-stack pointers are congruent modulo the cache size.
    ``sectioned=False`` gives the plain direct-mapped variant used as
    the baseline in the section 3.2.4 collision experiment.

Code cache
    8K x 64 bits, direct mapped, line size one, *write-through* (code
    is almost never written), with page-mode prefetch of a few words
    ahead on a miss.

Both are timing models over the functional store: they track which
addresses would be resident and charge miss/write-back cycles, while
word contents live in :class:`repro.memory.store.DataStore`.

Fill log
    Each cache keeps ``fills``, the index of every line that went from
    invalid (tag ``None``) to valid since the last clear.  Invariant:
    the log names exactly the valid lines, so it is the one record of
    what a cache holds.  A clear (``invalidate``, ``DataCache.flush``,
    the engine-reuse reset) visits the lines a run touched rather than
    all 8K, and a checkpoint (:meth:`DataCache.lines`,
    :meth:`CodeCache.lines`) holds only those lines.  Every writer of a
    cache's tags logs the fills it makes: the methods below and the
    fast path's single-frame miss and code fetch
    (:meth:`repro.core.machine.Machine._fused_paths`), which capture
    ``fills.append``; so, like the tag lists, the log is mutated in
    place and never rebound.  A checkpoint restore (``replay``) clears
    a cache through its log, then writes the captured lines back and
    logs each one.  A line cleared by hand may stay in the log, which
    only costs its clear; ``lines`` skips it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tags import Zone
from repro.memory.main_memory import MainMemory


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    write_hits: int = 0
    misses: int = 0
    write_backs: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        """Total hits."""
        return self.read_hits + self.write_hits

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses (1.0 when idle, so cold tests read sanely)."""
        total = self.accesses
        return (self.hits / total) if total else 1.0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = self.writes = 0
        self.read_hits = self.write_hits = 0
        self.misses = self.write_backs = 0


class DataCache:
    """The zone-sectioned, direct-mapped, copy-back data cache.

    ``access`` returns the cycle *penalty* beyond the single base cycle
    every data access costs (80 ns hit time): 0 on a hit, a main-memory
    fetch on a miss, plus a write-back when the evicted line is dirty.
    """

    #: Total size in words (8K) and number of zone-selected sections.
    TOTAL_WORDS = 8 * 1024
    SECTIONS = 8

    def __init__(self, memory: MainMemory, sectioned: bool = True):
        self.memory = memory
        self.sectioned = sectioned
        self.section_words = self.TOTAL_WORDS // self.SECTIONS  # 1K
        # One flat array of line tags and dirty flags; index layout is
        # section*1K + (address mod 1K) when sectioned, address mod 8K
        # when plain.  Tag None == invalid line.
        self.tags = [None] * self.TOTAL_WORDS
        self.dirty = [False] * self.TOTAL_WORDS
        #: lines filled since the last clear (module docstring).
        self.fills: "list[int]" = []
        self.stats = CacheStats()

    def _index_and_tag(self, address: int, zone: Zone) -> "tuple[int, int]":
        if self.sectioned:
            section = int(zone) & (self.SECTIONS - 1)
            index = section * self.section_words \
                + (address & (self.section_words - 1))
            tag = address >> 10
        else:
            index = address & (self.TOTAL_WORDS - 1)
            tag = address >> 13
        return index, tag

    def access(self, address: int, zone: Zone, is_write: bool) -> int:
        """One word access; returns penalty cycles beyond the base cycle."""
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        index, tag = self._index_and_tag(address, zone)
        if self.tags[index] == tag:
            if is_write:
                stats.write_hits += 1
                self.dirty[index] = True
            else:
                stats.read_hits += 1
            return 0
        # Miss: write back the victim if dirty, then allocate the line.
        penalty = 0
        stats.misses += 1
        if self.tags[index] is None:
            self.fills.append(index)
        elif self.dirty[index]:
            stats.write_backs += 1
            penalty += self.memory.write_words(1)
        # Copy-back caches allocate on both read and write misses.
        penalty += self.memory.read_words(1)
        self.tags[index] = tag
        self.dirty[index] = is_write
        return penalty

    def flush(self) -> int:
        """Write back all dirty lines and invalidate; returns cycles.
        (Used by the runtime when re-zoning pages, section 3.2.1.)
        Visits only the logged lines."""
        cycles = 0
        tags = self.tags
        dirty = self.dirty
        for i in self.fills:
            if tags[i] is not None and dirty[i]:
                cycles += self.memory.write_words(1)
                self.stats.write_backs += 1
        self.invalidate()
        return cycles

    def invalidate(self) -> None:
        """Invalidate the logged lines without writing back (the
        engine-reuse reset, which zeroes the statistics anyway)."""
        tags = self.tags
        dirty = self.dirty
        for i in self.fills:
            tags[i] = None
            dirty[i] = False
        self.fills.clear()

    def lines(self) -> "dict[int, tuple[int, bool]]":
        """The valid lines, read from the log: index -> (tag, dirty)."""
        tags = self.tags
        dirty = self.dirty
        return {i: (tags[i], dirty[i]) for i in self.fills
                if tags[i] is not None}

    def replay(self, lines: "dict[int, tuple[int, bool]]") -> None:
        """Hold exactly ``lines`` (a :meth:`lines` record): invalidate,
        then fill each line and log it (a checkpoint restore)."""
        self.invalidate()
        tags = self.tags
        dirty = self.dirty
        for i, (tag, is_dirty) in lines.items():
            tags[i] = tag
            dirty[i] = is_dirty
        self.fills.extend(lines)

    def resident(self, address: int, zone: Zone) -> bool:
        """Whether ``address`` currently hits (inspection for tests)."""
        index, tag = self._index_and_tag(address, zone)
        return self.tags[index] == tag


class CodeCache:
    """The 8K-word write-through code cache with page-mode prefetch.

    On a read miss the controller fetches ``prefetch_words`` consecutive
    words using the memory's page mode ("fetching a few words ahead when
    a miss occurs"), so straight-line code pays one miss per burst.

    Writes go straight through to memory *and* update the cache —
    incrementally generated code is written directly to the code cache
    (section 3.2.1).
    """

    TOTAL_WORDS = 8 * 1024

    def __init__(self, memory: MainMemory, prefetch_words: int = 4):
        self.memory = memory
        self.prefetch_words = prefetch_words
        self.tags = [None] * self.TOTAL_WORDS
        #: lines filled since the last clear (module docstring).
        self.fills: "list[int]" = []
        self.stats = CacheStats()

    def fetch(self, address: int) -> int:
        """Instruction fetch; returns penalty cycles beyond the base
        80 ns read."""
        stats = self.stats
        stats.reads += 1
        tags = self.tags
        index = address & (self.TOTAL_WORDS - 1)
        tag = address >> 13
        if tags[index] == tag:
            stats.read_hits += 1
            return 0
        stats.misses += 1
        penalty = self.memory.read_words(self.prefetch_words)
        # Install the prefetched burst.
        for i in range(self.prefetch_words):
            a = address + i
            index = a & (self.TOTAL_WORDS - 1)
            if tags[index] is None:
                self.fills.append(index)
            tags[index] = a >> 13
        return penalty

    def write(self, address: int) -> int:
        """Code-space write (incremental compilation); write-through."""
        self.stats.writes += 1
        index = address & (self.TOTAL_WORDS - 1)
        if self.tags[index] is None:
            self.fills.append(index)
        self.tags[index] = address >> 13
        self.stats.write_hits += 1
        return self.memory.write_words(1)

    def invalidate(self) -> None:
        """Invalidate the whole cache (batch code generation hand-over,
        section 3.2.1, and the engine-reuse reset) through the log.  In
        place: the run loop's inlined hit probe
        (:meth:`MemorySystem.code_probe_state`) holds a reference to
        the tag list."""
        tags = self.tags
        for i in self.fills:
            tags[i] = None
        self.fills.clear()

    def lines(self) -> "dict[int, int]":
        """The valid lines, read from the log: index -> tag."""
        tags = self.tags
        return {i: tags[i] for i in self.fills if tags[i] is not None}

    def replay(self, lines: "dict[int, int]") -> None:
        """Hold exactly ``lines`` (a :meth:`lines` record): invalidate,
        then fill each line and log it (a checkpoint restore)."""
        self.invalidate()
        tags = self.tags
        for i, tag in lines.items():
            tags[i] = tag
        self.fills.extend(lines)
