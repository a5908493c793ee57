"""Unit tests for the data and code caches (paper section 3.2.4)."""

import pytest

from repro.core.tags import Zone
from repro.memory.cache import CodeCache, DataCache
from repro.memory.main_memory import MainMemory


@pytest.fixture
def memory():
    return MainMemory()


@pytest.fixture
def dcache(memory):
    return DataCache(memory, sectioned=True)


@pytest.fixture
def plain(memory):
    return DataCache(memory, sectioned=False)


class TestDataCacheBasics:
    def test_cold_miss_then_hit(self, dcache):
        penalty = dcache.access(0x40000, Zone.GLOBAL, is_write=False)
        assert penalty > 0
        assert dcache.access(0x40000, Zone.GLOBAL, is_write=False) == 0
        assert dcache.stats.misses == 1
        assert dcache.stats.read_hits == 1

    def test_write_allocates(self, dcache):
        dcache.access(0x40010, Zone.GLOBAL, is_write=True)
        assert dcache.access(0x40010, Zone.GLOBAL, is_write=False) == 0

    def test_copy_back_no_write_traffic_on_hits(self, dcache, memory):
        dcache.access(0x40000, Zone.GLOBAL, is_write=True)
        writes_after_miss = memory.writes
        for _ in range(10):
            dcache.access(0x40000, Zone.GLOBAL, is_write=True)
        # A store-in cache writes memory only on eviction, not per write.
        assert memory.writes == writes_after_miss

    def test_dirty_eviction_writes_back(self, dcache, memory):
        address = 0x40000
        dcache.access(address, Zone.GLOBAL, is_write=True)
        # Same section, same index, different tag: evicts the dirty line.
        conflicting = address + DataCache.TOTAL_WORDS
        before = memory.writes
        dcache.access(conflicting, Zone.GLOBAL, is_write=False)
        assert memory.writes == before + 1
        assert dcache.stats.write_backs == 1

    def test_clean_eviction_no_write_back(self, dcache, memory):
        address = 0x40000
        dcache.access(address, Zone.GLOBAL, is_write=False)
        before = memory.writes
        dcache.access(address + DataCache.TOTAL_WORDS, Zone.GLOBAL,
                      is_write=False)
        assert memory.writes == before

    def test_line_size_is_one_word(self, dcache):
        dcache.access(0x40000, Zone.GLOBAL, is_write=False)
        # The neighbour word is NOT brought in (line/block size one).
        assert not dcache.resident(0x40001, Zone.GLOBAL)

    def test_flush_writes_dirty_lines(self, dcache, memory):
        dcache.access(0x40000, Zone.GLOBAL, is_write=True)
        dcache.access(0x40001, Zone.GLOBAL, is_write=True)
        dcache.flush()
        assert memory.writes >= 2
        assert not dcache.resident(0x40000, Zone.GLOBAL)


class TestZoneSectioning:
    def test_different_zones_never_conflict(self, dcache):
        # Same index modulo 1K, different zones: both stay resident.
        dcache.access(0x40000, Zone.GLOBAL, is_write=False)
        dcache.access(0x180000, Zone.LOCAL, is_write=False)
        assert dcache.resident(0x40000, Zone.GLOBAL)
        assert dcache.resident(0x180000, Zone.LOCAL)

    def test_plain_cache_conflicts_across_stacks(self, plain):
        # 0x40000 and 0x180000 are congruent modulo 8K: they fight.
        plain.access(0x40000, Zone.GLOBAL, is_write=False)
        plain.access(0x180000, Zone.LOCAL, is_write=False)
        assert not plain.resident(0x40000, Zone.GLOBAL)

    def test_section_size_is_1k(self, dcache):
        # Within one zone the section behaves as a 1K direct-mapped
        # cache: +1K conflicts.
        dcache.access(0x40000, Zone.GLOBAL, is_write=False)
        dcache.access(0x40000 + 1024, Zone.GLOBAL, is_write=False)
        assert not dcache.resident(0x40000, Zone.GLOBAL)

    def test_total_size_8k_words(self):
        assert DataCache.TOTAL_WORDS == 8 * 1024
        assert DataCache.SECTIONS == 8


class TestCodeCache:
    def test_prefetch_brings_following_words(self, memory):
        cache = CodeCache(memory, prefetch_words=4)
        cache.fetch(100)
        assert cache.fetch(101) == 0
        assert cache.fetch(102) == 0
        assert cache.fetch(103) == 0
        assert cache.fetch(104) > 0        # beyond the burst

    def test_write_through(self, memory):
        cache = CodeCache(memory)
        before = memory.writes
        cache.write(200)
        assert memory.writes == before + 1
        # And the written word is resident (incremental compilation
        # writes directly into the code cache, section 3.2.1).
        assert cache.fetch(200) == 0

    def test_invalidate(self, memory):
        cache = CodeCache(memory)
        cache.fetch(100)
        cache.invalidate()
        assert cache.fetch(100) > 0

    def test_hit_ratio_statistic(self, memory):
        cache = CodeCache(memory)
        cache.fetch(0)
        for _ in range(9):
            cache.fetch(0)
        assert cache.stats.hit_ratio == pytest.approx(0.9)


def test_fill_log_lists_exactly_the_valid_lines(memory):
    """Each cache logs the lines that go from invalid to valid, once
    each, and a clear empties the log with the lines it names."""
    def valid(cache):
        return [i for i, tag in enumerate(cache.tags) if tag is not None]

    data = DataCache(memory, sectioned=True)
    for address, zone, is_write in [
            (0x40000, Zone.GLOBAL, True),             # cold miss
            (0x40000, Zone.GLOBAL, False),            # hit
            (0x40000 + 1024, Zone.GLOBAL, False),     # dirty conflict
            (0x180000, Zone.LOCAL, True)]:            # other section
        data.access(address, zone, is_write)
    assert data.flush() > 0
    assert data.fills == [] and valid(data) == []
    for address, zone, is_write in [
            (0x40005, Zone.GLOBAL, False),            # cold miss
            (0x40005 + 1024, Zone.GLOBAL, True),      # clean conflict
            (0x40005, Zone.GLOBAL, True),             # dirty conflict
            (0x40005, Zone.GLOBAL, False),            # hit
            (0x180007, Zone.LOCAL, True),             # cold miss
            (0x100003, Zone.CONTROL, False)]:         # cold miss
        data.access(address, zone, is_write)
    assert sorted(data.fills) == valid(data)
    assert len(data.fills) == 3
    data.invalidate()
    assert data.fills == [] and valid(data) == []
    assert set(data.dirty) == {False}

    code = CodeCache(memory, prefetch_words=4)
    code.fetch(100)                                   # burst 100..103
    code.fetch(102)                                   # hit
    code.fetch(102 + CodeCache.TOTAL_WORDS)           # conflicts 102..105
    code.write(5000)                                  # write-through fill
    code.write(100)                                   # already valid
    assert sorted(code.fills) == valid(code) == [100, 101, 102, 103,
                                                 104, 105, 5000]
    code.invalidate()
    assert code.fills == [] and valid(code) == []
