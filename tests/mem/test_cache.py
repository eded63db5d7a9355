"""Unit tests for the set-associative cache."""

import pytest

from repro.config import CacheConfig
from repro.mem.cache import CacheLineState as S
from repro.mem.cache import SetAssocCache


def small_cache(ways=2, sets=4):
    return SetAssocCache(
        CacheConfig(size_bytes=ways * sets * 64, ways=ways, latency=1)
    )


def test_geometry_from_config():
    c = SetAssocCache(CacheConfig(size_bytes=32 << 10, ways=4, latency=1))
    assert c.n_sets == 128
    assert c.ways == 4


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, ways=3, latency=1)


def test_miss_then_hit():
    c = small_cache()
    assert c.lookup(10) is None
    c.insert(10, S.EXCLUSIVE)
    entry = c.lookup(10)
    assert entry is not None and entry.state is S.EXCLUSIVE


def test_lru_eviction_within_set():
    c = small_cache(ways=2, sets=4)
    # lines 0, 4, 8 all map to set 0
    c.insert(0, S.EXCLUSIVE)
    c.insert(4, S.EXCLUSIVE)
    c.lookup(0)  # make 4 the LRU
    victim = c.insert(8, S.EXCLUSIVE)
    assert victim is not None and victim.line == 4
    assert c.peek(0) is not None and c.peek(8) is not None


def test_speculative_lines_survive_eviction_while_normal_victims_exist():
    c = small_cache(ways=2, sets=1)
    c.insert(0, S.MODIFIED, dirty=True, speculative=True)
    c.insert(1, S.EXCLUSIVE)
    victim = c.insert(2, S.EXCLUSIVE)
    assert victim.line == 1  # the speculative line 0 was pinned
    assert c.peek(0).speculative


def test_speculative_overflow_when_set_is_all_speculative():
    c = small_cache(ways=2, sets=1)
    c.insert(0, S.MODIFIED, speculative=True)
    c.insert(1, S.MODIFIED, speculative=True)
    victim = c.insert(2, S.MODIFIED, speculative=True)
    assert victim is not None and victim.speculative


def test_insert_existing_updates_in_place():
    c = small_cache()
    c.insert(3, S.SHARED)
    assert c.insert(3, S.MODIFIED, dirty=True) is None
    entry = c.peek(3)
    assert entry.state is S.MODIFIED and entry.dirty
    assert c.occupancy == 1


def test_invalidate_removes_line():
    c = small_cache()
    c.insert(7, S.SHARED)
    dropped = c.invalidate(7)
    assert dropped.line == 7
    assert c.lookup(7) is None
    assert c.invalidate(7) is None


def test_clear_speculative_commit_keeps_lines():
    c = small_cache()
    c.insert(1, S.MODIFIED, dirty=True, speculative=True)
    c.insert(2, S.MODIFIED, dirty=True, speculative=False)
    affected = c.clear_speculative(invalidate=False)
    assert affected == [1]
    assert c.peek(1) is not None and not c.peek(1).speculative
    assert c.peek(2) is not None


def test_clear_speculative_abort_invalidates_lines():
    c = small_cache()
    c.insert(1, S.MODIFIED, dirty=True, speculative=True)
    affected = c.clear_speculative(invalidate=True)
    assert affected == [1]
    assert c.peek(1) is None


def test_speculative_lines_listing():
    c = small_cache()
    c.insert(5, S.MODIFIED, speculative=True)
    c.insert(6, S.MODIFIED)
    assert c.speculative_lines() == [5]


def test_eviction_counter():
    c = small_cache(ways=1, sets=1)
    assert c.insert(0, S.EXCLUSIVE) is None
    assert c.insert(1, S.EXCLUSIVE).line == 0
    assert c.insert(2, S.EXCLUSIVE).line == 1
