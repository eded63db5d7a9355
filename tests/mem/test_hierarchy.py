"""Integration tests for the MESI-coherent memory hierarchy."""

import pytest

from repro.config import SimConfig
from repro.mem.cache import CacheLineState as S
from repro.mem.hierarchy import MemoryHierarchy


@pytest.fixture
def hier():
    return MemoryHierarchy(SimConfig())


def test_cold_read_misses_to_memory(hier):
    r = hier.read(0, 1000)
    assert not r.l1_hit and r.source == "mem"
    # at least L1 detect + directory + L2 + memory latencies
    assert r.latency >= 1 + 6 + 15 + 150


def test_second_read_hits_l1(hier):
    hier.read(0, 1000)
    r = hier.read(0, 1000)
    assert r.l1_hit and r.latency == 1


def test_read_after_remote_read_hits_l2_or_owner(hier):
    hier.read(0, 1000)
    r = hier.read(1, 1000)
    assert r.source in ("l2", "owner")
    assert r.latency < 150


def test_exclusive_then_shared_states(hier):
    hier.read(0, 42)
    assert hier.l1s[0].peek(42).state is S.EXCLUSIVE
    hier.read(1, 42)
    assert hier.l1s[1].peek(42).state is S.SHARED


def test_write_invalidates_sharers(hier):
    hier.read(0, 7)
    hier.read(1, 7)
    hier.write(2, 7)
    assert hier.l1s[0].peek(7) is None
    assert hier.l1s[1].peek(7) is None
    assert hier.l1s[2].peek(7).state is S.MODIFIED
    assert hier.directory.owner_of(7) == 2


def test_write_hit_on_exclusive_is_silent_upgrade(hier):
    hier.read(0, 9)  # E state
    r = hier.write(0, 9)
    assert r.l1_hit and r.latency == 1
    assert hier.l1s[0].peek(9).state is S.MODIFIED
    assert hier.l1s[0].peek(9).dirty


def test_write_upgrade_from_shared_pays_directory(hier):
    hier.read(0, 9)
    hier.read(1, 9)  # both now S
    r = hier.write(0, 9)
    assert r.l1_hit
    assert r.latency > 1  # upgrade round trip
    assert hier.l1s[1].peek(9) is None


def test_read_of_modified_line_forwards_from_owner(hier):
    hier.write(0, 33)
    r = hier.read(1, 33)
    assert r.source == "owner"
    assert hier.l1s[0].peek(33).state is S.SHARED
    assert not hier.l1s[0].peek(33).dirty  # drained to L2
    assert hier.l2.peek(33) is not None


def test_write_miss_steals_line_from_owner(hier):
    hier.write(0, 77)
    hier.write(1, 77)
    assert hier.l1s[0].peek(77) is None
    assert hier.directory.owner_of(77) == 1


def test_dirty_eviction_writes_back(hier):
    cfg = hier.config.l1
    sets = cfg.n_sets
    # fill one set with dirty lines until eviction
    base = 5
    for i in range(cfg.ways + 1):
        hier.write(0, base + i * sets)
    # the LRU victim left the L1 and its dirty data landed in the L2
    assert hier.l1s[0].peek(base) is None
    assert hier.l2.peek(base).dirty


def test_speculative_flag_propagates(hier):
    hier.write(0, 11, speculative=True)
    assert hier.l1s[0].peek(11).speculative


def test_speculative_eviction_reported(hier):
    cfg = hier.config.l1
    sets = cfg.n_sets
    for i in range(cfg.ways):
        hier.write(0, 3 + i * sets, speculative=True)
    r = hier.write(0, 3 + cfg.ways * sets, speculative=True)
    assert r.evicted_speculative  # the set was full of speculative lines


def test_flush_to_l2_only_if_dirty(hier):
    hier.read(0, 55)
    assert hier.flush_to_l2(0, 55) == 0
    hier.write(0, 55)
    lat = hier.flush_to_l2(0, 55)
    assert lat >= hier.config.l2.latency
    assert not hier.l1s[0].peek(55).dirty
    assert hier.l2.peek(55).dirty


def test_drop_speculative_commit_vs_abort(hier):
    hier.write(0, 21, speculative=True)
    kept = hier.drop_speculative(0, invalidate=False)
    assert kept == [21] and hier.l1s[0].peek(21) is not None

    hier.write(0, 22, speculative=True)
    gone = hier.drop_speculative(0, invalidate=True)
    assert gone == [22] and hier.l1s[0].peek(22) is None
    assert 0 not in hier.directory.holders(22)


def test_functional_store_load_roundtrip(hier):
    hier.memory.store(0x100, 1234)
    assert hier.memory.load(0x100) == 1234
    assert hier.memory.load(0x108) == 0


def test_latencies_monotone_l1_l2_mem(hier):
    r_mem = hier.read(0, 500)       # memory fill
    r_l2 = hier.read(1, 500)        # l2/owner
    r_l1 = hier.read(0, 500)        # l1 hit
    assert r_l1.latency < r_l2.latency < r_mem.latency
