"""Placement behaviour of the two-level redirect table."""

from repro.config import RedirectConfig
from repro.core.redirect_entry import EntryState, RedirectEntry
from repro.core.redirect_table import RedirectTable


def table(l1=4, l2=8, ways=2, cores=3):
    return RedirectTable(cores, RedirectConfig(
        l1_entries=l1, l2_entries=l2, l2_ways=ways))


def valid(orig):
    return RedirectEntry(orig, orig + 5000, state=EntryState.VALID)


def test_insert_homes_in_l2_and_caches_in_l1():
    t = table()
    t.insert(0, valid(1))
    # visible to every core (L2 home), zero-latency only for core 0
    assert t.lookup(0, 1).level == "l1"
    assert t.lookup(1, 1).level == "l2"
    # and promoted: the second lookup by core 1 is an L1 hit
    assert t.lookup(1, 1).level == "l1"


def test_l1_eviction_does_not_lose_the_entry():
    t = table(l1=2)
    for i in range(5):
        t.insert(0, valid(i))
    for i in range(5):
        assert t.lookup(1, i).entry is not None


def test_memory_swap_back_rehomes_in_l2():
    t = table(l1=1, l2=1, ways=1)
    for i in range(3):
        t.insert(0, valid(i))
    assert t.memory_entries >= 1
    target = next(iter(t._mem))
    assert t.lookup(2, target).level == "mem"
    # after the software swap-in, the entry is back in hardware
    res = t.lookup(1, target)
    assert res.level in ("l1", "l2")


def test_iter_valid_lines_deduplicates():
    t = table()
    t.insert(0, valid(7))
    t.lookup(1, 7)   # cached in core 1's L1 too
    t.lookup(2, 7)
    lines = list(t.iter_valid_lines())
    assert lines.count(7) == 1


def test_iter_valid_lines_skips_transient_and_invalid():
    t = table()
    t.insert(0, valid(1))
    t.insert(0, RedirectEntry(2, 5002, state=EntryState.LOCAL_VALID, owner=0))
    dead = RedirectEntry(3, 5003, state=EntryState.INVALID)
    t.l1_tables[0].put(dead)
    assert set(t.iter_valid_lines()) == {1}


def test_iter_valid_lines_yields_an_overflowed_entry_once():
    t = table(l1=1, l2=1, ways=1, cores=2)
    t.insert(0, valid(0))  # core 0's L1 and the L2 home
    t.insert(1, valid(1))  # the L2 spills 0 to memory; core 0's L1 keeps it
    t.insert(1, valid(2))  # the L2 spills 1 and core 1's L1 drops it
    assert set(t._mem) == {0, 1} and 1 not in t.l1_tables[1]
    assert sorted(t.iter_valid_lines()) == [0, 1, 2]


def test_stats_shape():
    t = table()
    t.insert(0, valid(9))
    t.lookup(0, 9)
    t.lookup(1, 10)
    s = t.stats()
    assert s["l1_hits"] == 1
    assert s["full_misses"] == 1
    assert 0 <= s["l1_miss_rate"] <= 1


# ----------------------------------------------------------------------
# Table III latencies along the L1 -> L2 -> memory spill path
# ----------------------------------------------------------------------
def test_l1_hit_is_zero_latency():
    cfg = RedirectConfig()
    t = RedirectTable(2, cfg)
    t.insert(0, valid(1))
    res = t.lookup(0, 1)
    assert res.level == "l1"
    assert res.latency == cfg.l1_latency == 0


def test_l2_hit_pays_l2_latency():
    cfg = RedirectConfig()
    t = RedirectTable(2, cfg)
    t.insert(0, valid(1))
    res = t.lookup(1, 1)  # core 1 has no L1 copy yet
    assert res.level == "l2"
    assert res.latency == cfg.l1_latency + cfg.l2_latency == 10


def test_mem_hit_pays_memory_plus_software():
    cfg = RedirectConfig(l1_entries=1, l2_entries=1, l2_ways=1)
    t = RedirectTable(3, cfg)
    for i in range(3):
        t.insert(0, valid(i))
    target = next(iter(t._mem))
    res = t.lookup(2, target)
    assert res.level == "mem"
    assert res.latency == (
        cfg.l1_latency + cfg.l2_latency
        + cfg.memory_latency + cfg.software_overhead
    )
    # Table III numbers: 0 + 10 + 150 + 40
    assert res.latency == 200


def test_full_miss_pays_the_probe_but_finds_nothing():
    cfg = RedirectConfig()
    t = RedirectTable(1, cfg)
    res = t.lookup(0, 999)
    assert res.entry is None
    assert res.level == "none"
    assert res.latency == cfg.l1_latency + cfg.l2_latency


# ----------------------------------------------------------------------
# squeeze() — the table_squeeze fault
# ----------------------------------------------------------------------
def test_squeeze_l1_demotes_to_l2():
    t = table(l1=4, cores=1)
    for i in range(4):
        t.insert(0, valid(i))
    before = t.stats()["l1_overflows"]
    demoted, spilled = t.squeeze(l1_entries=2)
    assert demoted == 2 and spilled == 0
    assert len(t.l1_tables[0]) == 2
    assert t.stats()["l1_overflows"] == before + 2
    # no entry lost: all four still resolvable
    for i in range(4):
        assert t.lookup(0, i).entry is not None


def test_squeeze_l2_spills_to_memory():
    t = table(l1=1, l2=8, ways=8, cores=1)
    for i in range(8):
        t.insert(0, valid(i * 8))  # same L2 set (orig % n_sets)
    demoted, spilled = t.squeeze(l2_ways=2)
    assert spilled > 0
    assert t.memory_entries == spilled
    assert t.stats()["l2_overflows"] >= spilled
    for i in range(8):
        assert t.lookup(0, i * 8).entry is not None


def test_squeeze_floors_at_one():
    t = table(l1=4, cores=1)
    t.insert(0, valid(1))
    t.squeeze(l1_entries=0, l2_ways=0)
    assert t.l1_tables[0].capacity == 1
    assert t.l2_table.ways == 1


def test_squeeze_then_growth_uses_new_capacity():
    t = table(l1=4, cores=1)
    t.squeeze(l1_entries=2)
    for i in range(4):
        t.insert(0, valid(i))
    assert len(t.l1_tables[0]) == 2  # new inserts respect the squeeze


# ----------------------------------------------------------------------
# iter_entries — the oracle's full-table walk
# ----------------------------------------------------------------------
def test_iter_entries_covers_all_levels_once():
    t = table(l1=1, l2=1, ways=1, cores=2)
    for i in range(3):
        t.insert(0, valid(i))
    t.lookup(1, 0)  # replicate something into core 1's L1
    entries = list(t.iter_entries())
    assert len(entries) == len({id(e) for e in entries})  # deduplicated
    assert {e.orig_line for e in entries} == {0, 1, 2}    # complete
