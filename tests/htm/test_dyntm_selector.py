"""Unit tests for DynTM's history-based mode selector (adaptive detection)."""

from repro.config import AdaptiveConfig, SimConfig
from repro.htm.policy import AdaptiveCD
from repro.htm.transaction import TxFrame
from repro.htm.vm import AdaptiveVM, make_version_manager
from repro.mem.hierarchy import MemoryHierarchy


def make_selector(**dyntm_kw):
    cfg = AdaptiveConfig(**dyntm_kw)
    return AdaptiveCD(cfg.counter_bits, cfg.lazy_threshold)


def make_dyntm(scheme="dyntm"):
    cfg = SimConfig(n_cores=4)
    return make_version_manager(scheme, cfg, MemoryHierarchy(cfg))


def frame_for(site, mode):
    f = TxFrame.create(site, lambda: iter(()), 0, 0, 0, SimConfig().signature)
    f.mode = mode
    return f


def test_starts_eager():
    assert make_selector().mode_for(site=1) == "eager"
    vm = make_dyntm()
    assert isinstance(vm, AdaptiveVM)
    assert vm.mode_for(0, site=1) == "eager"


def test_eager_aborts_drift_to_lazy():
    cd = make_selector()
    f = frame_for(1, "eager")
    cd.note_outcome(f, committed=False)
    assert cd.mode_for(1) == "eager"   # counter 1 < threshold 2
    cd.note_outcome(f, committed=False)
    assert cd.mode_for(1) == "lazy"


def test_counter_saturates():
    cd = make_selector(counter_bits=2)
    f = frame_for(1, "eager")
    for _ in range(10):
        cd.note_outcome(f, committed=False)
    assert cd._counters[1] == 3


def test_lazy_overflow_forces_eager():
    cd = make_selector()
    cd._counters[1] = 3
    f = frame_for(1, "lazy")
    f.vm["must_abort"] = "overflow"
    cd.note_outcome(f, committed=False)
    assert cd._counters[1] == 0
    assert cd.mode_for(1) == "eager"


def test_heavy_lazy_commit_drifts_back():
    cd = make_selector()
    cd._counters[1] = 3
    f = frame_for(1, "lazy")
    f.vm["spec_lines"] = set(range(100))
    cd.note_outcome(f, committed=True)
    assert cd._counters[1] == 2          # still lazy, but drifting


def test_sites_are_independent():
    # through the wrapper: its outcome feedback reaches the selector
    vm = make_dyntm()
    f1 = frame_for(1, "eager")
    vm.note_outcome(0, f1, committed=False)
    vm.note_outcome(0, f1, committed=False)
    assert vm.mode_for(0, 1) == "lazy"
    assert vm.mode_for(0, 2) == "eager"


def test_eager_commit_keeps_mode():
    cd = make_selector()
    f = frame_for(1, "eager")
    cd.note_outcome(f, committed=True)
    assert cd.mode_for(1) == "eager"


def test_suv_variant_shares_version_clock():
    vm = make_dyntm("dyntm+suv")
    assert vm.line_versions is vm.lazy.line_versions
    assert vm.lazy.publish_by_redirect
    assert not make_dyntm("dyntm").lazy.publish_by_redirect
