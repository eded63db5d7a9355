"""Unit tests for the version-management schemes' cost behaviours."""

import pytest

from repro.config import RedirectConfig, SimConfig
from repro.core.redirect_entry import EntryState
from repro.htm.ops import Read, Tx, Work, Write
from repro.htm.vm import make_version_manager
from repro.htm.vm.suv import SUV
from repro.mem.hierarchy import MemoryHierarchy
from repro.simulator import Simulator


def cfg(**kw):
    return SimConfig(n_cores=4, **kw)


def run(threads, scheme, config=None, seed=11):
    return Simulator(config or cfg(), scheme=scheme, seed=seed).run(threads)


def writer_thread(base, n_lines, value=7, rounds=1):
    def thread():
        def body():
            for i in range(n_lines):
                yield Write(base + i * 64, value)
        for _ in range(rounds):
            yield Tx(body)
    return thread


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

def test_factory_known_schemes():
    c = cfg()
    h = MemoryHierarchy(c)
    for name in ["logtm-se", "fastm", "suv", "lazy", "dyntm", "dyntm+suv"]:
        vm = make_version_manager(name, c, h)
        assert vm is not None


def test_factory_rejects_unknown():
    c = cfg()
    with pytest.raises(ValueError):
        make_version_manager("nope", c, MemoryHierarchy(c))


def test_dyntm_names_reflect_eager_vm():
    c = cfg()
    h = MemoryHierarchy(c)
    assert make_version_manager("dyntm", c, h).name == "dyntm+fastm"
    assert make_version_manager("dyntm+suv", c, h).name == "dyntm+suv"


# ---------------------------------------------------------------------------
# LogTM-SE
# ---------------------------------------------------------------------------

def test_logtm_logs_once_per_line():
    sim = Simulator(cfg(), scheme="logtm-se")

    def thread():
        def body():
            yield Write(0x1000, 1)
            yield Write(0x1008, 2)   # same 64B line: no second log record
            yield Write(0x2000, 3)
        yield Tx(body)

    sim.run([thread])
    assert sim.scheme.stats.log_writes == 2
    assert sim.scheme.stats.first_writes == 2
    assert sim.scheme.stats.tx_writes == 3


def test_logtm_abort_restores_per_line():
    sim = Simulator(cfg(), scheme="undo+eager+abort_requester")
    a = 0x9000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    def victim():
        def body():
            for i in range(10):
                yield Write(0x20000 + i * 64, 5)
            yield Write(a, 2)  # conflicts → aborts self
        yield Work(100)
        yield Tx(body)

    res = sim.run([holder, victim])
    assert sim.scheme.stats.log_restores >= 10
    assert res.breakdown.cycles["Aborting"] >= sim.config.htm.abort_trap_cycles


# ---------------------------------------------------------------------------
# FasTM
# ---------------------------------------------------------------------------

def test_fastm_flushes_dirty_line_before_first_tx_store():
    sim = Simulator(cfg(), scheme="fastm")

    def thread():
        yield Write(0x1000, 9)   # non-tx store leaves the line dirty in L1

        def body():
            yield Write(0x1000, 10)
        yield Tx(body)

    sim.run([thread])
    assert sim.scheme.stats.extra["writeback_flushes"] == 1


def test_fastm_overflow_degenerates_to_logging():
    # L1 = 32KB 4-way = 128 sets; write 5 lines into the same set
    sim = Simulator(cfg(), scheme="fastm")
    sets = sim.config.l1.n_sets
    base = 0x40000

    def thread():
        def body():
            for i in range(6):
                yield Write(base + i * sets * 64, i)
        yield Tx(body)

    sim.run([thread])
    assert sim.scheme.stats.cache_overflows >= 1
    assert sim.scheme.stats.log_writes >= 1
    assert sim.scheme.stats.overflowed_txs == 1


def test_fastm_fast_abort_without_overflow_is_constant():
    sim = Simulator(cfg(), scheme="flash+eager+abort_requester")
    a = 0x9000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    def victim():
        def body():
            for i in range(10):
                yield Write(0x20000 + i * 64, 5)
            yield Write(a, 2)
        yield Work(100)
        yield Tx(body)

    res = sim.run([holder, victim])
    assert res.aborts >= 1
    assert sim.scheme.stats.log_restores == 0  # no software walk needed
    # every abort was the constant-time flash invalidate
    assert res.breakdown.cycles["Aborting"] == res.aborts * sim.scheme.FAST_ABORT_CYCLES


# ---------------------------------------------------------------------------
# SUV
# ---------------------------------------------------------------------------

def test_suv_redirects_every_first_write():
    sim = Simulator(cfg(), scheme="suv")
    res = sim.run([writer_thread(0x10000, 8)])
    assert sim.scheme.stats.extra["redirects"] == 8
    assert res.commits == 1
    # committed entries are globally valid in the table
    entry = sim.scheme.table.peek(0x10000 >> 6)
    assert entry is not None and entry.state is EntryState.VALID


def test_suv_redirect_back_reclaims_entry_and_pool_line():
    sim = Simulator(cfg(), scheme="suv")
    line_addr = 0x10000

    def thread():
        def body():
            yield Write(line_addr, 1)
        yield Tx(body)       # redirects line → pool
        yield Tx(body)       # writes again: redirect-back to the original

    sim.run([thread])
    assert sim.scheme.stats.extra["redirect_backs"] == 1
    # the entry was reclaimed entirely
    assert sim.scheme.table.peek(line_addr >> 6) is None
    assert sim.scheme.pool.live_lines == 0


def test_suv_redirect_back_disabled_keeps_entry():
    c = cfg(redirect=RedirectConfig(redirect_back=False))
    sim = Simulator(c, scheme="suv")
    line_addr = 0x10000

    def thread():
        def body():
            yield Write(line_addr, 1)
        yield Tx(body)
        yield Tx(body)

    sim.run([thread])
    assert sim.scheme.stats.extra["redirect_backs"] == 0
    assert sim.scheme.table.peek(line_addr >> 6) is not None
    # the first pool line was freed, the second is live
    assert sim.scheme.pool.live_lines == 1


def test_suv_abort_frees_pool_and_removes_entries():
    sim = Simulator(cfg(), scheme="redirect+eager+abort_requester")
    a = 0x9000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    def victim():
        def body():
            for i in range(10):
                yield Write(0x20000 + i * 64, 5)
            yield Write(a, 2)
        yield Work(100)
        yield Tx(body)

    sim.run([holder, victim])
    # after the victim's abort+retry+commit, exactly its final entries live
    assert sim.scheme.stats.log_restores == 0
    assert sim.scheme.pool.frees >= 10


def test_suv_nontx_access_translates_through_table():
    sim = Simulator(cfg(), scheme="suv")
    seen = []

    def thread():
        def body():
            yield Write(0x10000, 42)
        yield Tx(body)
        v = yield Read(0x10000)   # non-transactional, strong isolation
        seen.append(v)

    sim.run([thread])
    assert seen == [42]
    assert sim.scheme.summary.passed >= 1


def test_suv_summary_filters_unredirected_accesses():
    sim = Simulator(cfg(), scheme="suv")

    def thread():
        v = yield Read(0x77000)
        yield Write(0x78000, v + 1)

    sim.run([thread])
    assert sim.scheme.summary.filtered >= 2
    assert sim.scheme.summary.passed == 0


def test_suv_l1_table_overflow_counted():
    c = cfg(redirect=RedirectConfig(l1_entries=4, l2_entries=64, l2_ways=2))
    sim = Simulator(c, scheme="suv")
    sim.run([writer_thread(0x10000, 16)])
    assert sim.scheme.table.l1_overflows > 0


def test_suv_commit_remote_entries_cost_more():
    # entries demoted to L2/memory make commit longer than L1-resident ones
    c_small = cfg(redirect=RedirectConfig(l1_entries=4))
    c_big = cfg(redirect=RedirectConfig(l1_entries=512))
    r_small = run([writer_thread(0x10000, 64)], "suv", c_small)
    r_big = run([writer_thread(0x10000, 64)], "suv", c_big)
    assert (
        r_small.breakdown.cycles["Committing"]
        > r_big.breakdown.cycles["Committing"]
    )


# ---------------------------------------------------------------------------
# DynTM
# ---------------------------------------------------------------------------

def test_dyntm_starts_eager():
    sim = Simulator(cfg(), scheme="dyntm")
    sim.run([writer_thread(0x10000, 4)])
    assert sim.scheme.stats.extra["eager_attempts"] >= 1
    assert sim.scheme.stats.extra["lazy_attempts"] == 0


def test_dyntm_switches_to_lazy_after_eager_aborts():
    c = cfg()
    sim = Simulator(c, scheme="dyntm", seed=5)
    a = 0x9000

    def contender(delay):
        def thread():
            def body():
                v = yield Read(a)
                yield Work(300)
                yield Write(a, v + 1)
            yield Work(delay)
            for _ in range(8):
                yield Tx(body, site=77)
        return thread

    res = sim.run([contender(0), contender(5), contender(10)])
    assert res.memory[a] == 24
    if res.aborts >= 2:
        assert sim.scheme.stats.extra["lazy_attempts"] > 0


def test_dyntm_suv_lazy_commit_cheaper_than_fastm_lazy_commit():
    # force lazy mode by pre-seeding the selector counters
    def prog():
        return [writer_thread(0x10000, 32, rounds=2)]

    results = {}
    for scheme in ("dyntm", "dyntm+suv"):
        sim = Simulator(cfg(), scheme=scheme, seed=3)
        sim.scheme._cd._counters[0] = 3  # site 0 → lazy
        res = sim.run(prog())
        results[scheme] = res.breakdown.cycles["Committing"]
        assert sim.scheme.stats.extra["lazy_attempts"] >= 1
    assert results["dyntm+suv"] < results["dyntm"]


def test_lazy_overflow_forces_eager_retry():
    sim = Simulator(cfg(), scheme="dyntm", seed=3)
    sets = sim.config.l1.n_sets
    base = 0x40000
    sim.scheme._cd._counters[0] = 3  # start lazy

    def thread():
        def body():
            for i in range(6):
                yield Write(base + i * sets * 64, i)
        yield Tx(body)

    res = sim.run([thread])
    assert res.commits == 1
    assert sim.scheme.lazy.stats.extra["lazy_overflows"] >= 1
    assert sim.scheme._cd._counters[0] == 0  # selector reset to eager
