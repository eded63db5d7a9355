"""Engine integration tests: conflicts, stalls, aborts, pathologies."""

import pytest

from repro.config import HTMConfig, SignatureConfig, SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.signatures.hashes import H3HashFamily
from repro.simulator import Simulator
from tests.htm.schemes import at_resolution


def small_config(**kw):
    return SimConfig(n_cores=4, **kw)


def run_threads(threads, scheme="suv", config=None, seed=7, max_events=2_000_000):
    sim = Simulator(config or small_config(), scheme=scheme, seed=seed)
    return sim.run(threads, max_events=max_events)


def counter_thread(addr, rounds, work=50):
    """Increment a shared counter in a transaction, `rounds` times."""

    def thread():
        def body():
            v = yield Read(addr)
            yield Work(work)
            yield Write(addr, v + 1)
        for _ in range(rounds):
            yield Tx(body, site=1)
            yield Work(10)

    return thread


@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv", "dyntm",
                                    "dyntm+suv", "lazy"])
def test_shared_counter_is_exact_under_contention(scheme):
    # the canonical atomicity test: N threads x R increments
    addr = 0x4000
    threads = [counter_thread(addr, 8) for _ in range(4)]
    res = run_threads(threads, scheme=scheme)
    assert res.memory[addr] == 4 * 8
    assert res.commits == 4 * 8


def test_conflicting_txs_stall_or_abort():
    addr = 0x4000
    threads = [counter_thread(addr, 6, work=200) for _ in range(4)]
    res = run_threads(threads, scheme="logtm-se")
    bd = res.breakdown.cycles
    assert bd["Stalled"] > 0 or bd["Wasted"] > 0
    assert res.tx_attempts >= res.commits


def test_disjoint_txs_do_not_conflict():
    def make(addr):
        def thread():
            def body():
                v = yield Read(addr)
                yield Write(addr, v + 1)
            for _ in range(5):
                yield Tx(body)
        return thread

    # well-separated lines
    threads = [make(0x1000 + i * 0x10000) for i in range(4)]
    res = run_threads(threads, scheme="suv")
    assert res.aborts == 0
    assert res.breakdown.cycles["Stalled"] == 0


def test_write_write_deadlock_is_broken():
    # T0: lock A then B; T1: lock B then A — a classic wait cycle
    a, b = 0x1000, 0x2000

    def t0():
        def body():
            yield Write(a, 1)
            yield Work(300)
            yield Write(b, 1)
        yield Tx(body)

    def t1():
        def body():
            yield Write(b, 2)
            yield Work(300)
            yield Write(a, 2)
        yield Tx(body)

    res = run_threads([t0, t1], scheme="logtm-se")
    assert res.commits == 2
    assert res.aborts >= 1  # the cycle was broken by aborting someone
    # both transactions eventually applied atomically: memory consistent
    assert {res.memory[a], res.memory[b]} <= {1, 2}


def test_aborted_tx_work_counts_as_wasted():
    a = 0x1000

    def winner():
        def body():
            yield Write(a, 1)
            yield Work(2000)
        yield Tx(body)

    def loser():
        def body():
            yield Work(100)
            yield Write(a, 2)
            yield Work(400)
        yield Work(50)   # let the winner grab the line first
        yield Tx(body)

    res = run_threads([winner, loser], scheme="undo+eager+abort_requester")
    assert res.aborts >= 1
    assert res.breakdown.cycles["Wasted"] > 0
    assert res.breakdown.cycles["Backoff"] > 0


def test_strong_isolation_nontx_access_waits():
    a = 0x1000
    seen = []

    def tx_thread():
        def body():
            yield Write(a, 1)
            yield Work(1000)
            yield Write(a, 2)
        yield Tx(body)

    def nontx_thread():
        yield Work(50)  # arrive mid-transaction
        v = yield Read(a)
        seen.append(v)

    res = run_threads([tx_thread, nontx_thread], scheme="suv")
    # the non-transactional read never observes the uncommitted value 1
    assert seen == [2]
    stalled = res.per_core[1].get("Stalled", 0)
    assert stalled > 0


@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv"])
def test_abort_discards_speculative_state(scheme):
    a, marker = 0x1000, 0x5000

    def t0():
        def body():
            yield Write(a, 111)
            yield Work(800)
        yield Tx(body)

    def t1():
        def body():
            yield Work(50)
            yield Write(a, 222)
        yield Work(20)
        yield Tx(body)
        yield Write(marker, 1)

    res = run_threads([t0, t1], scheme=at_resolution(scheme, "abort_requester"))
    # whichever order things resolved, the final value is a committed one
    assert res.memory[a] in (111, 222)
    assert res.memory[marker] == 1


def test_repair_pathology_logtm_aborting_time():
    """LogTM-SE abort pays a software log walk; SUV aborts in ~constant."""
    lines = [0x10000 + i * 64 for i in range(64)]
    a = 0x1000

    def big_writer():
        def body():
            yield Write(a, 1)
            for addr in lines:
                yield Write(addr, 7)
            # now conflict with the other thread and lose
            yield Work(500)
        yield Tx(body)

    def aggressor():
        def body():
            yield Work(10)
            yield Write(a, 2)
        yield Work(120)
        yield Tx(body)

    cfg = small_config()

    def run(scheme):
        # seed chosen arbitrarily; deterministic comparison
        return run_threads([big_writer, aggressor], scheme=scheme, config=cfg)

    r_log = run("logtm-se")
    r_suv = run("suv")
    # both must be correct
    assert r_log.memory[lines[0]] == r_suv.memory[lines[0]] == 7
    if r_log.aborts and r_suv.aborts:
        assert (
            r_log.breakdown.cycles["Aborting"]
            > 5 * r_suv.breakdown.cycles["Aborting"]
        )


def test_stall_policy_conflicting_reader_waits_for_writer():
    a = 0x1000
    seen = []

    def writer():
        def body():
            yield Write(a, 5)
            yield Work(600)
        yield Tx(body)

    def reader():
        def body():
            v = yield Read(a)
            seen.append(v)
        yield Work(30)
        yield Tx(body)

    res = run_threads([writer, reader], scheme="suv")
    assert seen == [5]  # reader stalled until the writer committed
    assert res.per_core[1].get("Stalled", 0) > 0


def record_stalls(sim):
    """Log ``(now, core, holder)`` of every stall ``sim`` starts."""
    stalls = []
    stall_on = sim._stall_on

    def recording_stall_on(core, holder_idx, op, *args, **kwargs):
        stalls.append((sim.queue.now, core.idx, holder_idx))
        stall_on(core, holder_idx, op, *args, **kwargs)

    sim._stall_on = recording_stall_on
    return stalls


def test_stall_poll_switches_to_a_new_lower_holder():
    """A stalled writer re-stalls behind a lower-indexed core that began
    reading the line while it waited, at its first poll slot after that
    read, exactly as a full rescan would.

    Core 2 writes a line core 3 has read, and stalls on 3.  Core 1 then
    opens a transaction, works, and reads the line: only that read makes
    core 1 a conflict.  A parked poll that missed the read would keep
    waiting on 3 until 3 commits, thousands of cycles later.
    """
    a = 0x1000

    def idle():
        yield Work(1)

    def late_reader():
        def body():
            yield Work(220)
            yield Read(a)
            yield Work(2_000)
        yield Work(300)
        yield Tx(body)

    def writer():
        def body():
            yield Write(a, 1)
        yield Work(100)
        yield Tx(body)

    def holder():
        def body():
            yield Read(a)
            yield Work(5_000)
        yield Tx(body)

    config = small_config()
    sim = Simulator(config, scheme="logtm-se", seed=7)
    stalls = record_stalls(sim)
    res = sim.run([idle, late_reader, writer, holder])
    period = config.htm.stall_retry_period
    read_at = 300 + 4 + 220  # + checkpoint + body work
    mine = [(t, held) for t, idx, held in stalls if idx == 2]
    first_at, first_holder = mine[0]
    assert first_at < read_at and first_holder == 3
    switch_at = next((t for t, held in mine if held == 1), None)
    assert switch_at is not None, "core 2 never waited on core 1"
    assert {held for t, held in mine if t < switch_at} == {3}
    # the first poll slot after the read, not core 3's commit (~5,000)
    assert read_at < switch_at <= read_at + period
    assert (switch_at - first_at) % period == 0
    assert res.commits == 3 and res.memory[a] == 1


#: the result fields a parked poll must reproduce (tracing changes only
#: the phase breakdown)
_RESULT_FIELDS = ("total_cycles", "per_core", "commits", "aborts",
                  "events_executed", "memory")


def parked_and_full(threads, config, scheme="logtm-se", patch=None):
    """Run ``threads`` with parked stall polls and again with event
    tracing, which turns parking off so every poll takes the full
    unstall/retry/rescan/resolve path.  Asserts both agree; returns the
    parked run's ``(now, core, holder)`` stall log."""
    results, logs = [], []
    for trace in (False, True):
        sim = Simulator(config, scheme=scheme, seed=7, trace=trace)
        if patch is not None:
            patch(sim)
        logs.append(record_stalls(sim))
        res = sim.run(threads, max_events=200_000).to_dict()
        results.append({k: res[k] for k in _RESULT_FIELDS})
    assert results[0] == results[1]
    return logs[0]


def _mux_scenario():
    """Core 1 stalls on core 0, which is then preempted mid-transaction
    (core 2 becomes the holder); once core 0's filler thread is preempted
    in turn, the suspended transaction is remounted on core 0."""
    a = 0x1000

    def reader():
        def body():
            yield Read(a)
            for _ in range(12):
                yield Work(10)
            yield Work(300)
        yield Tx(body)

    def writer():
        def body():
            yield Write(a, 1)
        yield Work(60)
        yield Tx(body)

    def holder():
        def body():
            yield Read(a)
            yield Work(5_000)
        yield Tx(body)

    def filler():
        yield Work(400)

    config = SimConfig(n_cores=3, htm=HTMConfig(
        time_slice=100, tx_slice_grace=1, context_switch_cycles=0,
    ))
    return parked_and_full([reader, writer, holder, filler], config)


def test_parked_poll_sees_its_holder_preempted():
    """Preempting a holder un-parks its waiters: the next poll finds the
    holder suspended and core 2 the first conflict."""
    stalls = _mux_scenario()
    assert stalls[0][1:] == (1, 0)
    left_at = next((t for t, c, h in stalls if c == 1 and h == 2), None)
    # a parked poll that missed the preemption would wait on core 0
    # until the suspended transaction is remounted there and commits
    assert left_at is not None and left_at < 400


def test_parked_poll_sees_a_remounted_lower_holder():
    """Mounting a suspended transaction on a core below the holder
    un-parks the waiters it now conflicts with."""
    stalls = _mux_scenario()
    mine = [(t, h) for t, c, h in stalls if c == 1]
    # on core 2, then back on core 0 once the reader is remounted there,
    # long before core 2's 5,000-cycle transaction commits
    back_at = next((t for t, h in mine if h == 0 and t > mine[0][0]), None)
    assert back_at is not None and back_at < 1_000
    assert [h for t, h in mine if t < back_at][-1] == 2


def test_parked_poll_sees_a_lazy_committer_publish():
    """A lazy transaction below the holder that starts publishing a line
    the waiter probes becomes its first conflict."""
    a = 0x1000

    def lazy_reader():
        def body():
            yield Read(a)
            for i in range(24):
                yield Write(0x10000 + 64 * i, i)
            yield Work(200)
        yield Tx(body, site=9)

    def idle():
        yield Work(1)

    def writer():
        def body():
            yield Write(a, 1)
        yield Work(100)
        yield Tx(body)

    def holder():
        def body():
            yield Read(a)
            yield Work(5_000)
        yield Tx(body)

    def lazy_site_9(sim):
        sim.scheme.mode_for = (
            lambda core, site: "lazy" if site == 9 else "eager"
        )

    stalls = parked_and_full(
        [lazy_reader, idle, writer, holder], small_config(),
        scheme="dyntm", patch=lazy_site_9,
    )
    mine = [(t, h) for t, c, h in stalls if c == 2]
    assert mine[0][1] == 3
    # core 0 publishes before core 3's transaction ends (~5,100)
    assert any(h == 0 and t < 5_000 for t, h in mine)


def test_parked_poll_sees_a_cycle_closed_through_a_stale_edge():
    """A stall edge that does not come from the Stall resolution can
    close a wait-for cycle through a waiter whose holder was just
    suspended (its edge is stale until its next poll): the parked cores
    on the cycle must poll and find it, as the full path would.

    Core 1 waits on core 0 (line a), core 2 waits on core 1 (line b).
    Core 0's transaction is preempted; the thread mounted in its place
    reads line c non-transactionally and stalls on core 2, closing
    0 -> 2 -> 1 -> 0.  Core 2 polls before core 1 does, finds the cycle
    and dooms core 1's transaction, the youngest on it.
    """
    a, b, c = 0x1000, 0x2000, 0x3000

    def preempted():
        def body():
            yield Write(a, 1)
            for _ in range(100):
                yield Work(10)
        yield Tx(body)

    def waits_on_0():
        def body():
            yield Write(b, 2)
            yield Read(a)
        yield Work(20)
        yield Tx(body)

    def waits_on_1():
        def body():
            yield Write(c, 3)
            yield Read(b)
        yield Work(10)
        yield Tx(body)

    def nontx_reader():
        yield Read(c)

    config = SimConfig(n_cores=3, htm=HTMConfig(
        time_slice=600, tx_slice_grace=1, context_switch_cycles=0,
    ))
    stalls = parked_and_full(
        [preempted, waits_on_0, waits_on_1, nontx_reader], config
    )
    assert [(c, h) for t, c, h in stalls[:3]] == [(2, 1), (1, 0), (0, 2)]
    closed_at = stalls[2][0]
    # core 2's next poll slot: it resolves the cycle and stalls again
    restall = next((t for t, c, h in stalls[3:] if c == 2), None)
    assert restall is not None
    assert closed_at < restall <= closed_at + config.htm.stall_retry_period


def _split_cover_lines(family):
    """Lines x, y, z whose masks make z covered by x|y but by neither."""
    m = family.mask
    for z in range(1, 400):
        mz = m(z)
        for x in range(400, 800):
            mx = m(x)
            if mx & mz in (0, mz, mx):
                continue
            for y in range(800, 1200):
                my = m(y)
                if (mx | my) & mz == mz and my & mz not in (mz, my):
                    return x, y, z
    raise AssertionError("no split cover in this signature family")


def test_parked_poll_sees_a_closed_nested_merge():
    """Merging a child frame into its parent can make the parent's word
    cover a probe neither frame covered alone (a Bloom false positive):
    the merging core becomes the first conflict."""
    sig = SignatureConfig(bits=64, hashes=2)
    family = H3HashFamily.shared(sig.hashes, sig.bits, sig.seed)
    x, y, z = (line << 6 for line in _split_cover_lines(family))

    def idle():
        yield Work(1)

    def nested():
        def inner():
            yield Write(y, 2)
            yield Work(200)

        def body():
            yield Write(x, 1)
            yield Tx(inner)
            yield Work(2_000)
        yield Tx(body)

    def writer():
        def body():
            yield Write(z, 3)
        yield Work(100)
        yield Tx(body)

    def holder():
        def body():
            yield Read(z)
            yield Work(5_000)
        yield Tx(body)

    stalls = parked_and_full(
        [idle, nested, writer, holder], SimConfig(n_cores=4, signature=sig)
    )
    mine = [(t, h) for t, c, h in stalls if c == 2]
    assert mine[0][1] == 3
    # core 1's inner commit (well before its 2,000-cycle tail ends)
    assert any(h == 1 and t < 2_000 for t, h in mine)


def test_lazy_tx_invisible_until_commit_then_wins():
    a = 0x1000

    def lazy_t():
        def body():
            yield Write(a, 1)
            yield Work(100)
        yield Tx(body)

    def lazy_u():
        def body():
            v = yield Read(a)
            yield Work(400)
            yield Write(a, v + 10)
        yield Tx(body)

    res = run_threads([lazy_t, lazy_u], scheme="lazy")
    assert res.commits == 2
    # u read a stale value, failed validation or was doomed, retried
    assert res.memory[a] == 11


def test_event_budget_guard_raises():
    def spinner():
        def body():
            yield Work(1)
        while True:
            yield Tx(body)

    with pytest.raises(RuntimeError):
        run_threads([spinner], max_events=500)
