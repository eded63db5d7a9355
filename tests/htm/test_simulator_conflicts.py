"""Engine integration tests: conflicts, stalls, aborts, pathologies."""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.simulator import Simulator


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

    res = run_threads(
        [winner, loser], scheme="logtm-se",
        config=small_config(htm=HTMConfig(resolution="abort_requester")),
    )
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

    res = run_threads(
        [t0, t1], scheme=scheme,
        config=small_config(htm=HTMConfig(resolution="abort_requester")),
    )
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

    cfg = small_config(htm=HTMConfig(resolution="stall"))

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


def test_stall_poll_switches_to_a_new_lower_holder():
    """A stalled writer re-stalls behind a lower-indexed core that began
    reading the line while it waited, exactly as a full rescan would.

    Core 2 writes a line core 3 has read, and stalls on 3.  Core 1 then
    opens a transaction (one poll sees that and still finds 3), works,
    and reads the line: only that read makes core 1 a conflict, so a
    poll that skipped the rescan after it would keep waiting on 3.
    """
    a = 0x1000
    polls = []

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

    sim = Simulator(small_config(), scheme="logtm-se", seed=7)
    poll = sim._stall_poll

    def recording_poll(core):
        poll(core)
        polls.append((sim.queue.now, core.idx, core.waiting_on))

    sim._stall_poll = recording_poll
    res = sim.run([idle, late_reader, writer, holder])
    begin_at, read_at = 300, 300 + 4 + 220  # + checkpoint + body work
    mine = [(t, held) for t, idx, held in polls if idx == 2]
    assert {held for t, held in mine if t < read_at} == {3}
    assert any(begin_at < t < read_at for t, _ in mine)
    assert [held for t, held in mine if t > read_at][0] == 1
    assert res.commits == 3 and res.memory[a] == 1


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
