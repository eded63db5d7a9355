"""Edge cases of the engine: result helpers, guards, policies, races."""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.simulator import Simulator


def cfg(**kw):
    return SimConfig(n_cores=4, **kw)


def test_simresult_helpers():
    def thread():
        def body():
            yield Write(0x100, 1)
        yield Tx(body)

    a = Simulator(cfg(), scheme="suv").run([thread])
    b = Simulator(cfg(), scheme="logtm-se").run([thread])
    assert a.abort_ratio == 0.0
    assert a.speedup_over(b) == b.total_cycles / a.total_cycles


def test_max_events_guard():
    def thread():
        while True:
            yield Work(1000)

    with pytest.raises(RuntimeError, match="event budget"):
        Simulator(cfg(), scheme="suv").run([thread], max_events=10_000)


def test_unknown_op_rejected():
    def thread():
        yield "not an op"

    with pytest.raises(TypeError):
        Simulator(cfg(), scheme="suv").run([thread])


def test_negative_work_rejected():
    def thread():
        yield Work(-1)

    with pytest.raises(ValueError):
        Simulator(cfg(), scheme="suv").run([thread])


def test_abort_requester_policy_nontx_still_stalls():
    """Strong isolation under abort_requester: the non-transactional
    access cannot abort anyone, so it waits."""
    seen = []

    def tx_thread():
        def body():
            yield Write(0x1000, 5)
            yield Work(800)
            yield Write(0x1000, 6)
        yield Tx(body)

    def nontx_thread():
        yield Work(40)
        v = yield Read(0x1000)
        seen.append(v)

    sim = Simulator(cfg(), scheme="undo+eager+abort_requester", seed=2)
    sim.run([tx_thread, nontx_thread])
    assert seen == [6]


def test_stall_retry_timer_makes_progress():
    """Even with a long-running holder, the periodic retry keeps the
    requester live and it completes after the holder ends."""
    def holder():
        def body():
            yield Write(0x2000, 1)
            yield Work(5000)
        yield Tx(body)

    def requester():
        def body():
            v = yield Read(0x2000)
            yield Write(0x2000, v + 1)
        yield Work(100)
        yield Tx(body)

    res = Simulator(cfg(htm=HTMConfig(stall_retry_period=25)),
                    scheme="suv", seed=2).run([holder, requester])
    assert res.memory[0x2000] == 2


def test_three_way_deadlock_cycle_broken():
    a, b, c = 0x1000, 0x2000, 0x3000

    def make(first, second):
        def thread():
            def body():
                yield Write(first, 1)
                yield Work(400)
                yield Write(second, 1)
            yield Tx(body)
        return thread

    res = Simulator(cfg(), scheme="suv", seed=3).run(
        [make(a, b), make(b, c), make(c, a)]
    )
    assert res.commits == 3
    assert res.aborts >= 1


def test_mixed_tx_and_nontx_threads():
    def tx_thread():
        def body():
            v = yield Read(0x4000)
            yield Write(0x4000, v + 1)
        for _ in range(4):
            yield Tx(body)

    def plain_thread():
        for i in range(4):
            yield Write(0x5000 + i * 64, i)
            yield Work(30)

    res = Simulator(cfg(), scheme="suv", seed=1).run([tx_thread, plain_thread])
    assert res.memory[0x4000] == 4
    assert res.memory[0x5000] == 0 or 0x5000 in res.memory


def test_fewer_threads_than_cores():
    def thread():
        yield Work(10)

    res = Simulator(cfg(), scheme="suv").run([thread])
    assert res.total_cycles == 10


def test_zero_threads():
    res = Simulator(cfg(), scheme="suv").run([])
    assert res.total_cycles == 0 and res.commits == 0


def test_tx_with_no_memory_ops():
    def thread():
        def body():
            yield Work(25)
        yield Tx(body)

    res = Simulator(cfg(), scheme="suv").run([thread])
    assert res.commits == 1
    assert res.breakdown.cycles["Trans"] >= 25


def test_write_then_read_same_line_different_words():
    seen = []

    def thread():
        def body():
            yield Write(0x100, 1)       # word 0 of the line
            v = yield Read(0x108)       # word 1: untouched, reads 0
            seen.append(v)
        yield Tx(body)

    Simulator(cfg(), scheme="suv").run([thread])
    assert seen == [0]


def test_consecutive_transactions_reuse_state():
    def thread():
        def body():
            v = yield Read(0x200)
            yield Write(0x200, v + 1)
        for _ in range(10):
            yield Tx(body)

    sim = Simulator(cfg(), scheme="suv", seed=4)
    res = sim.run([thread])
    assert res.memory[0x200] == 10
    # redirect-back kept the table from growing: at most one live entry
    assert sim.scheme.pool.live_lines <= 1
