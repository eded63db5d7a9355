"""Open-nested transactions (paper §IV-C extension)."""

import pytest

from repro.config import SimConfig
from repro.htm.ops import OpenTx, Read, Tx, Work, Write
from repro.simulator import Simulator
from tests.htm.schemes import at_resolution


def run(threads, scheme="suv", policy="stall", seed=8):
    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme=at_resolution(scheme, policy), seed=seed)
    return sim.run(threads, max_events=10_000_000)


def test_open_commit_publishes_before_parent_ends():
    """Another thread reads the open-nested result while the parent is
    still running — the isolation-release the paper motivates."""
    log_addr, data_addr = 0x1000, 0x2000
    seen = []

    def worker():
        def log_append():
            n = yield Read(log_addr)
            yield Write(log_addr, n + 1)

        def outer():
            yield OpenTx(log_append, site=9)
            yield Work(4000)               # parent keeps running
            yield Write(data_addr, 1)

        yield Tx(outer)

    def observer():
        yield Work(600)
        v = yield Read(log_addr)           # non-transactional read
        seen.append(v)

    res = run([worker, observer])
    assert res.commits == 2  # open child + outer
    assert seen == [1], "open-nested publication was not visible early"
    assert res.memory[data_addr] == 1


def test_open_commit_frees_conflicting_transaction():
    """A transaction conflicting only with the open child proceeds as
    soon as the child commits, long before the parent ends."""
    counter = 0x1000

    def worker():
        def bump():
            n = yield Read(counter)
            yield Write(counter, n + 1)

        def outer():
            yield OpenTx(bump, site=9)
            yield Work(6000)

        yield Tx(outer)

    def contender():
        def body():
            n = yield Read(counter)
            yield Write(counter, n + 100)
        yield Work(300)
        yield Tx(body)

    res = run([worker, contender])
    assert res.memory[counter] == 101
    # the contender did not wait out the parent's 6000-cycle tail
    assert res.per_core[1].get("Stalled", 0) < 3000


@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv"])
def test_parent_abort_runs_compensation(scheme):
    """If the parent aborts after the open child committed, the
    registered compensating action undoes the published effect."""
    a, counter = 0x9000, 0x1000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    def worker():
        def bump():
            n = yield Read(counter)
            yield Write(counter, n + 1)

        def unbump():
            n = yield Read(counter)
            yield Write(counter, n - 1)

        def outer():
            yield OpenTx(bump, compensate=unbump, site=9)
            yield Write(a, 2)          # conflicts → parent aborts
        yield Work(150)
        yield Tx(outer)

    res = run([holder, worker], scheme=scheme, policy="abort_requester")
    assert res.aborts >= 1
    # net effect: exactly one bump survives despite parent retries
    assert res.memory[counter] == 1
    assert res.memory[a] == 2


def test_compensations_survive_multiple_retries():
    a, counter = 0x9000, 0x1000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(20000)
        yield Tx(body)

    def worker():
        def bump():
            n = yield Read(counter)
            yield Write(counter, n + 1)

        def unbump():
            n = yield Read(counter)
            yield Write(counter, n - 1)

        def outer():
            yield OpenTx(bump, compensate=unbump, site=9)
            yield Write(a, 2)
        yield Work(150)
        yield Tx(outer)

    res = run([holder, worker], policy="abort_requester")
    assert res.memory[counter] == 1


def test_open_tx_requires_enclosing_tx():
    def thread():
        def body():
            yield Write(0x10, 1)
        yield OpenTx(body)

    with pytest.raises(RuntimeError, match="enclosing"):
        run([thread])


def test_open_tx_without_compensation_is_fire_and_forget():
    counter = 0x1000

    def worker():
        def bump():
            n = yield Read(counter)
            yield Write(counter, n + 1)

        def outer():
            yield OpenTx(bump, site=9)
            yield Work(50)
        yield Tx(outer)

    res = run([worker])
    assert res.memory[counter] == 1
