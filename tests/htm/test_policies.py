"""Conflict-resolution policies: stall, abort_requester, abort_responder."""

import pytest

from repro.config import SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.simulator import Simulator
from tests.htm.schemes import at_resolution


def run(threads, policy, scheme="suv", seed=6):
    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme=at_resolution(scheme, policy), seed=seed)
    return sim.run(threads, max_events=10_000_000)


def holder_and_challenger():
    a = 0x9000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(5000)
        yield Tx(body, site=1)

    def challenger():
        def body():
            v = yield Read(a)
            yield Write(a, v + 10)
        yield Work(150)
        yield Tx(body, site=2)

    return a, [holder, challenger]


@pytest.mark.parametrize("policy",
                         ["stall", "abort_requester", "abort_responder"])
def test_all_policies_produce_correct_results(policy):
    a, threads = holder_and_challenger()
    res = run(threads, policy)
    # serializable outcome either way: holder's write then challenger's
    # RMW, or challenger first (1 + 10) then holder overwrites (1)
    assert res.memory[a] in (11, 1)
    assert res.commits == 2


def test_abort_responder_aborts_the_holder():
    a, threads = holder_and_challenger()
    res = run(threads, "abort_responder")
    assert res.aborts >= 1
    # the challenger ran through: it read the pre-transaction value 0
    # after the holder's abort, so memory ends at 1 (holder retried last)
    # or 11 (holder retried first); both committed
    assert res.commits == 2


def test_abort_responder_vs_stall_shifts_time():
    a, threads = holder_and_challenger()
    r_stall = run(threads, "stall")
    r_resp = run(threads, "abort_responder")
    # responder-abort converts requester waiting into holder wasted work
    assert (r_resp.breakdown.cycles["Wasted"]
            >= r_stall.breakdown.cycles["Wasted"])


def test_abort_responder_spares_committing_holder():
    """A holder already publishing cannot be aborted; the requester
    waits out the commit instead."""
    a = 0x9000
    seen = []

    def holder():
        def body():
            yield Write(a, 5)
        yield Tx(body, site=1)

    def challenger():
        def body():
            v = yield Read(a)
            seen.append(v)
        yield Work(2)
        yield Tx(body, site=2)

    res = run([holder, challenger], "abort_responder")
    assert res.commits == 2
    assert seen[-1] in (0, 5)


@pytest.mark.parametrize("policy",
                         ["stall", "abort_requester", "abort_responder"])
def test_counter_exact_under_each_policy(policy):
    addr = 0x4000

    def make():
        def thread():
            def body():
                v = yield Read(addr)
                yield Work(40)
                yield Write(addr, v + 1)
            for _ in range(5):
                yield Tx(body, site=1)
        return thread

    res = run([make() for _ in range(4)], policy)
    assert res.memory[addr] == 20
