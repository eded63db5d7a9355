"""Partial abort of nested transactions (LogTM-Nested semantics)."""

import pytest

from repro.config import SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.simulator import Simulator
from tests.htm.schemes import at_resolution


def run(threads, scheme="suv", seed=5):
    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme=at_resolution(scheme, "abort_requester"),
                    seed=seed)
    return sim.run(threads), sim


@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv"])
def test_inner_conflict_partially_aborts(scheme):
    """Only the inner level re-executes when the inner body conflicts;
    the outer level's work is preserved."""
    a = 0x9000
    outer_runs, inner_runs = [], []

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    def nested():
        def inner():
            inner_runs.append(1)
            yield Write(a, 2)   # conflicts until the holder commits

        def outer():
            outer_runs.append(1)
            yield Write(0x5000, 42)
            yield Tx(inner)
            yield Write(0x5040, 43)

        yield Work(100)
        yield Tx(outer)

    res, _ = run([holder, nested], scheme=scheme)
    assert res.commits == 2
    assert len(inner_runs) >= 2, "inner never retried"
    assert len(outer_runs) == 1, "outer was re-executed despite partial abort"
    assert res.memory[0x5000] == 42
    assert res.memory[0x5040] == 43
    assert res.memory[a] == 2


def test_partial_abort_preserves_outer_write_buffer():
    a = 0x9000
    seen = []

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    def nested():
        def inner():
            yield Write(a, 5)

        def outer():
            yield Write(0x6000, 7)
            yield Tx(inner)
            v = yield Read(0x6000)   # outer's own write must survive
            seen.append(v)

        yield Work(100)
        yield Tx(outer)

    run([holder, nested])
    assert all(v == 7 for v in seen)


def test_top_level_abort_requester_still_full():
    a = 0x9000
    runs = []

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(6000)
        yield Tx(body)

    def flat():
        def body():
            runs.append(1)
            yield Write(a, 2)
        yield Work(100)
        yield Tx(body)

    res, _ = run([holder, flat])
    assert res.commits == 2
    assert len(runs) >= 2
    assert res.memory[a] == 2
