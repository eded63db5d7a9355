"""Closed-nesting semantics: merge-on-commit, abort-and-retry."""

import pytest

from repro.config import SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.simulator import Simulator
from tests.htm.schemes import at_resolution

SCHEMES = ["logtm-se", "fastm", "suv"]


def run(threads, scheme="suv", policy="stall", seed=5):
    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme=at_resolution(scheme, policy), seed=seed)
    return sim.run(threads), sim


@pytest.mark.parametrize("scheme", SCHEMES)
def test_three_level_nesting_commits(scheme):
    def thread():
        def level2():
            yield Write(0x300, 3)
            return 33

        def level1():
            yield Write(0x200, 2)
            v = yield Tx(level2)
            yield Write(0x208, v)
            return 22

        def level0():
            yield Write(0x100, 1)
            v = yield Tx(level1)
            yield Write(0x108, v)

        yield Tx(level0)

    res, _ = run([thread], scheme=scheme)
    assert res.commits == 1
    assert res.memory[0x100] == 1
    assert res.memory[0x200] == 2
    assert res.memory[0x300] == 3
    assert res.memory[0x208] == 33
    assert res.memory[0x108] == 22


@pytest.mark.parametrize("scheme", SCHEMES)
def test_inner_writes_visible_to_outer_after_nested_commit(scheme):
    seen = []

    def thread():
        def inner():
            yield Write(0x400, 7)

        def outer():
            yield Tx(inner)
            v = yield Read(0x400)
            seen.append(v)

        yield Tx(outer)

    run([thread], scheme=scheme)
    assert seen == [7]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_outer_abort_discards_committed_inner(scheme):
    """A nested commit is only tentative: if the parent aborts, the
    child's writes vanish too (closed nesting)."""
    a = 0x9000

    def holder():
        def body():
            yield Write(a, 1)
            yield Work(9000)
        yield Tx(body)

    attempts = []

    def victim():
        def inner():
            yield Write(0x500, 99)

        def outer():
            attempts.append(1)
            yield Tx(inner)
            yield Write(a, 2)   # conflicts with the holder → abort
        yield Work(100)
        yield Tx(outer)

    res, _ = run([holder, victim], scheme=scheme, policy="abort_requester")
    assert len(attempts) >= 2          # the outer was retried
    assert res.memory[0x500] == 99     # and finally committed
    assert res.commits == 2


def test_nested_signatures_merge_into_parent():
    seen_conflict = []

    def writer():
        def inner():
            yield Write(0x600, 5)

        def outer():
            yield Tx(inner)         # inner commits, sigs merge to outer
            yield Work(6000)        # outer stays open, holding 0x600
        yield Tx(outer)

    def prober():
        def body():
            v = yield Read(0x600)   # must stall: 0x600 is still isolated
            seen_conflict.append(v)
        yield Work(400)
        yield Tx(body)

    res, _ = run([writer, prober])
    assert seen_conflict == [5]
    assert res.per_core[1].get("Stalled", 0) > 0


def test_suv_nested_entries_follow_parent_outcome():
    _, sim = run([lambda: iter(())], scheme="suv")  # build a sim for scheme

    def thread():
        def inner():
            yield Write(0x700, 1)

        def outer():
            yield Tx(inner)
            yield Write(0x740, 2)
        yield Tx(outer)

    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme="suv", seed=1)
    res = sim.run([thread])
    assert res.memory[0x700] == 1
    # both entries committed to globally-valid state
    from repro.core.redirect_entry import EntryState
    for line in (0x700 >> 6, 0x740 >> 6):
        entry = sim.scheme.table.peek(line)
        assert entry is not None and entry.state is EntryState.VALID
