"""Quantitative isolation-window tests: the paper's central mechanism.

A neighbour that conflicts with a transaction in its end-of-transaction
processing must wait for the *whole* processing window.  These tests
measure that window directly per scheme and check the paper's ordering:
LogTM-SE's abort window grows with the write set; SUV's does not.
"""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.simulator import Simulator
from tests.htm.schemes import at_resolution

SHARED = 0x9000


def big_abort_run(scheme: str, n_lines: int, seed=3):
    """A transaction with an n-line write set loses to an older holder
    and must roll back; returns its Aborting time."""
    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme=at_resolution(scheme, "abort_requester"),
                    seed=seed)

    def holder():
        def body():
            yield Write(SHARED, 1)
            yield Work(100_000)
        yield Tx(body)

    def victim():
        def body():
            for i in range(n_lines):
                yield Write(0x20000 + i * 64, i)
            yield Write(SHARED, 2)
        yield Work(200)
        yield Tx(body)

    res = sim.run([holder, victim], max_events=20_000_000)
    assert res.aborts >= 1
    return res.breakdown.cycles["Aborting"] / max(res.aborts, 1)


def test_logtm_abort_window_scales_with_write_set():
    trap = HTMConfig().abort_trap_cycles
    small = big_abort_run("logtm-se", 8) - trap
    large = big_abort_run("logtm-se", 64) - trap
    # the software walk restores per logged line: ~8x the records
    assert large > 4 * small


def test_suv_abort_window_is_flat():
    small = big_abort_run("suv", 8)
    large = big_abort_run("suv", 64)
    # flipping 64 L1-table-resident entries costs (almost) the same as 8
    assert large <= 2 * small + 16


def test_fastm_abort_window_is_flat_without_overflow():
    small = big_abort_run("fastm", 8)
    large = big_abort_run("fastm", 64)
    assert large <= 2 * small + 16


def test_scheme_ordering_of_abort_windows():
    sizes = {s: big_abort_run(s, 48) for s in ("logtm-se", "fastm", "suv")}
    assert sizes["suv"] <= sizes["fastm"] <= sizes["logtm-se"]


@pytest.mark.parametrize("scheme,expect_flat",
                         [("logtm-se", False), ("suv", True)])
def test_neighbour_stall_tracks_abort_window(scheme, expect_flat):
    """A third thread touching the victim's data during rollback stalls
    for (roughly) the length of the repair window."""
    cfg = SimConfig(n_cores=4)
    sim = Simulator(cfg, scheme=at_resolution(scheme, "abort_requester"),
                    seed=4)
    lines = [0x20000 + i * 64 for i in range(64)]

    def holder():
        def body():
            yield Write(SHARED, 1)
            yield Work(60_000)
        yield Tx(body)

    def victim():
        def body():
            for addr in lines:
                yield Write(addr, 7)
            yield Write(SHARED, 2)
        yield Work(200)
        yield Tx(body)

    def prober():
        # repeatedly touch one of the victim's lines, non-transactionally
        for _ in range(60):
            yield Read(lines[0])
            yield Work(400)

    res = sim.run([holder, victim, prober], max_events=20_000_000)
    stalled = res.per_core[2].get("Stalled", 0)
    if expect_flat:
        assert stalled < 6000, f"SUV prober stalled {stalled} cycles"
    # in both cases the run completed and the final data is committed
    assert res.memory[lines[0]] == 7
