"""Time-accounting invariants: every simulated cycle of every core lands
in exactly one breakdown component."""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.htm.ops import Barrier, Read, Tx, Work, Write
from repro.simulator import Simulator
from repro.workloads import make_workload
from tests.htm.schemes import at_resolution


def contended_threads(n=4, rounds=6):
    def make(tid):
        def thread():
            def body():
                v = yield Read(0x4000)
                yield Work(80)
                yield Write(0x4000, v + 1)
            for _ in range(rounds):
                yield Tx(body, site=1)
                yield Work(5)
            yield Barrier(0)
        return thread
    return [make(t) for t in range(n)]


@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv", "dyntm"])
def test_per_core_components_sum_to_finish_time(scheme):
    sim = Simulator(SimConfig(n_cores=4), scheme=scheme, seed=11)
    res = sim.run(contended_threads())
    for core in sim.cores[:4]:
        assert sum(core.comp.values()) == core.finish_time, (
            f"core {core.idx}: {core.comp} vs finish {core.finish_time}"
        )


def test_accounting_holds_with_stagger():
    cfg = SimConfig(n_cores=4, htm=HTMConfig(start_stagger=512))
    sim = Simulator(cfg, scheme="suv", seed=11)
    sim.run(contended_threads())
    for core in sim.cores[:4]:
        assert sum(core.comp.values()) == core.finish_time


def test_accounting_holds_on_real_workload():
    sim = Simulator(SimConfig(n_cores=8), scheme="logtm-se", seed=2)
    program = make_workload("intruder", n_threads=8, seed=2, scale="tiny")
    sim.run(program.threads)
    for core in sim.cores[:8]:
        assert sum(core.comp.values()) == core.finish_time


@pytest.mark.parametrize("scheme", ["logtm-se", "suv"])
def test_wasted_plus_trans_reflect_attempts(scheme):
    sim = Simulator(SimConfig(n_cores=4),
                    scheme=at_resolution(scheme, "abort_requester"), seed=11)
    res = sim.run(contended_threads())
    bd = res.breakdown.cycles
    if res.aborts:
        assert bd["Wasted"] > 0
    assert bd["Trans"] > 0
    # commits all happened
    assert res.memory[0x4000] == 4 * 6


def test_total_cycles_is_max_core_finish():
    sim = Simulator(SimConfig(n_cores=4), scheme="suv", seed=11)
    res = sim.run(contended_threads())
    assert res.total_cycles == max(c.finish_time for c in sim.cores[:4])
