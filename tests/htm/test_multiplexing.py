"""Thread suspension / multiplexing (paper Section IV-C): more threads
than cores, mid-transaction suspension with armed summary signatures."""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.htm.ops import Barrier, Read, Tx, Work, Write
from repro.simulator import Simulator


def cfg(cores=2, **htm_kw):
    return SimConfig(n_cores=cores, htm=HTMConfig(**htm_kw))


def counter_thread(addr, rounds=4, work=30):
    def thread():
        def body():
            v = yield Read(addr)
            yield Work(work)
            yield Write(addr, v + 1)
        for _ in range(rounds):
            yield Tx(body, site=1)
            yield Work(10)
    return thread


@pytest.mark.parametrize("scheme", ["logtm-se", "fastm", "suv", "dyntm"])
def test_six_threads_on_two_cores_stay_atomic(scheme):
    addr = 0x4000
    threads = [counter_thread(addr) for _ in range(6)]
    sim = Simulator(cfg(cores=2), scheme=scheme, seed=4)
    res = sim.run(threads, max_events=30_000_000)
    assert res.memory[addr] == 6 * 4
    assert res.n_threads == 6
    assert res.context_switches > 0


def test_time_slice_preempts_long_thread():
    order = []

    def long_thread():
        for i in range(40):
            yield Work(500)
        order.append("long")

    def short_thread():
        yield Work(100)
        order.append("short")

    # one core, tiny slice: the short thread must finish long before the
    # long one despite being queued behind it
    sim = Simulator(cfg(cores=1, time_slice=1000), scheme="suv", seed=1)
    res = sim.run([long_thread, short_thread])
    assert order == ["short", "long"]
    assert res.context_switches >= 2


def test_suspended_tx_keeps_isolation():
    """A transaction suspended mid-flight must still block conflicting
    accesses (the armed summary signature of Section IV-C)."""
    a = 0x1000
    seen = []

    def tx_thread():
        def body():
            yield Write(a, 1)
            for _ in range(30):
                yield Work(400)   # long enough to be preempted
            yield Write(a, 2)
        yield Tx(body)

    def reader_thread():
        yield Work(50)
        v = yield Read(a)        # non-tx: strong isolation
        seen.append(v)

    def filler():
        for _ in range(50):
            yield Work(200)

    sim = Simulator(cfg(cores=2, time_slice=800), scheme="suv", seed=2)
    res = sim.run([tx_thread, reader_thread, filler], max_events=30_000_000)
    # the reader never sees the uncommitted 1
    assert seen == [2]
    assert sim.context_switches > 0


def test_barriers_work_across_multiplexed_threads():
    hits = []

    def make(tid):
        def thread():
            yield Work(10 * (tid + 1))
            hits.append(("pre", tid))
            yield Barrier(0)
            hits.append(("post", tid))
        return thread

    sim = Simulator(cfg(cores=2), scheme="suv", seed=3)
    sim.run([make(t) for t in range(5)])
    pres = [i for i, h in enumerate(hits) if h[0] == "pre"]
    posts = [i for i, h in enumerate(hits) if h[0] == "post"]
    assert max(pres) < min(posts)
    assert len(posts) == 5


def test_multiplexed_workload_end_to_end():
    from repro.workloads import make_workload

    program = make_workload("intruder", n_threads=8, seed=2, scale="tiny")
    sim = Simulator(cfg(cores=4), scheme="suv", seed=2)
    res = sim.run(program.threads, max_events=50_000_000)
    program.verify(res.memory)
    assert res.context_switches > 0


def test_multiplexed_genome_with_barriers():
    from repro.workloads import make_workload

    program = make_workload("genome", n_threads=6, seed=2, scale="tiny")
    sim = Simulator(cfg(cores=3), scheme="logtm-se", seed=2)
    res = sim.run(program.threads, max_events=50_000_000)
    program.verify(res.memory)


def test_context_switch_cost_charged():
    def spin():
        for _ in range(10):
            yield Work(300)

    sim = Simulator(cfg(cores=1, time_slice=500, context_switch_cycles=77),
                    scheme="suv", seed=1)
    res = sim.run([spin, spin])
    assert res.context_switches >= 2
    # switches show up as NoTrans overhead beyond the pure work
    assert res.breakdown.cycles["NoTrans"] >= 2 * 10 * 300 + 77


def _every_thread_walk(sim, my_ctx, masks, is_write, hidden=False):
    """The reference conflict scan: every mounted core by index, then
    (under multiplexing) every suspended thread in ``_ctxs`` order, each
    tested by the per-holder rule alone."""
    for core in sim.cores:
        ctx = core.ctx
        if (ctx is not None and ctx is not my_ctx
                and sim._holds(ctx, masks, is_write, hidden)):
            yield core.idx, ctx
    if sim._multiplex:
        for ctx in sim._ctxs:
            if (ctx is not my_ctx
                    and sim.cores[ctx.last_core].ctx is not ctx
                    and sim._holds(ctx, masks, is_write, hidden)):
                yield None, ctx


@pytest.mark.parametrize("scheme,cores,threads,overrides", [
    # 32 threads on 8 cores: the scan walks suspended threads
    ("suv", 8, 32, {}),
    # the short-slice shape: transactions are suspended mid-flight and
    # hold conflicts while unmounted; lazy frames hide until publishing
    ("dyntm+suv", 4, 16, {"htm.time_slice": 300, "htm.tx_slice_grace": 1}),
    # lazy conflict detection: a committer dooms hidden holders
    ("redirect+lazy+stall", 8, 32, {}),
], ids=["genome32on8", "short-slice", "lazy-cd"])
def test_armed_scan_yields_what_a_walk_of_every_thread_yields(
    monkeypatch, scheme, cores, threads, overrides,
):
    """``_holders`` walks only the armed set for visible holders; every
    probe must yield the same holders, in the same order, as a walk of
    every thread, and the armed set must be exactly the threads with
    non-zero visible words."""
    from repro.runner import ExperimentSpec, execute_spec

    scan = Simulator._holders
    seen = {"probes": 0, "suspended": 0, "hidden": 0}

    def checked(sim, my_ctx, masks, is_write, hidden=False):
        assert sim._armed == {
            ctx for ctx in sim._ctxs if ctx.vis_w | ctx.vis_r
        }
        got = list(scan(sim, my_ctx, masks, is_write, hidden))
        assert got == list(
            _every_thread_walk(sim, my_ctx, masks, is_write, hidden)
        )
        seen["probes"] += 1
        seen["suspended"] += sum(holder is None for holder, _ in got)
        seen["hidden"] += len(got) if hidden else 0
        return iter(got)

    monkeypatch.setattr(Simulator, "_holders", checked)
    spec = ExperimentSpec("genome", scheme=scheme, scale="tiny", seed=3,
                          cores=cores, threads=threads, check=True,
                          config_overrides=overrides)
    execute_spec(spec)
    assert seen["probes"] > 400
    if overrides:
        assert seen["suspended"] and seen["hidden"]
    if scheme.endswith("+lazy+stall"):
        assert seen["hidden"]
