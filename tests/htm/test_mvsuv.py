"""Behavioural tests for the multiversioned SUV scheme (``mvsuv``).

The headline property is starvation-freedom: a huge read-only
transaction that plain SUV dooms over and over (its read set conflicts
with every writer commit) runs wait-free under mvsuv — it snapshots the
version chains, stays invisible to conflict detection, and commits
first try.  The rest covers the snapshot-grant policy (declared and
detected), the demotion paths (violation, chain exhaustion), the
isolation-window collapse, and oracle-armed runs across workloads and
seeds.
"""

import pytest

from repro.config import RedirectConfig, SimConfig
from repro.htm.ops import Read, Tx, Work, Write
from repro.runner import ExperimentSpec, execute_spec
from repro.simulator import Simulator
from repro.trace import TX_ABORT, Tracer
from repro.workloads import make_workload
from tests.htm.schemes import at_resolution

A = 0x1000
B = 0x2000


def _run_starve(scheme: str, **redirect: int):
    config = SimConfig(n_cores=4)
    if redirect:
        config = config.with_(redirect=RedirectConfig(**redirect))
    program = make_workload("starve", n_threads=4, seed=1, scale="tiny")
    tracer = Tracer(events=True)
    # abort_responder lets every small writer doom the huge reader: the
    # harshest resolution for plain SUV's reader, a no-op for snapshots
    sim = Simulator(config, scheme=at_resolution(scheme, "abort_responder"),
                    seed=1, oracle=True, trace=tracer)
    result = sim.run(program.threads)
    sim.oracle.verify()
    program.verify(result.memory)
    reader_aborts = sum(
        1 for event in tracer.iter_events()
        if event["kind"] == TX_ABORT and event.get("site") == 1
    )
    return result, tracer, reader_aborts


def test_huge_reader_is_starved_under_suv_but_not_mvsuv():
    _, _, suv_aborts = _run_starve("suv")
    result, tracer, mv_aborts = _run_starve("mvsuv")
    assert suv_aborts >= 3, "the stress must actually starve plain SUV"
    # the acceptance bar: >= 90% fewer reader aborts at the same config
    assert mv_aborts <= 0.1 * suv_aborts
    stats = result.scheme_stats
    assert stats["snapshot_txs"] >= 1
    assert stats["snapshot_commits"] >= 1
    # the reader's attempt closes no isolation window at all
    assert tracer.snapshot_windows >= 1


def test_snapshot_windows_collapse_to_zero_isolation():
    _, tracer, _ = _run_starve("mvsuv")
    isolation = tracer.phase_breakdown()["isolation"]
    assert isolation["snapshot_windows"] == tracer.snapshot_windows
    assert isolation["snapshot_isolation_cycles"] == 0
    assert isolation["snapshot_lifetime_cycles"] > 0


def _run_threads(threads, scheme="mvsuv", **redirect: int):
    config = SimConfig(n_cores=4)
    if redirect:
        config = config.with_(redirect=RedirectConfig(**redirect))
    sim = Simulator(config, scheme=scheme, seed=1, oracle=True)
    result = sim.run(threads)
    sim.oracle.verify()
    return result, sim.scheme


def test_declared_read_only_gets_a_snapshot():
    def reader():
        def body():
            yield Read(A)
        yield Tx(body, site=1, read_only=True)

    result, scheme = _run_threads([reader])
    stats = scheme.scheme_stats()
    assert stats["snapshot_txs"] == 1
    assert stats["snapshot_commits"] == 1
    assert result.commits == 1 and result.aborts == 0


def test_read_only_site_is_detected_without_declaration():
    def reader():
        def body():
            yield Read(A)
        # two undeclared transactions at one site: the first runs eager
        # and proves the site never writes, the second gets the snapshot
        yield Tx(body, site=7)
        yield Tx(body, site=7)

    _, scheme = _run_threads([reader])
    assert scheme.scheme_stats()["snapshot_txs"] == 1


def test_writing_site_is_never_granted_a_snapshot():
    def writer():
        def body():
            value = yield Read(A)
            yield Write(A, value + 1)
        yield Tx(body, site=2)
        yield Tx(body, site=2)

    result, scheme = _run_threads([writer])
    assert scheme.scheme_stats()["snapshot_txs"] == 0
    assert result.memory.get(A, 0) == 2


def test_snapshot_violation_demotes_the_site_and_still_commits():
    def liar():
        def body():
            value = yield Read(A)
            yield Write(A, value + 1)   # violates the declaration
        yield Tx(body, site=3, read_only=True)
        yield Tx(body, site=3, read_only=True)

    result, scheme = _run_threads([liar])
    stats = scheme.scheme_stats()
    assert stats["snapshot_violations"] == 1
    assert stats["snapshot_demoted_sites"] == 1
    # the retry runs eager; both transactions' writes land
    assert result.memory.get(A, 0) == 2
    # the demoted site gets no second snapshot
    assert stats["snapshot_txs"] == 1


def test_chain_exhaustion_degrades_to_plain_suv():
    def reader():
        def body():
            yield Read(B)
            yield Work(4000)   # let the writer publish past versions_k
            yield Read(A)
        yield Tx(body, site=1, read_only=True)

    def writer():
        for _ in range(4):
            def body():
                value = yield Read(A)
                yield Write(A, value + 1)
            yield Tx(body, site=2)
            yield Work(50)

    result, scheme = _run_threads([reader, writer], versions_k=1)
    stats = scheme.scheme_stats()
    assert stats["snapshot_exhaustions"] >= 1
    assert stats["snapshot_demoted_sites"] >= 1
    # degradation is graceful: the reader retried eagerly and committed
    assert result.commits == 5 and result.memory.get(A, 0) == 4


def test_version_gc_respects_a_capped_pool():
    # 2 pages x 8 lines: version records and write redirects fight for
    # 16 pool lines, so GC must sacrifice stale versions to keep going
    result, tracer, _ = _run_starve(
        "mvsuv", pool_page_bytes=512, pool_max_pages=2, versions_k=2,
    )
    stats = result.scheme_stats
    assert stats["pool_high_water"] <= 16
    assert stats["version_evictions"] + stats["versions_lost"] >= 1
    assert stats["versions_high_water"] >= 1


@pytest.mark.parametrize("workload", ["starve", "ssca2", "synthetic"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_armed_mvsuv_across_workloads_and_seeds(workload, seed):
    spec = ExperimentSpec(
        workload=workload, scheme="mvsuv", scale="tiny",
        seed=seed, cores=4, check=True,
    )
    result = execute_spec(spec)
    assert result.oracle["passed"], result.oracle["failures"]
