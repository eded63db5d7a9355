"""Tests for the atomicity oracle (serial replay + quiescence)."""

import pytest

from repro.config import SimConfig
from repro.errors import OracleViolation
from repro.htm.vm.base import available_schemes
from repro.oracle import OracleRecorder, check_run
from repro.simulator import Simulator
from repro.workloads import make_workload


def run_checked(scheme="suv", workload="synthetic", seed=5, cores=4):
    program = make_workload(workload, n_threads=cores, seed=seed, scale="tiny")
    sim = Simulator(SimConfig(n_cores=cores), scheme=scheme, seed=seed,
                    oracle=True)
    result = sim.run(program.threads)
    return sim, result, program


# ----------------------------------------------------------------------
# happy path: every scheme passes on a real run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", sorted(available_schemes()))
def test_all_schemes_pass(scheme):
    sim, res, program = run_checked(scheme=scheme)
    report = sim.oracle.verify()
    assert report["passed"]
    assert report["failures"] == []
    assert report["entries"] > 0
    assert report["outer_commits"] == sim.tx_attempts - report["outer_aborts"]
    program.verify(res.memory)


def test_report_counts_reads():
    sim, _, _ = run_checked()
    report = sim.oracle.verify()
    assert report["reads_checked"] > 0
    assert report["relaxed_reads"] is False


def test_check_run_helper():
    sim, _, _ = run_checked()
    assert check_run(sim)["passed"]


def test_check_run_requires_recorder():
    program = make_workload("synthetic", n_threads=2, seed=1, scale="tiny")
    sim = Simulator(SimConfig(n_cores=2), scheme="suv", seed=1)
    sim.run(program.threads)
    with pytest.raises(ValueError, match="without an oracle"):
        check_run(sim)


def test_verify_requires_attach():
    with pytest.raises(ValueError, match="never attached"):
        OracleRecorder().verify()


# ----------------------------------------------------------------------
# the oracle actually catches fabricated violations
# ----------------------------------------------------------------------
def test_detects_lost_update():
    sim, _, _ = run_checked()
    # corrupt final memory behind the oracle's back: a lost update
    addr = next(iter(sim.memory.snapshot()))
    sim.memory.store(addr, sim.memory.load(addr) + 999)
    with pytest.raises(OracleViolation) as exc:
        sim.oracle.verify()
    report = exc.value.report
    assert not report["passed"]
    assert any("final state diverged" in f for f in report["failures"])


def test_detects_dirty_read():
    sim, _, _ = run_checked()
    # fabricate a committed transaction that read a value no serial
    # order can produce (as if it observed an aborted write)
    sim.oracle.log.insert(0, {
        "kind": "tx", "core": 0, "site": "fake", "cycle": 1,
        "ops": [("r", 0xdead0, 12345)],
    })
    report = sim.oracle.verify(raise_on_failure=False)
    assert not report["passed"]
    assert any("serial replay diverged" in f for f in report["failures"])


def test_detects_resurrected_write():
    sim, _, _ = run_checked()
    # a write that never reached memory: replay produces it, memory lacks it
    sim.oracle.log.append({
        "kind": "tx", "core": 0, "site": "fake", "cycle": 10**9,
        "ops": [("w", 0xbeef00, 7)],
    })
    report = sim.oracle.verify(raise_on_failure=False)
    assert any("final state diverged at 0xbeef00" in f
               for f in report["failures"])


def test_detects_counter_mismatch():
    sim, _, _ = run_checked()
    sim.commits += 1
    report = sim.oracle.verify(raise_on_failure=False)
    assert any("commit accounting" in f for f in report["failures"])
    sim.commits -= 1
    sim.tx_attempts += 2
    report = sim.oracle.verify(raise_on_failure=False)
    assert any("attempt accounting" in f for f in report["failures"])


def test_detects_leaked_pool_line():
    sim, _, _ = run_checked(scheme="suv")
    # allocate a line after the run: live but referenced by no entry
    sim.scheme.pool.allocate_line()
    report = sim.oracle.verify(raise_on_failure=False)
    assert any("leak" in f for f in report["failures"])


def test_detects_pool_ledger_break():
    sim, _, _ = run_checked(scheme="suv")
    sim.scheme.pool.allocations += 5
    report = sim.oracle.verify(raise_on_failure=False)
    assert any("ledger" in f for f in report["failures"])


def test_failures_capped():
    sim, _, _ = run_checked()
    for i in range(100):
        sim.oracle.log.append({
            "kind": "tx", "core": 0, "site": "fake", "cycle": 10**9,
            "ops": [("w", 0xf0000 + i * 64, 1)],
        })
    report = sim.oracle.verify(raise_on_failure=False)
    assert len(report["failures"]) == 25


def test_read_your_own_writes_not_flagged():
    rec = OracleRecorder()

    class _FakeMem:
        @staticmethod
        def snapshot():
            return {0x40: 2}

    class _FakeSim:
        memory = _FakeMem()
        tx_attempts = 1
        commits = 1
        aborts = 0

        class scheme:
            carriers = ()

    rec.attach(_FakeSim())
    rec.outer_commits = 1
    rec.log.append({
        "kind": "tx", "core": 0, "site": "s", "cycle": 1,
        "ops": [("w", 0x40, 2), ("r", 0x40, 2)],  # reads its own write
    })
    assert rec.verify()["passed"]


# ----------------------------------------------------------------------
# oracle + runner integration
# ----------------------------------------------------------------------
def test_execute_spec_attaches_report():
    from repro.runner import ExperimentSpec, execute_spec

    spec = ExperimentSpec("synthetic", scheme="suv", cores=4,
                          scale="tiny", seed=5, check=True)
    result = execute_spec(spec)
    assert result.oracle is not None
    assert result.oracle["passed"]


def test_oracle_report_survives_json():
    from repro.simulator import SimResult

    sim, res, _ = run_checked()
    res.oracle = sim.oracle.verify()
    again = SimResult.from_json(res.to_json())
    assert again.oracle == res.oracle
