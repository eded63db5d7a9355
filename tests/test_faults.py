"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.config import SimConfig
from repro.faults import (
    PRESETS,
    FaultAction,
    FaultInjector,
    FaultPlan,
    list_presets,
    parse_plan,
)
from repro.simulator import Simulator
from repro.workloads import make_workload


def run_sim(plan=None, scheme="suv", seed=9, oracle=False, workload="synthetic"):
    program = make_workload(workload, n_threads=4, seed=seed, scale="tiny")
    sim = Simulator(SimConfig(n_cores=4), scheme=scheme, seed=seed,
                    faults=plan, oracle=oracle)
    result = sim.run(program.threads)
    return sim, result, program


# ----------------------------------------------------------------------
# plan model
# ----------------------------------------------------------------------
def test_action_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultAction("meteor_strike", at_cycle=10)


def test_action_rejects_negative_cycle():
    with pytest.raises(ValueError, match="at_cycle"):
        FaultAction("kill_tx", at_cycle=-1)


def test_plan_json_roundtrip():
    plan = PRESETS["jitter"]
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan


def test_parse_plan_empty_and_presets():
    assert parse_plan("") is None
    assert parse_plan(None) is None
    for name in list_presets():
        assert parse_plan(name) is PRESETS[name]


def test_parse_plan_inline_json():
    text = ('{"name": "mine", "actions": '
            '[{"kind": "kill_tx", "at_cycle": 42, "core": 1}]}')
    plan = parse_plan(text)
    assert plan.name == "mine"
    assert plan.actions == (FaultAction("kill_tx", at_cycle=42, core=1),)


def test_parse_plan_rejects_garbage():
    with pytest.raises(ValueError, match="unknown fault plan"):
        parse_plan("not-a-preset")


def test_action_to_dict_omits_defaults():
    d = FaultAction("kill_tx", at_cycle=7).to_dict()
    assert d == {"kind": "kill_tx", "at_cycle": 7}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_seed_same_trace_and_result():
    _, a, _ = run_sim(PRESETS["jitter"])
    _, b, _ = run_sim(PRESETS["jitter"])
    assert a.fault_trace == b.fault_trace
    assert a.fault_trace  # the plan actually fired
    assert a.to_json() == b.to_json()


def test_different_seed_different_outcome():
    _, a, _ = run_sim(PRESETS["jitter"], seed=9)
    _, b, _ = run_sim(PRESETS["jitter"], seed=10)
    assert a.to_json() != b.to_json()


def test_fault_trace_survives_json_roundtrip():
    from repro.simulator import SimResult

    _, res, _ = run_sim(PRESETS["tx-kill"])
    again = SimResult.from_json(res.to_json())
    assert again.fault_trace == res.fault_trace


# ----------------------------------------------------------------------
# individual fault kinds
# ----------------------------------------------------------------------
def test_table_squeeze_shrinks_and_spills():
    plan = FaultPlan("squeeze", (
        FaultAction("table_squeeze", at_cycle=1000, l1_entries=2, l2_ways=1),
    ))
    sim, res, _ = run_sim(plan)
    table = sim.scheme.table
    assert all(t.capacity == 2 for t in table.l1_tables)
    assert table.l2_table.ways == 1
    event = res.fault_trace[0]
    assert event["kind"] == "table_squeeze" and event["hit"]


def test_table_squeeze_misses_on_tableless_scheme():
    plan = FaultPlan("squeeze", (
        FaultAction("table_squeeze", at_cycle=1000, l1_entries=2),
    ))
    _, res, _ = run_sim(plan, scheme="logtm-se")
    assert res.fault_trace[0]["hit"] is False


def test_pool_cap_freezes_pool_and_reclaims():
    plan = PRESETS["pool-pressure"]
    sim, res, program = run_sim(plan, oracle=True)
    pool = sim.scheme.pool
    assert pool.max_pages >= 1                  # cap installed mid-run
    assert res.fault_trace[0]["hit"]
    # the run still completes and stays functionally correct
    assert sim.oracle.verify()["passed"]
    program.verify(res.memory)


def test_sig_storm_forces_lookups():
    plan = PRESETS["sig-storm"]
    sim, res, _ = run_sim(plan)
    stats = sim.scheme.summary.stats()
    assert stats["forced_positives"] > 0
    # the storm window closed again by the end of the run
    assert sim.scheme.summary.force_positive is False


def test_kill_tx_inflates_aborts():
    _, base, _ = run_sim(None)
    _, hit, _ = run_sim(PRESETS["tx-kill"])
    killed = [ev for ev in hit.fault_trace if ev["hit"]]
    assert killed
    assert hit.aborts >= base.aborts + len(killed[0]["detail"]["victims"])


def test_delay_core_charges_the_target():
    plan = FaultPlan("freeze", (
        FaultAction("delay_core", at_cycle=500, core=0, cycles=5000),
    ))
    _, base, _ = run_sim(None)
    _, res, _ = run_sim(plan)
    assert res.total_cycles > base.total_cycles


def test_backoff_scale_changes_timing():
    plan = FaultPlan("slow", (
        FaultAction("backoff_scale", at_cycle=0, duration=10**9, factor=16.0),
    ))
    _, base, _ = run_sim(None)
    _, res, _ = run_sim(plan)
    assert res.to_json() != base.to_json()


def test_injector_requires_known_handler():
    # every declared kind has a _do_ handler on the injector
    inj = FaultInjector(FaultPlan("empty"))
    from repro.faults import KINDS
    for kind in KINDS:
        assert hasattr(inj, f"_do_{kind}")


# ----------------------------------------------------------------------
# functional correctness under every preset, every scheme
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme",
    ["suv", "logtm-se", "lazy", "dyntm+suv", "redirect+lazy+stall+serial"],
)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_preserve_correctness(scheme, preset):
    sim, res, program = run_sim(PRESETS[preset], scheme=scheme, oracle=True)
    assert sim.oracle.verify()["passed"]
    program.verify(res.memory)


@pytest.mark.parametrize("workload", ["synthetic", "ssca2"])
@pytest.mark.parametrize("plan", ["tx-kill", "pool-pressure"])
def test_fault_campaign_covers_suv_lazy_hybrid(workload, plan):
    """The SUV-VM + lazy-CD hybrid keeps atomicity under injected faults
    on both campaign workloads (the CI fault-campaign job runs the same
    combination end-to-end through the CLI)."""
    from repro.runner import ExperimentSpec, execute_spec

    spec = ExperimentSpec(
        workload=workload, scheme="redirect+lazy+stall+serial",
        scale="tiny", cores=4, fault_plan=plan, check=True,
    )
    res = execute_spec(spec)
    assert res.oracle is not None and res.oracle["passed"]
    assert res.fault_trace, "the plan must actually inject"


@pytest.mark.parametrize(
    "scheme",
    ["suv", "redirect+eager+stall+serial", "redirect+lazy+stall+serial",
     "redirect+adaptive+stall+serial", "mvsuv+eager+stall+serial"],
)
@pytest.mark.parametrize("plan", ["table-squeeze", "pool-pressure", "sig-storm"])
def test_redirect_faults_reach_every_redirect_composition(scheme, plan):
    """Table, pool and summary faults find their target on every scheme
    with SUV placement, composed spellings included."""
    from repro.runner import ExperimentSpec, execute_spec

    spec = ExperimentSpec(
        workload="genome", scheme=scheme, scale="tiny", cores=4, seed=3,
        fault_plan=plan,
    )
    res = execute_spec(spec)
    assert res.fault_trace
    assert all(event["hit"] for event in res.fault_trace), res.fault_trace
