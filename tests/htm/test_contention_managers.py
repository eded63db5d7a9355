"""The greedy / karma / polite contention managers, end to end.

The headline is starvation-freedom by *policy* rather than by
versioning: ``mvsuv`` rescues the huge ``starve`` reader with snapshot
reads, but ``greedy`` (Guerraoui–Herlihy–Pochon timestamp seniority)
rescues it on plain SUV by making the oldest transaction unbeatable —
the doomed-reader loop that ``abort_requester`` exhibits disappears
without touching version management.  The rest pins seed-determinism
(a contention manager that consults wall-clock or object identity
would break replayability), livelock-freedom, legality bookkeeping and
the oracle across all three managers.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.htm.policy import (
    CD_AXIS,
    RESOLUTION_AXIS,
    VM_AXIS,
    iter_scheme_space,
    legal_combinations,
)
from repro.runner import ExperimentSpec, execute_spec
from repro.trace import TX_ABORT, TX_COMMIT, Tracer

NEW_MANAGERS = ("polite", "greedy", "karma")

# pinned doom-loop scenario: with stagger=0 the tid tie-break makes the
# reader the oldest transaction, and this much writer traffic dooms it
# 5+ times under abort_requester (the requester always wins, and every
# writer's commit is a request against the reader's read set)
DOOM = dict(
    workload="starve",
    scale="tiny",
    seed=2,
    cores=16,
    stagger=0,
    workload_kwargs=(
        ("reader_slots", 48), ("tx_per_writer", 16),
        ("writes_per_tx", 3), ("work_per_access", 30),
    ),
    check=True,  # atomicity oracle armed on every run
)


def run_doom(resolution: str):
    tracer = Tracer(events=True)
    spec = ExperimentSpec(scheme=f"redirect+eager+{resolution}", **DOOM)
    result = execute_spec(spec, trace=tracer)
    reader_events = {
        kind: sum(
            1 for e in tracer.iter_events()
            if e["kind"] == kind and e.get("site") == 1
        )
        for kind in (TX_ABORT, TX_COMMIT)
    }
    return result, reader_events


def test_axis_registers_the_new_managers():
    for name in NEW_MANAGERS:
        assert name in RESOLUTION_AXIS


def test_legal_space_is_70_of_105():
    # 5 VMs × 3 CDs × 7 resolutions = 105 combinations; eager admits
    # all five VMs, lazy buffer/redirect, adaptive undo/flash/redirect
    # → (5 + 2 + 3) × 7
    assert len(VM_AXIS) * len(CD_AXIS) * len(RESOLUTION_AXIS) == 105
    assert len(list(iter_scheme_space())) == 105
    assert len(legal_combinations()) == 70


def test_new_managers_compose_across_every_legal_vm_cd():
    legal = legal_combinations()
    for name in NEW_MANAGERS:
        with_it = {(c.vm, c.cd) for c in legal if c.resolution == name}
        with_stall = {(c.vm, c.cd) for c in legal if c.resolution == "stall"}
        # drop-in: exactly the (vm, cd) pairs stall is legal with
        assert with_it == with_stall


@pytest.mark.parametrize("typo,meant", [
    ("greedey", "greedy"), ("gredy", "greedy"),
    ("carma", "karma"), ("kharma", "karma"),
    ("polit", "polite"), ("politee", "polite"),
])
def test_typos_get_near_miss_suggestions(typo, meant):
    from repro.errors import UnknownSchemeError
    from repro.htm.policy import make_resolution

    with pytest.raises(UnknownSchemeError) as err:
        make_resolution(typo)
    assert meant in err.value.suggestions
    assert "did you mean" in str(err.value)


def test_abort_requester_dooms_the_reader_into_a_loop():
    result, reader = run_doom("abort_requester")
    assert reader[TX_ABORT] >= 5, (
        "the pinned scenario must exhibit the doom loop; "
        f"got {reader[TX_ABORT]} reader aborts"
    )
    assert reader[TX_COMMIT] == 1


def test_greedy_commits_the_doomed_reader_without_the_loop():
    result, reader = run_doom("greedy")
    assert reader[TX_ABORT] == 0, (
        "greedy seniority must make the oldest reader unbeatable"
    )
    assert reader[TX_COMMIT] == 1
    assert result.oracle is not None  # the oracle actually ran


@pytest.mark.parametrize("resolution", NEW_MANAGERS)
def test_oracle_and_verifier_pass_under_each_manager(resolution):
    result, reader = run_doom(resolution)
    assert reader[TX_COMMIT] == 1  # no manager loses the reader
    assert result.commits >= 1 + 15 * 16  # reader + all writer txs


@pytest.mark.parametrize("resolution", ("polite", "greedy"))
def test_managers_beat_abort_requester_for_the_reader(resolution):
    # karma is deliberately absent: published Karma lets a stream of
    # small writers out-wait a big reader (every stall-retry earns the
    # requester karma until it attacks), so it bounds but does not
    # minimize the reader's aborts — see the oracle test above
    _, base = run_doom("abort_requester")
    _, managed = run_doom(resolution)
    assert managed[TX_ABORT] < base[TX_ABORT]


# ----------------------------------------------------------------------
# property-style tests (hypothesis)
# ----------------------------------------------------------------------


def run_starve(resolution: str, seed: int, tracer: Tracer | None = None):
    spec = ExperimentSpec(
        workload="starve", scheme=f"redirect+eager+{resolution}",
        scale="tiny", seed=seed, cores=8, stagger=0, check=True,
    )
    return execute_spec(spec, trace=tracer)


@settings(max_examples=8, deadline=None)
@given(
    resolution=st.sampled_from(NEW_MANAGERS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_managers_are_seed_deterministic(resolution, seed):
    a = run_starve(resolution, seed)
    b = run_starve(resolution, seed)
    assert (a.total_cycles, a.commits, a.aborts, a.tx_attempts) \
        == (b.total_cycles, b.commits, b.aborts, b.tx_attempts)
    assert a.memory == b.memory


@settings(max_examples=8, deadline=None)
@given(
    resolution=st.sampled_from(("greedy", "karma")),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_transaction_eventually_commits(resolution, seed):
    # livelock-freedom: the run terminates (no max_events blowup), the
    # functional verifier accepts the memory image, and every site that
    # began a transaction also committed one — nothing starves forever
    tracer = Tracer(events=True)
    result = run_starve(resolution, seed, tracer=tracer)
    began = {e.get("site") for e in tracer.iter_events()
             if e["kind"] == "tx_begin"}
    committed = {e.get("site") for e in tracer.iter_events()
                 if e["kind"] == TX_COMMIT}
    assert began == committed
    assert result.commits == result.tx_attempts - result.aborts


def test_greedy_reader_priority_is_monotone_under_more_writers():
    # seniority must hold as contention grows: the oldest reader never
    # aborts no matter how much traffic arrives behind it
    for tx_per_writer in (4, 8, 16):
        tracer = Tracer(events=True)
        spec = dataclasses.replace(
            ExperimentSpec(scheme="redirect+eager+greedy", **DOOM),
            workload_kwargs=(
                ("reader_slots", 48), ("tx_per_writer", tx_per_writer),
                ("writes_per_tx", 3), ("work_per_access", 30),
            ),
        )
        execute_spec(spec, trace=tracer)
        reader_aborts = sum(
            1 for e in tracer.iter_events()
            if e["kind"] == TX_ABORT and e.get("site") == 1
        )
        assert reader_aborts == 0, f"tx_per_writer={tx_per_writer}"
