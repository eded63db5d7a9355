"""Unit tests for workload-internal pure functions and invariants."""

from repro.workloads.intruder import ATTACK_SIGNATURES, _contains_signature
from repro.workloads.registry import _SCALES
from repro.workloads import WORKLOAD_NAMES, make_workload


# -- intruder's signature matcher ---------------------------------------

def test_matcher_finds_planted_signature():
    sig = ATTACK_SIGNATURES[0]
    payload = [1, 2, *sig, 9]
    assert _contains_signature(payload)


def test_matcher_rejects_clean_payload():
    assert not _contains_signature([1, 2, 3, 4, 5])


def test_matcher_handles_boundaries():
    sig = list(ATTACK_SIGNATURES[1])
    assert _contains_signature(sig)                 # exact
    assert _contains_signature([0] + sig)           # at end
    assert not _contains_signature(sig[:1])         # too short


# -- registry scales -----------------------------------------------------

def test_every_workload_has_three_scales():
    for name in WORKLOAD_NAMES + ("synthetic",):
        assert set(_SCALES[name]) == {"tiny", "small", "full"}


def test_overrides_reach_factories():
    prog = make_workload("genome", n_threads=2, scale="tiny", n_buckets=8)
    assert prog.params["n_buckets"] == 8


def test_params_recorded():
    prog = make_workload("labyrinth", n_threads=2, scale="tiny")
    assert prog.params["dim"] == (8, 8, 2)


# -- genome overlap encoding ----------------------------------------------

def test_genome_links_are_k_symbol_overlaps():
    """Run a tiny genome and spot-check the verifier's overlap logic by
    recomputing overlaps from the program parameters."""
    from repro.config import SimConfig
    from repro.simulator import Simulator

    prog = make_workload("genome", n_threads=4, seed=9, scale="tiny")
    res = Simulator(SimConfig(n_cores=4), scheme="suv", seed=9).run(
        prog.threads
    )
    prog.verify(res.memory)  # includes the overlap check
    assert prog.params["overlap"] == prog.params["segment_length"] - 1


# -- vacation task mix ----------------------------------------------------

def test_vacation_mix_contains_all_action_types():
    import repro.workloads.vacation as v

    rng_seen = set()
    prog = make_workload("vacation", n_threads=2, seed=5, scale="small",
                         user_fraction=0.5)
    assert prog.params["user_fraction"] == 0.5


def test_vacation_roundtrip_slots():
    from repro.workloads.vacation import make_vacation

    # encode/decode are internal; exercise end-to-end instead
    from repro.config import SimConfig
    from repro.simulator import Simulator

    prog = make_vacation(n_threads=4, seed=3, n_relations=32, n_tasks=40,
                         n_customers=16, user_fraction=0.6)
    res = Simulator(SimConfig(n_cores=4), scheme="logtm-se", seed=3).run(
        prog.threads
    )
    prog.verify(res.memory)


# -- kmeans golden model ---------------------------------------------------

def test_kmeans_reference_counts_sum_to_points():
    prog = make_workload("kmeans", n_threads=2, scale="tiny")
    # run once; the verifier compares against the sequential reference
    from repro.config import SimConfig
    from repro.simulator import Simulator

    res = Simulator(SimConfig(n_cores=4), scheme="fastm", seed=1).run(
        prog.threads
    )
    prog.verify(res.memory)


# -- yada termination -------------------------------------------------------

def test_yada_quality_improves_monotonically():
    from repro.workloads.yada import GOOD_QUALITY, make_yada

    prog = make_yada(n_threads=4, seed=7, n_initial=16)
    from repro.config import SimConfig
    from repro.simulator import Simulator

    res = Simulator(SimConfig(n_cores=4), scheme="suv", seed=7).run(
        prog.threads
    )
    prog.verify(res.memory)  # asserts no live bad triangles remain
