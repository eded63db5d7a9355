"""Composed four-axis schemes: canonical equivalence and novel hybrids."""

import pytest

from repro.errors import IncompatiblePolicyError
from repro.runner import ExperimentSpec, RunMatrix, execute_spec

#: canonical name ↔ its four-axis spelling (stall + serial = the
#: HTMConfig defaults every canonical scheme runs under)
EQUIVALENTS = [
    ("logtm-se", "undo+eager+stall+serial"),
    ("fastm", "flash+eager+stall+serial"),
    ("suv", "redirect+eager+stall+serial"),
    ("lazy", "buffer+eager+stall+serial"),
    ("dyntm", "flash+adaptive+stall+serial"),
    ("dyntm+suv", "redirect+adaptive+stall+serial"),
]

#: the two headline hybrids the decomposition unlocks, plus a bounded-
#: width commit pipe — none expressible before this refactor
HYBRIDS = [
    "redirect+lazy+stall+serial",     # SUV-VM + lazy conflict detection
    "undo+eager+timestamp+serial",    # eager undo + age-based resolution
    "redirect+lazy+timestamp+width2",  # overlapped validating commits
]


def _run(scheme, workload="ssca2", seed=3, **kw):
    spec = ExperimentSpec(
        workload=workload, scheme=scheme, scale="tiny", seed=seed, cores=4,
        **kw,
    )
    return execute_spec(spec)


def _fidelity(res):
    return (res.total_cycles, res.commits, res.aborts, res.memory,
            res.breakdown.as_dict(), res.per_core)


@pytest.mark.parametrize("canonical,composed", EQUIVALENTS)
def test_composed_spelling_is_cycle_identical_to_canonical(
    canonical, composed
):
    for workload, seed in (("ssca2", 3), ("synthetic", 7)):
        a = _run(canonical, workload=workload, seed=seed)
        b = _run(composed, workload=workload, seed=seed)
        assert _fidelity(a) == _fidelity(b), (canonical, workload)
        assert a.scheme_stats == b.scheme_stats


@pytest.mark.parametrize("scheme", HYBRIDS)
@pytest.mark.parametrize("workload", ["ssca2", "synthetic"])
def test_novel_hybrids_run_oracle_clean(scheme, workload):
    res = _run(scheme, workload=workload, check=True)
    assert res.oracle is not None and res.oracle["passed"]
    assert res.commits > 0
    assert res.policy_axes["vm"] == scheme.split("+")[0]
    assert res.policy_axes["cd"] == scheme.split("+")[1]


def test_hybrids_are_deterministic_per_seed():
    for scheme in HYBRIDS:
        assert (_fidelity(_run(scheme, seed=5))
                == _fidelity(_run(scheme, seed=5)))


def test_suv_lazy_hybrid_validates_and_publishes():
    res = _run("redirect+lazy+stall+serial", workload="synthetic", seed=7)
    stats = res.scheme_stats
    assert stats["published_lines"] > 0
    # lazy detection means doomed work shows up as validation failures
    # and aborts rather than eager stalls at access time
    assert res.aborts > 0
    assert res.policy_axes == {
        "vm": "redirect", "cd": "lazy",
        "resolution": "stall", "arbitration": "serial",
    }


def test_width_arbitration_changes_timing_but_not_results():
    serial = _run("redirect+lazy+stall+serial", workload="synthetic", seed=7)
    wide = _run("redirect+lazy+stall+width4", workload="synthetic", seed=7)
    assert serial.memory == wide.memory  # same functional outcome
    assert serial.commits == wide.commits
    assert wide.policy_axes["arbitration"] == "width4"


def test_spec_accepts_axes_mapping():
    spec = ExperimentSpec(
        "ssca2",
        scheme={"vm": "redirect", "cd": "lazy"},
        scale="tiny", cores=4,
    )
    assert spec.scheme == "redirect+lazy+stall+serial"
    named = ExperimentSpec(
        "ssca2", scheme="redirect+lazy+stall+serial", scale="tiny", cores=4
    )
    assert spec.spec_hash() == named.spec_hash()
    with pytest.raises(IncompatiblePolicyError):
        ExperimentSpec("ssca2", scheme={"vm": "undo", "cd": "lazy"})


def test_matrix_sweeps_axes_and_skips_illegal_combos():
    matrix = RunMatrix(
        workloads=("ssca2",),
        vms=("undo", "redirect", "buffer"),
        cds=("eager", "lazy"),
        scales=("tiny",),
        cores=(4,),
    )
    schemes = [spec.scheme for spec in matrix.specs()]
    # undo+lazy and flash+lazy are physically impossible and skipped
    assert schemes == [
        "undo+eager+stall+serial",
        "redirect+eager+stall+serial",
        "redirect+lazy+stall+serial",
        "buffer+eager+stall+serial",
        "buffer+lazy+stall+serial",
    ]
    with pytest.raises(IncompatiblePolicyError):
        RunMatrix(workloads=("ssca2",), vms=("undo",), cds=("lazy",)).specs()


def test_canonical_scheme_honours_config_resolution_and_arbitration():
    # the resolution/arbitration axes reach canonical schemes through
    # HTMConfig, so specs can sweep them without composed names
    res = _run("suv", resolution="timestamp")
    assert res.policy_axes["resolution"] == "timestamp"
    wide = _run("dyntm+suv", arbitration="width2")
    assert wide.policy_axes["arbitration"] == "width2"
    assert wide.commits > 0
    # a named scheme passes its composed spelling's legality check:
    # buffer+eager commits never arbitrate, so a width is refused
    with pytest.raises(IncompatiblePolicyError):
        _run("lazy", arbitration="width2")


def test_composed_name_fills_the_spec_axes():
    # one run, one spec: the direct spec and the matrix spec hash equal
    direct = ExperimentSpec("ssca2", scheme="redirect+lazy+stall+width2")
    assert direct.arbitration == "width2"
    (matrix,) = RunMatrix(
        workloads=("ssca2",), schemes=("redirect+lazy+stall+width2",)
    ).specs()
    assert matrix.spec_hash() == direct.spec_hash()
    # a spec must not claim an axis value its scheme does not run
    with pytest.raises(ValueError, match="resolution"):
        ExperimentSpec(
            "ssca2", scheme="redirect+lazy+stall+serial",
            resolution="timestamp",
        )
