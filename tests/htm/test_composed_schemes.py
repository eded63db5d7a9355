"""Composed three-axis schemes: canonical equivalence and novel hybrids."""

import pytest

from repro.errors import IncompatiblePolicyError
from repro.runner import ExperimentSpec, RunMatrix, execute_spec
from repro.study import StudySpace

#: named scheme ↔ its three-axis spelling (every named scheme is a
#: fixed stall point)
EQUIVALENTS = [
    ("logtm-se", "undo+eager+stall"),
    ("fastm", "flash+eager+stall"),
    ("suv", "redirect+eager+stall"),
    ("lazy", "buffer+eager+stall"),
    ("dyntm", "flash+adaptive+stall"),
    ("dyntm+suv", "redirect+adaptive+stall"),
]

#: the two headline hybrids the decomposition unlocks, plus lazy SUV
#: under age-based resolution — none expressible as a named scheme
HYBRIDS = [
    "redirect+lazy+stall",      # SUV-VM + lazy conflict detection
    "undo+eager+timestamp",     # eager undo + age-based resolution
    "redirect+lazy+timestamp",  # validating commits + age-based resolution
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
    res = _run("redirect+lazy+stall", workload="synthetic", seed=7)
    stats = res.scheme_stats
    assert stats["published_lines"] > 0
    # lazy detection means doomed work shows up as validation failures
    # and aborts rather than eager stalls at access time
    assert res.aborts > 0
    assert res.policy_axes == {
        "vm": "redirect", "cd": "lazy", "resolution": "stall",
    }


def test_matrix_sweeps_axes_and_skips_illegal_combos():
    space = StudySpace(
        workloads=("ssca2",),
        vms=("undo", "redirect", "buffer"),
        cds=("eager", "lazy"),
        resolutions=("stall",),
        cores=4,
    )
    schemes = [spec.scheme for spec in space.specs()]
    # undo+lazy and flash+lazy are physically impossible and skipped
    assert schemes == [
        "undo+eager+stall",
        "redirect+eager+stall",
        "redirect+lazy+stall",
        "buffer+eager+stall",
        "buffer+lazy+stall",
    ]
    with pytest.raises(IncompatiblePolicyError):
        StudySpace(workloads=("ssca2",), vms=("undo",), cds=("lazy",)).specs()


def test_named_scheme_is_a_fixed_stall_point():
    # the name sets all three axes: a named scheme runs at stall, and
    # another resolution is spelled as the composed name, which reports
    # itself; lazy commits always take the serial token, so there is no
    # arbitration to configure
    assert _run("suv").policy_axes == {
        "vm": "redirect", "cd": "eager", "resolution": "stall",
    }
    res = _run("redirect+eager+timestamp")
    assert res.scheme == "redirect+eager+timestamp"
    assert res.policy_axes == {
        "vm": "redirect", "cd": "eager", "resolution": "timestamp",
    }


def test_composed_name_fills_the_spec_axes():
    # one run, one spec: the direct spec and the matrix spec hash equal
    direct = ExperimentSpec("ssca2", scheme="Redirect+Lazy+Timestamp")
    assert direct.scheme == "redirect+lazy+timestamp"
    (matrix,) = RunMatrix(
        workloads=("ssca2",), schemes=("redirect+lazy+timestamp",)
    ).specs()
    assert matrix.spec_hash() == direct.spec_hash()
    # the name is the only spelling of the axes
    with pytest.raises(TypeError):
        ExperimentSpec(
            "ssca2", scheme="redirect+lazy+stall",
            resolution="timestamp",
        )
    with pytest.raises(IncompatiblePolicyError):
        ExperimentSpec("ssca2", scheme="undo+lazy+stall")
