"""StudySpace expansion: legality filtering, matrix wiring, describe."""

import pytest

from repro.errors import IncompatiblePolicyError
from repro.htm.policy import (
    CD_AXIS,
    RESOLUTION_AXIS,
    VM_AXIS,
    legal_combinations,
)
from repro.study import StudySpace, run_study
from repro.study.report import format_markdown


def test_default_space_is_the_full_legal_space():
    space = StudySpace(workloads=("starve",))
    assert space.vms == VM_AXIS
    assert space.cds == CD_AXIS
    assert space.resolutions == RESOLUTION_AXIS
    assert len(space.combos()) == len(legal_combinations())


def test_axis_filters_slice_the_legal_space():
    space = StudySpace(
        workloads=("starve",), vms=("redirect",), cds=("eager",),
        resolutions=("stall", "greedy"),
    )
    combos = space.combos()
    # redirect × eager × {stall, greedy}
    assert len(combos) == 2
    assert all(c.vm == "redirect" and c.cd == "eager" for c in combos)


def test_illegal_slices_are_dropped_not_raised():
    # lazy excludes undo; the cross product contains only illegal pairs
    # until redirect joins the vm filter
    space = StudySpace(workloads=("starve",), vms=("undo", "redirect"),
                       cds=("lazy",))
    assert {c.vm for c in space.combos()} == {"redirect"}


def test_empty_space_raises_typed():
    space = StudySpace(workloads=("starve",), vms=("undo",), cds=("lazy",))
    with pytest.raises(IncompatiblePolicyError, match="empty study space"):
        space.matrix()


def test_unknown_axis_value_raises_typed_with_choices():
    with pytest.raises(IncompatiblePolicyError, match="choose from"):
        StudySpace(workloads=("starve",), resolutions=("gredy",))


def test_specs_cover_workloads_x_combos_x_seeds():
    space = StudySpace(
        workloads=("starve", "ssca2"), seeds=(1, 2),
        vms=("redirect",), cds=("eager",), resolutions=("stall",),
    )
    specs = space.specs()
    assert len(specs) == 2 * 1 * 2
    assert {s.workload for s in specs} == {"starve", "ssca2"}
    assert {s.seed for s in specs} == {1, 2}
    assert all(s.scheme == "redirect+eager+stall" for s in specs)
    # every study run has the atomicity oracle armed
    assert all(s.check for s in specs)


def test_axis_filters_dedup_but_keep_order():
    space = StudySpace(workloads=("starve",),
                       resolutions=("greedy", "stall", "greedy"))
    assert space.resolutions == ("greedy", "stall")


def test_describe_is_json_safe_and_complete():
    import json

    space = StudySpace(workloads=("starve",), vms=("redirect",))
    desc = space.describe()
    json.dumps(desc)
    assert desc["axes"]["vm"] == ["redirect"]
    assert desc["combos"] == len(space.combos())
    assert desc["seeds"] == [1]


def test_study_reports_an_oracle_violation_as_a_failure_not_a_rank():
    space = StudySpace(
        workloads=("synthetic",), seeds=(1,), cores=16,
        vms=("flash",), cds=("adaptive",), resolutions=("stall",),
    )
    doc = run_study(space, jobs=1)
    (failure,) = doc["failures"]
    assert failure["label"].startswith("synthetic/flash+adaptive+stall ")
    assert failure["error_type"] == "OracleViolation"
    assert format_markdown(doc).count("OracleViolation") == 1
    assert doc["per_workload"]["synthetic"]["ranking"] == []
