"""Tests for ExperimentSpec and RunMatrix."""

import pytest

from repro.errors import ConfigError, UnknownSchemeError
from repro.runner import ExperimentSpec, RunMatrix, execute_spec


def test_spec_is_hashable_and_usable_as_dict_key():
    a = ExperimentSpec("genome")
    b = ExperimentSpec("genome")
    assert a == b
    assert {a: 1}[b] == 1


def test_overrides_freeze_dict_and_tuple_equally():
    via_dict = ExperimentSpec(
        "genome", config_overrides={"redirect.l1_entries": 64, "l2.latency": 5}
    )
    via_tuple = ExperimentSpec(
        "genome",
        config_overrides=(("l2.latency", 5), ("redirect.l1_entries", 64)),
    )
    assert via_dict == via_tuple
    assert via_dict.spec_hash() == via_tuple.spec_hash()


def test_spec_hash_is_stable_and_seed_sensitive():
    spec = ExperimentSpec("genome", scheme="suv", seed=3)
    assert spec.spec_hash() == ExperimentSpec("genome", scheme="suv", seed=3).spec_hash()
    assert spec.spec_hash() != spec.with_(seed=4).spec_hash()


def test_non_scalar_override_rejected():
    with pytest.raises(TypeError):
        ExperimentSpec("genome", config_overrides={"redirect.l1_entries": [64]})


def test_bad_scale_rejected():
    with pytest.raises(ValueError):
        ExperimentSpec("genome", scale="enormous")


def test_build_config_applies_overrides_and_knobs():
    spec = ExperimentSpec(
        "genome",
        cores=8,
        stagger=128,
        config_overrides={"redirect.l1_entries": 64, "signature.bits": 256},
    )
    config = spec.build_config()
    assert config.n_cores == 8
    assert config.htm.start_stagger == 128
    assert config.redirect.l1_entries == 64
    assert config.signature.bits == 256


def test_spec_policy_kwarg_is_removed():
    # the scheme name is the only spelling of the policy axes
    for retired in ({"policy": "abort"}, {"resolution": "abort_requester"}):
        with pytest.raises(TypeError):
            ExperimentSpec("genome", **retired)
    # lazy commits always take the serial token: no arbitration field,
    # and a four-token composed name is not a scheme
    with pytest.raises(TypeError):
        ExperimentSpec("ssca2", arbitration="serial")
    for four_token in ("redirect+lazy+stall+serial",
                       "redirect+lazy+stall+width2"):
        with pytest.raises(UnknownSchemeError):
            execute_spec(ExperimentSpec(
                "ssca2", scheme=four_token, scale="tiny", cores=4
            ))
    # a journal written before the axes went still loads where the
    # retired field says nothing the name does not
    old = dict(ExperimentSpec("ssca2").to_dict(), arbitration="serial")
    assert ExperimentSpec.from_dict(old) == ExperimentSpec("ssca2")
    old = dict(ExperimentSpec("ssca2").to_dict(), resolution="stall")
    assert ExperimentSpec.from_dict(old) == ExperimentSpec("ssca2")
    composed = ExperimentSpec("ssca2", scheme="redirect+eager+timestamp")
    old = dict(composed.to_dict(), resolution="timestamp")
    assert ExperimentSpec.from_dict(old) == composed
    # ... and a named scheme at another resolution is refused, naming
    # the composed spelling instead of loading as a stall run
    old = dict(ExperimentSpec("ssca2").to_dict(), resolution="timestamp")
    with pytest.raises(ConfigError, match="redirect\\+eager\\+timestamp"):
        ExperimentSpec.from_dict(old)


def test_build_config_rejects_unknown_paths():
    with pytest.raises(ValueError):
        ExperimentSpec(
            "genome", config_overrides={"nosuch.field": 1}
        ).build_config()
    with pytest.raises(ValueError):
        ExperimentSpec(
            "genome", config_overrides={"redirect.nosuch": 1}
        ).build_config()


def test_spec_dict_roundtrip():
    spec = ExperimentSpec(
        "genome",
        scheme="fastm",
        seed=9,
        config_overrides={"redirect.l1_entries": 64},
        workload_kwargs={"n_accounts": 32},
    )
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


def test_matrix_expands_workload_major():
    matrix = RunMatrix(
        workloads=("genome", "intruder"),
        schemes=("logtm-se", "suv"),
        seeds=(1, 2),
    )
    specs = matrix.specs()
    assert len(matrix) == len(specs) == 8
    assert [s.workload for s in specs[:4]] == ["genome"] * 4
    assert specs[0].scheme == "logtm-se" and specs[0].seed == 1
    assert specs[1].seed == 2
    assert specs[2].scheme == "suv"
    assert len(set(specs)) == 8


def test_matrix_propagates_run_knobs():
    matrix = RunMatrix(
        workloads=("genome",), verify=False, max_events=123, staggers=(7,)
    )
    (spec,) = matrix.specs()
    assert spec.verify is False
    assert spec.max_events == 123
    assert spec.stagger == 7


def test_fault_plan_and_check_affect_hash():
    base = ExperimentSpec("genome")
    assert base.spec_hash() != base.with_(fault_plan="tx-kill").spec_hash()
    assert base.spec_hash() != base.with_(check=True).spec_hash()


def test_fault_plan_shows_in_label():
    spec = ExperimentSpec("genome", fault_plan="tx-kill")
    assert "faults=tx-kill" in spec.label()
    inline = ExperimentSpec("genome", fault_plan='{"name": "x", "actions": '
                            '[{"kind": "kill_tx", "at_cycle": 1}]}')
    assert "faults=inline" in inline.label()


def test_matrix_fault_plans_axis():
    matrix = RunMatrix(
        workloads=("genome",),
        schemes=("suv",),
        fault_plans=("", "tx-kill"),
        check=True,
    )
    specs = matrix.specs()
    assert len(specs) == 2
    assert [s.fault_plan for s in specs] == ["", "tx-kill"]
    assert all(s.check for s in specs)


def test_fault_fields_roundtrip():
    spec = ExperimentSpec("genome", fault_plan="sig-storm", check=True)
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
