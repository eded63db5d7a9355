"""The three-axis policy decomposition: legality, parsing, scheme names."""

import pytest

from repro.config import HTMConfig, SimConfig
from repro.errors import IncompatiblePolicyError, UnknownSchemeError
from repro.htm.policy import (
    CD_AXIS,
    NAMED_SCHEMES,
    RESOLUTION_AXIS,
    VM_AXIS,
    SchemeComposition,
    iter_scheme_space,
    legal_combinations,
)
from repro.htm.vm import (
    available_schemes,
    make_version_manager,
    resolve_scheme_name,
)
from repro.mem.hierarchy import MemoryHierarchy

ALL_COMBOS = list(iter_scheme_space())


def _hierarchy(config: SimConfig) -> MemoryHierarchy:
    return MemoryHierarchy(config)


# -- legality matrix ------------------------------------------------------

def test_space_is_the_full_cross_product():
    assert len(ALL_COMBOS) == (
        len(VM_AXIS) * len(CD_AXIS) * len(RESOLUTION_AXIS)
    )
    assert len(set(ALL_COMBOS)) == len(ALL_COMBOS)


@pytest.mark.parametrize(
    "comp", ALL_COMBOS, ids=[c.name for c in ALL_COMBOS]
)
def test_every_combination_instantiates_or_raises_typed(comp):
    """Legal combos build a working VM; illegal ones explain themselves."""
    config = SimConfig(n_cores=4)
    if comp.is_legal:
        vm = make_version_manager(comp.name, config, _hierarchy(config))
        assert vm.vm_axis == comp.vm
        assert vm.cd_axis == comp.cd
    else:
        with pytest.raises(IncompatiblePolicyError) as err:
            make_version_manager(comp.name, config, _hierarchy(config))
        assert err.value.reason, "illegal combos must carry a physical reason"
        assert err.value.axes == comp.as_dict()


def test_legal_combinations_counts_by_cd_axis():
    legal = legal_combinations()
    assert len(legal) == 70
    by_cd = {cd: [c for c in legal if c.cd == cd] for cd in CD_AXIS}
    # eager: all five VMs (mvsuv included)
    assert len(by_cd["eager"]) == 5 * len(RESOLUTION_AXIS)
    # lazy: only invisible-until-commit VMs qualify
    assert {c.vm for c in by_cd["lazy"]} == {"buffer", "redirect"}
    # adaptive: needs an overflow-tolerant eager fallback
    assert {c.vm for c in by_cd["adaptive"]} == {"undo", "flash", "redirect"}
    # mvsuv needs eager detection: snapshots are stamped against the
    # publication sequence, which lazy/adaptive commit-time batching skews
    assert {c.cd for c in legal if c.vm == "mvsuv"} == {"eager"}


# -- composition value ----------------------------------------------------

def test_composed_names_normalize_and_validate():
    assert SchemeComposition().name == "redirect+eager+stall"
    assert (resolve_scheme_name("Redirect+LAZY+stall")
            == "redirect+lazy+stall")
    assert (resolve_scheme_name("redirect+eager+abort-requester")
            == "redirect+eager+abort_requester")
    with pytest.raises(IncompatiblePolicyError):
        resolve_scheme_name("undo+lazy+stall")


def test_parse_rejects_non_composition_shapes():
    assert SchemeComposition.parse("dyntm+suv") is None
    assert SchemeComposition.parse("suv") is None
    assert SchemeComposition.parse("a+b+c+d") is None
    assert SchemeComposition.parse("undo+eager+stall+serial") is None
    comp = SchemeComposition.parse("undo+eager+stall")
    assert comp is not None and comp.vm == "undo"


def test_canonical_axes_cover_every_registered_scheme():
    assert tuple(NAMED_SCHEMES) == available_schemes()
    for name, row in NAMED_SCHEMES.items():
        config = SimConfig(n_cores=4)
        scheme = make_version_manager(name, config, _hierarchy(config))
        assert (scheme.vm_axis, scheme.cd_axis) == (row.vm, row.cd)
        assert scheme.name == row.reports


# -- scheme-name lookups --------------------------------------------------

def test_resolve_scheme_name_prefers_registered_aliases():
    # two-token names stay named schemes, not compositions
    assert resolve_scheme_name("dyntm+suv") == "dyntm+suv"
    assert resolve_scheme_name("DynTM+SUV") == "dyntm+suv"
    # three-token names canonicalize through the composition parser
    assert (resolve_scheme_name("Redirect+Lazy+Stall")
            == "redirect+lazy+stall")


def test_unknown_scheme_error_is_typed_with_suggestions():
    with pytest.raises(UnknownSchemeError) as err:
        resolve_scheme_name("sub")
    assert isinstance(err.value, ValueError)
    assert err.value.name == "sub"
    assert "suv" in err.value.suggestions
    assert "did you mean" in str(err.value)
    assert "logtm-se" in str(err.value)  # lists the named schemes
    # a composed name has exactly three axes: the old arbitration
    # token is refused, with the three-token name as the suggestion
    for four_token in ("redirect+lazy+stall+serial",
                       "redirect+lazy+stall+width2"):
        with pytest.raises(UnknownSchemeError) as err:
            resolve_scheme_name(four_token)
        assert "redirect+lazy+stall" in err.value.suggestions


def test_make_version_manager_builds_composed_schemes():
    config = SimConfig(n_cores=4)
    vm = make_version_manager(
        "redirect+lazy+stall", config, _hierarchy(config)
    )
    assert vm.name == "redirect+lazy+stall"
    with pytest.raises(IncompatiblePolicyError):
        make_version_manager(
            "undo+lazy+stall", config, _hierarchy(config)
        )


def test_vm_package_exports_policy_api():
    import repro.htm.vm as vm

    for name in ("resolve_scheme", "make_version_manager", "AdaptiveVM",
                 "AdaptiveCD", "ConflictResolution",
                 "CommitArbitration", "SchemeComposition"):
        assert name in vm.__all__
        assert hasattr(vm, name)


# -- HTMConfig axes -------------------------------------------------------

def test_htmconfig_policy_spelling_is_removed():
    # the scheme name is the only spelling of the policy axes
    with pytest.raises(TypeError):
        HTMConfig(policy="stall")
    # lazy commits always take the serial token: no arbitration field
    with pytest.raises(TypeError):
        HTMConfig(arbitration="serial")


def test_htmconfig_rejects_conflicts_and_unknowns():
    # a named scheme is a fixed stall point: no config field can move
    # its resolution, so nothing can disagree with the scheme name
    with pytest.raises(TypeError):
        HTMConfig(resolution="timestamp")
