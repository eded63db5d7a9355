"""Tests for the named-scheme table: listing order, spellings, unknown names."""

import pytest

from repro.config import SimConfig
from repro.errors import UnknownSchemeError
from repro.htm.vm import (
    available_schemes,
    make_version_manager,
    resolve_scheme_name,
)


def test_builtin_schemes_registered_in_canonical_order():
    assert available_schemes() == (
        "logtm-se", "fastm", "suv", "lazy", "dyntm", "dyntm+suv", "mvsuv"
    )


def test_spellings_fold_case_and_separators():
    from repro.mem.hierarchy import MemoryHierarchy

    config = SimConfig(n_cores=2)
    hierarchy = MemoryHierarchy(config)
    canonical = make_version_manager("logtm-se", config, hierarchy)
    for spelling in ("LogTM-SE", "logtm_se"):
        vm = make_version_manager(spelling, config, hierarchy)
        assert type(vm) is type(canonical)


@pytest.mark.parametrize("retired,named", [
    ("logtm", "logtm-se"), ("logtmse", "logtm-se"), ("dyntm-suv", "dyntm+suv"),
])
def test_retired_aliases_suggest_the_named_scheme(retired, named):
    with pytest.raises(UnknownSchemeError) as err:
        resolve_scheme_name(retired)
    assert named in err.value.suggestions


def test_unknown_scheme_lists_available():
    with pytest.raises(ValueError, match="logtm-se"):
        make_version_manager("nosuch", SimConfig(n_cores=2), None)
