"""Tests for the named-scheme table: listing order, aliases, unknown names."""

import pytest

from repro.config import SimConfig
from repro.htm.vm import available_schemes, make_version_manager


def test_builtin_schemes_registered_in_canonical_order():
    assert available_schemes() == (
        "logtm-se", "fastm", "suv", "lazy", "dyntm", "dyntm+suv", "mvsuv"
    )


def test_aliases_resolve_to_canonical_scheme():
    from repro.mem.hierarchy import MemoryHierarchy

    config = SimConfig(n_cores=2)
    hierarchy = MemoryHierarchy(config)
    canonical = make_version_manager("logtm-se", config, hierarchy)
    for alias in ("logtmse", "logtm", "LogTM-SE", "logtm_se"):
        vm = make_version_manager(alias, config, hierarchy)
        assert type(vm) is type(canonical)


def test_unknown_scheme_lists_available():
    with pytest.raises(ValueError, match="logtm-se"):
        make_version_manager("nosuch", SimConfig(n_cores=2), None)
