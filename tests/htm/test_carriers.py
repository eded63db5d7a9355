"""A frame carries its version manager: carriers by scheme and by mode."""

import gc
import weakref

import pytest

from repro.config import SimConfig
from repro.htm.ops import Tx, Write
from repro.htm.policy import NAMED_SCHEMES, legal_combinations
from repro.htm.vm import AdaptiveVM, make_version_manager
from repro.htm.vm.mvsuv import MVSUV
from repro.mem.hierarchy import MemoryHierarchy
from repro.simulator import Simulator
from repro.workloads import make_workload

NAMES = [*NAMED_SCHEMES, *(c.name for c in legal_combinations())]


@pytest.mark.parametrize("name", NAMES)
def test_every_scheme_names_its_carriers(name):
    config = SimConfig(n_cores=4)
    vm = make_version_manager(name, config, MemoryHierarchy(config))
    if vm.cd_axis == "adaptive":
        assert isinstance(vm, AdaptiveVM)
        assert vm.carriers == (vm.eager, vm.lazy)
        assert vm.carrier_for("eager") is vm.eager
        assert vm.carrier_for("lazy") is vm.lazy
    else:
        assert vm.carriers == (vm,)
        for mode in ("eager", "lazy", "snapshot"):
            assert vm.carrier_for(mode) is vm


def _record_begins(sim):
    """(carrier whose hook ran, depth, mode, frame.carrier, frame.visible)
    of every frame ``sim`` begins, first attempt or retry."""
    begun = []
    for carrier in sim.scheme.carriers:
        def on_begin(core, frame, _carrier=carrier, _hook=carrier.on_begin):
            begun.append((_carrier, frame.depth, frame.mode, frame.carrier,
                          frame.visible))
            return _hook(core, frame)
        carrier.on_begin = on_begin
    return begun


def _assert_served_by_mode(scheme, begun):
    for served_by, _, mode, carrier, visible in begun:
        assert carrier is served_by is scheme.carrier_for(mode)
        assert visible is (mode == "eager")


def test_dyntm_suv_frames_carry_their_modes_carrier_and_visibility():
    """Every frame begun in a contended ``dyntm+suv`` run is served by
    its mode's carrier and is visible exactly when eager."""
    program = make_workload("genome", n_threads=16, seed=3, scale="tiny")
    sim = Simulator(SimConfig(n_cores=16), scheme="dyntm+suv", seed=3)
    begun = _record_begins(sim)
    sim.run(program.threads)
    assert {mode for _, _, mode, _, _ in begun} == {"eager", "lazy"}
    _assert_served_by_mode(sim.scheme, begun)


def test_mvsuv_snapshot_frames_are_served_hidden_by_the_mvsuv():
    """mvsuv's mode selection admits the ``starve`` readers as
    snapshot attempts: each is served by the scheme itself, an
    :class:`MVSUV`, and never joins the conflict scan."""
    program = make_workload("starve", n_threads=4, seed=3, scale="tiny")
    sim = Simulator(SimConfig(n_cores=4), scheme="mvsuv", seed=3)
    begun = _record_begins(sim)
    sim.run(program.threads)
    assert isinstance(sim.scheme, MVSUV)
    assert {mode for _, _, mode, _, _ in begun} == {"eager", "snapshot"}
    _assert_served_by_mode(sim.scheme, begun)


def test_nested_frames_inherit_the_outermost_carrier():
    def thread():
        def inner():
            yield Write(0x200, 2)

        def outer():
            yield Write(0x100, 1)
            yield Tx(inner)

        for site in (1, 2):
            yield Tx(outer, site=site)

    sim = Simulator(SimConfig(n_cores=2), scheme="dyntm+suv", seed=3)
    sim.scheme._cd._counters[2] = 3  # site 2 runs lazy
    begun = _record_begins(sim)
    res = sim.run([thread])
    assert res.commits == 2
    assert [(depth, mode) for _, depth, mode, _, _ in begun] == [
        (0, "eager"), (1, "eager"), (0, "lazy"), (1, "lazy"),
    ]
    _assert_served_by_mode(sim.scheme, begun)


@pytest.mark.parametrize("name", [*NAMED_SCHEMES, "redirect+lazy+stall"])
def test_a_finished_run_frees_its_scheme_without_the_cyclic_gc(name):
    """No reference cycle runs through a scheme or its carriers: a
    cycle would keep each run's memory hierarchy alive until a cyclic
    collection, and a process running many specs would peak higher."""
    program = make_workload("synthetic", n_threads=4, seed=3, scale="tiny")
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator(SimConfig(n_cores=4), scheme=name, seed=3)
        sim.run(program.threads)
        refs = [weakref.ref(obj) for obj in
                (sim, sim.scheme, *sim.scheme.carriers, sim.hierarchy)]
        del sim
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
