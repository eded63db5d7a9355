"""Golden-equivalence pins for the six canonical scheme names.

The digests in ``tests/data/golden_schemes.json`` were captured on the
monolithic-scheme implementation immediately *before* the policy-axis
refactor.  Every canonical name must keep producing bit-identical
per-seed results: the refactor recomposed the simulator's conflict
resolution and commit arbitration out of policy objects, and these pins
prove the recomposition is an identity for the pre-existing schemes.
The contended ``yada``/8-core and ``genome``/16-core pins were captured
later, before the stall-poll shortcut (DESIGN §11), and pin that the
shortcut leaves every result unchanged.  The multiplexed ``genome``
8-core/32-thread pins were captured before parked stall polls and the
visible-signature summary (DESIGN §11): they drive context switches,
suspended-context conflict scans and un-parks on park/mount.  The
``kmeans`` and ``vacation`` 16-core pins were captured before the event
kernel became a single heap (DESIGN §11): kmeans's barrier releases
schedule 16 zero-delay events in one cycle, whose delivery order the
heap must keep.  The short-slice pins (``slice_pins``) were captured
before the simulator's conflict scans became one function: they are
the only pins that reach its suspended-holder branches.  The carrier
pins (``carrier_pins``) were captured before each frame took its
version manager from its mode: they are the only pins that run the two
lazy-detection carriers, ``redirect+lazy+stall`` (``RedirectLazyVM``)
and ``buffer+lazy+stall`` (``LazyVM`` with every frame lazy).

The isolation pins in ``tests/data/golden_isolation.json`` hold the
raw numbers the digests hash away: simulated cycles, commits, aborts
and the isolation-window accounting (``phase_breakdown["isolation"]``)
for ssca2 and synthetic under the Figure 6 trio at seed 3, so a change
that lengthens isolation windows names the field it moved.

If a deliberate behavioural change ever invalidates them, regenerate
with the recipe in this file's ``_digest`` (and say so in the commit).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.htm.vm.base import available_schemes
from repro.runner import ExperimentSpec, execute_spec

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_schemes.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
ISOLATION = json.loads((GOLDEN_PATH.parent / "golden_isolation.json").read_text())

#: (workload, scale, seed, cores, threads) pins; small enough to run in
#: tier 1.  threads=0 means one thread per core.  The 4-core pins barely
#: stall; the yada/8 and genome/16 pins drive tens of thousands of stall
#: polls through the conflict-retry path; the genome 8-core/32-thread
#: pins do about 70 context switches each.  The kmeans and vacation
#: 16-core pins are the low-contention apps; kmeans releases all 16
#: cores from each barrier with same-cycle zero-delay events.
PINS = [
    ("ssca2", "tiny", 3, 4, 0),
    ("synthetic", "tiny", 7, 4, 0),
    ("yada", "tiny", 3, 8, 0),
    ("genome", "tiny", 3, 16, 0),
    ("genome", "tiny", 3, 8, 32),
    ("kmeans", "tiny", 3, 16, 0),
    ("vacation", "tiny", 3, 16, 0),
]


def _key(workload, scheme, scale, seed, cores, threads) -> str:
    key = f"{workload}/{scheme}/{scale}/seed{seed}/cores{cores}"
    return f"{key}/threads{threads}" if threads else key


def _digest(spec: ExperimentSpec) -> str:
    res = execute_spec(spec).to_dict()
    payload = {k: res[k] for k in GOLDEN["fields"]}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _pin_id(pin) -> str:
    *head, threads = pin
    return "-".join(map(str, pin if threads else head))


@pytest.mark.parametrize(
    "workload,scale,seed,cores,threads", PINS, ids=[_pin_id(p) for p in PINS]
)
@pytest.mark.parametrize("scheme", available_schemes())
def test_canonical_scheme_results_are_bit_identical(
    workload, scale, seed, cores, threads, scheme
):
    key = _key(workload, scheme, scale, seed, cores, threads)
    assert key in GOLDEN["pins"], f"no golden pin for {key}"
    spec = ExperimentSpec(
        workload=workload, scheme=scheme, scale=scale, seed=seed,
        cores=cores, threads=threads,
    )
    assert _digest(spec) == GOLDEN["pins"][key], (
        f"{key} diverged from its pre-refactor pin: the policy-axis "
        "decomposition must keep canonical schemes bit-identical"
    )


def test_every_golden_pin_is_exercised():
    exercised = {
        _key(workload, scheme, scale, seed, cores, threads)
        for workload, scale, seed, cores, threads in PINS
        for scheme in available_schemes()
    }
    assert exercised == set(GOLDEN["pins"])


#: (workload, scheme, scale, seed, cores, threads, time slice) pins of
#: the conflict-scan branches no PINS entry reaches: with 16 threads on
#: 4 cores, a 300-cycle time slice and no slice grace for transactions,
#: threads are suspended mid-transaction all the time, so an access
#: finds a suspended holder, a lazy commit parks behind a suspended
#: eager holder, and a lazy commit dooms a suspended lazy one (each
#: 60-150 times per run).  They stay out of PINS, which is crossed with
#: every scheme: suv and logtm-se exhaust a 2M-event budget at this
#: shape.
SLICE_PINS = [
    ("genome", "dyntm", "tiny", 3, 4, 16, 300),
    ("genome", "dyntm+suv", "tiny", 3, 4, 16, 300),
]


@pytest.mark.parametrize(
    "workload,scheme,scale,seed,cores,threads,time_slice", SLICE_PINS,
    ids=[f"{p[0]}-{p[1]}-slice{p[6]}" for p in SLICE_PINS],
)
def test_short_slice_multiplexed_results_are_bit_identical(
    workload, scheme, scale, seed, cores, threads, time_slice
):
    key = _key(workload, scheme, scale, seed, cores, threads)
    key = f"{key}/slice{time_slice}/grace1"
    spec = ExperimentSpec(
        workload=workload, scheme=scheme, scale=scale, seed=seed,
        cores=cores, threads=threads,
        config_overrides={
            "htm.time_slice": time_slice, "htm.tx_slice_grace": 1,
        },
    )
    assert _digest(spec) == GOLDEN["slice_pins"][key]


#: (workload, scale, seed, cores) shapes of the carrier pins, each run
#: under both lazy-detection carriers
CARRIER_SHAPES = [("ssca2", "tiny", 3, 4), ("genome", "tiny", 3, 16)]
CARRIER_SCHEMES = ["redirect+lazy+stall", "buffer+lazy+stall"]


@pytest.mark.parametrize(
    "workload,scale,seed,cores", CARRIER_SHAPES,
    ids=[f"{p[0]}-{p[3]}" for p in CARRIER_SHAPES],
)
@pytest.mark.parametrize("scheme", CARRIER_SCHEMES)
def test_lazy_detection_carrier_results_are_bit_identical(
    workload, scale, seed, cores, scheme
):
    key = _key(workload, scheme, scale, seed, cores, 0)
    spec = ExperimentSpec(
        workload=workload, scheme=scheme, scale=scale, seed=seed, cores=cores,
    )
    assert _digest(spec) == GOLDEN["carrier_pins"][key]


def test_every_carrier_pin_is_exercised():
    exercised = {
        _key(workload, scheme, scale, seed, cores, 0)
        for workload, scale, seed, cores in CARRIER_SHAPES
        for scheme in CARRIER_SCHEMES
    }
    assert exercised == set(GOLDEN["carrier_pins"])


@pytest.mark.parametrize(
    "key", sorted(ISOLATION), ids=lambda key: "-".join(key.split("/")[:2])
)
def test_isolation_window_accounting_is_pinned(key):
    workload, scheme, scale, seed, cores = key.split("/")
    res = execute_spec(ExperimentSpec(
        workload=workload, scheme=scheme, scale=scale,
        seed=int(seed.removeprefix("seed")),
        cores=int(cores.removeprefix("cores")),
    ))
    assert {
        "total_cycles": res.total_cycles,
        "commits": res.commits,
        "aborts": res.aborts,
        "isolation": res.phase_breakdown["isolation"],
    } == ISOLATION[key]
