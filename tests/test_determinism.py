"""Seed-determinism guarantees the perf work must not break.

Every host-side optimization (kernel fast paths, memoized hashes,
warm worker pools, Program memoization) is only admissible if the
*simulated* outcome is bit-identical: same spec + same seed must give
the same ``SimResult.to_json()`` on every run, for every scheme.
"""

import json
from pathlib import Path

import pytest

from repro.htm.vm.base import available_schemes
from repro.runner.executor import execute_spec
from repro.runner.spec import ExperimentSpec


def _spec(scheme: str) -> ExperimentSpec:
    return ExperimentSpec(
        workload="ssca2", scheme=scheme, scale="tiny", seed=3, cores=4
    )


@pytest.mark.parametrize("scheme", available_schemes())
def test_same_seed_same_result_across_runs(scheme):
    first = json.loads(execute_spec(_spec(scheme)).to_json())
    second = json.loads(execute_spec(_spec(scheme)).to_json())
    assert first == second


def test_different_seeds_diverge():
    # sanity check that the comparison above is not vacuous: the seed
    # actually reaches the workload
    base = _spec("suv")
    other = ExperimentSpec(
        workload="ssca2", scheme="suv", scale="tiny", seed=4, cores=4
    )
    a = json.loads(execute_spec(base).to_json())
    b = json.loads(execute_spec(other).to_json())
    assert a != b


#: contended configurations: (workload, cores, threads).  threads=0
#: means one thread per core; 32 threads on 8 cores multiplexes.
_CONTENDED = [("genome", 16, 0), ("yada", 8, 0), ("genome", 8, 32)]
_GOLDEN_FIELDS = json.loads(
    (Path(__file__).parent / "data" / "golden_schemes.json").read_text()
)["fields"]


@pytest.mark.parametrize("workload,cores,threads", _CONTENDED)
@pytest.mark.parametrize("scheme", available_schemes())
def test_parked_stall_polls_match_the_full_poll_path(
    scheme, workload, cores, threads
):
    # event tracing turns stall-poll parking off: every poll then takes
    # the full unstall/retry/rescan/resolve path, the reference the
    # parked polls and the conflict-scan summary must reproduce
    spec = ExperimentSpec(
        workload=workload, scheme=scheme, scale="tiny", seed=3,
        cores=cores, threads=threads,
    )
    parked = execute_spec(spec).to_dict()
    full = execute_spec(spec, trace=True).to_dict()
    for field in _GOLDEN_FIELDS:
        assert parked[field] == full[field], field
