"""Shared infrastructure for the experiment-regeneration benchmarks.

Every paper table/figure has one bench module.  Execution goes through
the :mod:`repro.runner` subsystem: bench modules describe their run
grids as :class:`ExperimentSpec` lists (usually via :class:`RunMatrix`)
and the session-wide :class:`SimCache` memoizes results per spec, so
figures that share runs (e.g. Figure 6 and Table I) don't recompute
them.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — ``tiny`` | ``small`` (default) | ``full``.
  ``full`` gets closest to the paper's inputs (notably the L1-cache
  overflow behaviour of Table V) but takes tens of minutes.
* ``REPRO_BENCH_SEED`` — RNG seed (default 3).
* ``REPRO_BENCH_JOBS`` — worker processes for uncached runs (default 1
  = in-process serial; results are identical either way).

Each bench prints its regenerated table and also appends it to
``benchmarks/results/<name>.txt`` so the artefacts survive pytest's
output capture.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Sequence

import pytest

from repro.runner import ExperimentSpec, RunMatrix, Runner
from repro.simulator import SimResult

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "3"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: the benchmark machine: Table III CMP with realistic thread-launch skew
BENCH_CORES = 16
BENCH_STAGGER = 512
BENCH_MAX_EVENTS = 1_000_000_000

#: the paper's scheme labels
L, F, S, D, DS = "logtm-se", "fastm", "suv", "dyntm", "dyntm+suv"


def bench_spec(
    workload: str,
    scheme: str,
    scale: str | None = None,
    seed: int | None = None,
    overrides: Mapping | None = None,
    verify: bool = True,
) -> ExperimentSpec:
    """The harness's spec for one run (Table III machine, bench knobs)."""
    return ExperimentSpec(
        workload=workload,
        scheme=scheme,
        scale=scale or SCALE,
        seed=SEED if seed is None else seed,
        cores=BENCH_CORES,
        stagger=BENCH_STAGGER,
        verify=verify,
        max_events=BENCH_MAX_EVENTS,
        config_overrides=overrides or {},
    )


def bench_matrix(
    workloads: Sequence[str],
    schemes: Sequence[str],
    scale: str | None = None,
    overrides: Sequence[Mapping] = ((),),
) -> RunMatrix:
    """A RunMatrix over the harness machine (workload-major order)."""
    return RunMatrix(
        workloads=tuple(workloads),
        schemes=tuple(schemes),
        scales=(scale or SCALE,),
        seeds=(SEED,),
        cores=(BENCH_CORES,),
        staggers=(BENCH_STAGGER,),
        overrides=tuple(overrides),
        max_events=BENCH_MAX_EVENTS,
    )


class SimCache:
    """Session-wide memo of spec → result over the runner subsystem."""

    def __init__(self) -> None:
        self._memo: dict[ExperimentSpec, SimResult] = {}

    def run(self, workload: str, scheme: str, **kw) -> SimResult:
        """One run by (workload, scheme) plus :func:`bench_spec` knobs."""
        return self.run_specs([bench_spec(workload, scheme, **kw)])[0]

    def run_specs(
        self, specs: Sequence[ExperimentSpec] | RunMatrix
    ) -> list[SimResult]:
        """Results for ``specs`` in order, computing only the unmemoized."""
        if isinstance(specs, RunMatrix):
            specs = specs.specs()
        missing = [s for s in dict.fromkeys(specs) if s not in self._memo]
        if missing:
            runner = Runner(max_workers=JOBS, retries=0)
            for outcome in runner.run(missing):
                if not outcome.ok:
                    raise RuntimeError(
                        f"bench run failed: {outcome.spec.label()}: "
                        f"{outcome.error}"
                    )
                self._memo[outcome.spec] = outcome.result
        return [self._memo[s] for s in specs]

    def run_grid(
        self,
        workloads: Sequence[str],
        schemes: Sequence[str],
        scale: str | None = None,
    ) -> dict[tuple[str, str], SimResult]:
        """A (workload × scheme) grid keyed by (workload, scheme)."""
        specs = bench_matrix(workloads, schemes, scale=scale).specs()
        return {
            (spec.workload, spec.scheme): res
            for spec, res in zip(specs, self.run_specs(specs))
        }

    def run_sweep(
        self,
        workloads: Sequence[str],
        scheme: str,
        parameter: str,
        values: Sequence,
        section: str = "redirect",
    ) -> dict[tuple[str, object], SimResult]:
        """Sweep one config field; keyed by (workload, value)."""
        matrix = bench_matrix(
            workloads, (scheme,),
            overrides=[{f"{section}.{parameter}": v} for v in values],
        )
        specs = matrix.specs()
        results = self.run_specs(specs)
        keys = [(w, v) for w in workloads for v in values]
        return dict(zip(keys, results))


_session_cache = SimCache()


@pytest.fixture(scope="session")
def sim_cache() -> SimCache:
    return _session_cache


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def geomean(values: list[float]) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1 / len(values)) if values else 0.0
