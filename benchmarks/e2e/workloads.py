"""The benchmark's workloads: seeded spec lists over the paper's CMP.

Every workload runs the paper's Figure 6 trio (``logtm-se``, ``fastm``,
``suv``), the schemes that pass the atomicity oracle on every seed.  A
workload is a list of :class:`~repro.runner.spec.ExperimentSpec` built
from the benchmark seed alone; the simulator receives only the specs.

Why each workload exists (README.md has the measured numbers):

* ``hc16`` — the paper's 16-core Table III CMP on the high-contention
  apps.  Aborts dominate, so conflict scans, stall/abort resolution,
  undo-log walks and stall-retry events do most of the host work.
  bayes is left out because its input size (and so its host time)
  varies by about 70% between seeds, and labyrinth because one spec
  costs more than the other apps together.
* ``lc16`` — the same CMP on low-contention apps: Work ops and memory
  hierarchy hits, almost no policy time.  A conflict-path optimisation
  should leave it unchanged.
* ``mux32on8`` — 32 threads on 8 cores: context switches, summary
  signatures and the suspended-context conflict scan, which neither
  16-core workload reaches.
* ``campaign`` — how ``repro matrix``/``study`` users run the system:
  many short specs through a 2-worker pool and a result cache, cold and
  then warm.  The only workload that reaches ``repro.runner``.

``smoke`` variants keep each workload's shape at ``tiny`` scale and a
quarter of the cores, for the test suite.
"""

from __future__ import annotations

#: the paper's Figure 6 schemes: baseline, FasTM, SUV
SCHEMES = ("logtm-se", "fastm", "suv")

#: workload name -> (app, scale) pairs, cores, threads (0 = one per core)
_SHAPES = {
    "hc16": ((("genome", "small"), ("intruder", "small"), ("yada", "small")), 16, 0),
    "lc16": ((("kmeans", "small"), ("ssca2", "full"), ("vacation", "full")), 16, 0),
    "mux32on8": (
        (("genome", "full"), ("intruder", "full"),
         ("vacation", "full"), ("ssca2", "full")),
        8, 32,
    ),
}

#: the paper's eight STAMP apps, for ``campaign``
CAMPAIGN_APPS = (
    "bayes", "genome", "intruder", "kmeans",
    "labyrinth", "ssca2", "vacation", "yada",
)
#: seeds per app in ``campaign`` (s, s+1, ...)
CAMPAIGN_SEEDS = 4
#: pool workers for ``campaign``
CAMPAIGN_WORKERS = 2

WORKLOADS = ("hc16", "lc16", "mux32on8", "campaign")


def build_specs(name: str, seed: int, smoke: bool = False) -> list:
    """The spec list of workload ``name`` for benchmark seed ``seed``."""
    from repro.runner.spec import ExperimentSpec

    if name == "campaign":
        seeds = range(seed, seed + (2 if smoke else CAMPAIGN_SEEDS))
        apps = CAMPAIGN_APPS[:2] if smoke else CAMPAIGN_APPS
        return [
            ExperimentSpec(app, scheme=scheme, scale="tiny", seed=s, cores=4)
            for app in apps for scheme in SCHEMES for s in seeds
        ]
    if name not in _SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    apps, cores, threads = _SHAPES[name]
    if smoke:
        cores, threads = cores // 4, threads // 4
    return [
        ExperimentSpec(
            app, scheme=scheme, scale="tiny" if smoke else scale,
            seed=seed, cores=cores, threads=threads,
        )
        for app, scale in apps for scheme in SCHEMES
    ]


def build_programs(specs: list) -> list:
    """Build each spec's Program, as ``execute_spec`` does before a run."""
    from repro.workloads import make_workload

    return [
        make_workload(
            spec.workload,
            n_threads=spec.threads or spec.cores,
            seed=spec.seed,
            scale=spec.scale,
            **dict(spec.workload_kwargs),
        )
        for spec in specs
    ]
