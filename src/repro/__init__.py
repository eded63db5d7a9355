"""repro — a reproduction of "SUV: A Novel Single-Update
Version-Management Scheme for Hardware Transactional Memory Systems"
(Yan, Jiang, Feng, Tian, Tan — IPDPS 2012).

Quickstart::

    from repro import SimConfig, Simulator
    from repro.workloads import make_workload

    program = make_workload("intruder", n_threads=16, seed=1)
    result = Simulator(SimConfig(), scheme="suv").run(program.threads)
    print(result.total_cycles, result.breakdown)

Or, through the experiment-runner API (caching, matrices, process
pools) without touching ``argparse`` or the simulator directly::

    from repro import ExperimentSpec, RunMatrix, run_experiment, run_matrix

    result = run_experiment(ExperimentSpec("intruder", scheme="suv"))
    outcomes = run_matrix(
        RunMatrix(workloads=("genome", "intruder"),
                  schemes=("logtm-se", "suv")),
        max_workers=4, cache=".repro-cache",
    )

Robustness harness: every run can carry a deterministic fault plan and
be checked by the atomicity oracle::

    from repro import ExperimentSpec, run_experiment

    result = run_experiment(
        ExperimentSpec("genome", fault_plan="table-squeeze", check=True)
    )
    assert result.oracle["passed"]

Observability: arm a :class:`Tracer` for structured events and
per-phase isolation-window accounting (zero-overhead when disabled)::

    from repro import ExperimentSpec, Tracer, execute_spec

    tracer = Tracer(events=True)
    result = execute_spec(ExperimentSpec("intruder"), trace=tracer)
    print(result.phase_breakdown["isolation"])
    tracer.write_chrome_trace("trace.json")   # chrome://tracing
"""

from repro.config import SimConfig, default_config
from repro.errors import (
    BudgetExhausted,
    DeadlockError,
    InvariantViolation,
    OracleViolation,
    PoolExhausted,
    ReproError,
    SimulationError,
    TransactionError,
)
from repro.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    list_presets,
    parse_plan,
)
from repro.htm.vm.base import available_schemes
from repro.oracle import OracleRecorder, check_run
from repro.runner import (
    ArtifactStore,
    ExperimentSpec,
    ResultCache,
    RunMatrix,
    RunOutcome,
    Runner,
    execute_spec,
    run_experiment,
    run_matrix,
)
from repro.provenance import provenance
from repro.simulator import SimResult, Simulator
from repro.stats.breakdown import Breakdown
from repro.trace import LatencyHistogram, Tracer

__version__ = "1.3.0"

__all__ = [
    "ArtifactStore",
    "Breakdown",
    "BudgetExhausted",
    "DeadlockError",
    "ExperimentSpec",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "InvariantViolation",
    "LatencyHistogram",
    "OracleRecorder",
    "OracleViolation",
    "PoolExhausted",
    "ReproError",
    "ResultCache",
    "RunMatrix",
    "RunOutcome",
    "Runner",
    "SimConfig",
    "SimResult",
    "SimulationError",
    "Simulator",
    "Tracer",
    "TransactionError",
    "available_schemes",
    "check_run",
    "default_config",
    "execute_spec",
    "list_presets",
    "parse_plan",
    "provenance",
    "run_experiment",
    "run_matrix",
    "__version__",
]
