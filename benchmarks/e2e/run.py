"""End-to-end benchmark of the SUV simulator at the paper's CMP.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--trace [0|1]] [--out DIR] [--smoke]

For each workload (default: all four, one after another) this process
starts one child interpreter that runs the workload (see
``harness.py``), times set-up in fresh interpreters while that child
waits between its timed passes, and prints every metric as
``workload metric value unit``.  ``--trace`` (or ``--trace 1``) runs the
traced variant and prints the per-layer metrics instead.  One JSON file
per workload goes to ``--out``; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--seconds S`` is accepted and ignored: every run makes the same fixed
number of timed passes.

The exit code is 0 when every output was correct, 1 when a spec failed,
and 2 when the benchmark could not run at all (for example, outside a
checkout holding ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import in_reference_s, reference_seconds
from workloads import WORKLOADS, build_programs, build_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: fresh interpreters timed for ``setup_s`` before each timed pass and
#: after the last; the median of all of them, in reference seconds, is
#: reported
PROBES_PER_GAP = 3
#: the line a workload child prints when it waits for set-up probes
PROBE_MARK = "setup-probes"
#: a set-up probe or a workload child that runs longer than this is
#: killed and the run fails; together they stay under three minutes
PROBE_TIMEOUT_S = 10
CHILD_TIMEOUT_S = 120


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=3)
    # accepted because BENCHMARK.json's callers pass their time budget;
    # a run's length is its fixed pass count, the same on every commit
    p.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--out", type=Path, default=HERE / "out")
    p.add_argument("--smoke", action="store_true",
                   help="tiny-scale variant of each workload, for tests")
    # internal modes: a workload child, and one set-up probe
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_env() -> dict[str, str]:
    """The environment of every child: ours without ``REPRO_*``.

    An ambient ``REPRO_ACCEL=vector``, say, would silently change what
    is measured.  ``PYTHONPATH`` names only this checkout's ``src``, and
    bytecode caching stays on, so set-up times the warm import a user
    pays on every run after the first.  OpenBLAS gets one thread: the
    simulator makes no BLAS calls, and starting its thread pool during
    numpy's import waits for a free vCPU, which made set-up times jump
    between two levels about 70 ms apart.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def setup_probe(args: argparse.Namespace) -> None:
    """Import the stack, build the workload's specs and Programs; print
    the seconds that took and the reference seconds around it."""
    reference_seconds()  # the first run in a process pays the allocator's growth
    before = reference_seconds()
    t0 = time.perf_counter()
    import repro.runner.executor  # noqa: F401

    build_programs(build_specs(args.workload[0], args.seed, args.smoke))
    seconds = time.perf_counter() - t0
    print(seconds, (before + reference_seconds()) / 2)


def child(args: argparse.Namespace) -> None:
    """Run one workload in this process; write its JSON to ``--out``."""
    import harness
    import numpy
    from repro.provenance import provenance

    name = args.workload[0]
    specs = build_specs(name, args.seed, args.smoke)
    scratch = args.out / f"scratch-{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            report = harness.traced_run(name, specs, scratch)
        else:
            report = harness.timed_run(name, specs, scratch, between=_await_probes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # git revision and dirty flag, interpreter and host
    report["provenance"] = {
        **provenance(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
    }
    _result_path(args, name).write_text(json.dumps(report, indent=1, sort_keys=True))


def _await_probes() -> None:
    """Ask the parent for set-up probes and wait until they are done."""
    print(PROBE_MARK, flush=True)
    sys.stdin.readline()


def _result_path(args: argparse.Namespace, name: str) -> Path:
    return args.out / f"{name}{'-trace' if args.trace else ''}.json"


def _common_args(args: argparse.Namespace, name: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(args.out)]
    return cmd + (["--smoke"] if args.smoke else [])


def probe_setup(args: argparse.Namespace, name: str) -> tuple[float, float]:
    """Set-up seconds of workload ``name`` in one fresh interpreter, and
    the reference seconds timed around them."""
    out = subprocess.run(_common_args(args, name) + ["--setup-probe"], env=_child_env(),
                         cwd=ROOT, timeout=PROBE_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    out.check_returncode()
    seconds, reference = map(float, out.stdout.split()[-2:])
    return seconds, reference


def run_child(args: argparse.Namespace, name: str) -> list[tuple[float, float]]:
    """Run the workload's child; the ``(seconds, reference seconds)`` of
    the set-up probes it asked for.

    Set-up time drifts with the host's speed in phases of several
    seconds, so probes run between the child's timed passes, where the
    child waits for them, rather than back to back.
    """
    probes: list[tuple[float, float]] = []
    with subprocess.Popen(_common_args(args, name) + ["--child"], env=_child_env(), cwd=ROOT,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == PROBE_MARK:
                    probes += [probe_setup(args, name) for _ in range(PROBES_PER_GAP)]
                    proc.stdin.write("\n")
                    proc.stdin.flush()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return probes


def run_workload(args: argparse.Namespace, name: str) -> dict:
    """The workload's child and its set-up probes; its report."""
    from harness import END_TO_END, PER_LAYER

    load_before = os.getloadavg()
    path = _result_path(args, name)
    path.unlink(missing_ok=True)
    probes = run_child(args, name)
    report = json.loads(path.read_text())
    if not args.trace:
        report["metrics"]["setup_s"] = statistics.median(in_reference_s(s, r) for s, r in probes)
        report["diagnostics"]["setup_measured_s"] = statistics.median(s for s, _ in probes)
        report["diagnostics"]["setup_probes_s"] = [s for s, _ in probes]
        report["diagnostics"]["setup_reference_s"] = [r for _, r in probes]
    units = PER_LAYER if args.trace else END_TO_END
    report["metrics"] = {k: report["metrics"][k] for k in units}
    report["units"] = units
    report["workload"] = name
    report["seed"] = args.seed
    report["smoke"] = args.smoke
    report["provenance"]["loadavg_before"] = load_before
    report["provenance"]["loadavg_after"] = os.getloadavg()
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return report


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.child:
        child(args)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        reports = [run_workload(args, name) for name in args.workload]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        name = report["workload"]
        for failure in report["failures"]:
            print(f"FAIL {name} {failure['spec']} {failure['type']}: {failure['message']}")
        for metric, value in report["metrics"].items():
            unit = report["units"][metric]
            print(f"{name} {metric} {value!r} {unit}")
            key = metric if len(reports) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        for metric, value in report["diagnostics"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                print(f"{name} {metric} {value!r} (diagnostic)")
        attempted += report["attempted"]
        failed += len(report["failures"])
    correct = failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values()
    )
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
