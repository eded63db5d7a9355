"""The benchmark child: time one workload, check it, optionally trace it.

``run.py`` starts one child process per workload.  The child

1. imports the stack and builds the workload's spec list;
2. untraced (``trace=False``): makes :data:`PASSES` timed passes over
   the list (:data:`CAMPAIGN_PASSES` for ``campaign``), back to back,
   then one untimed pass with the atomicity oracle armed, spread over
   two processes;
3. traced (``trace=True``): makes one untraced pass, then one pass
   under the span tracer of :mod:`layers`, whose results must be
   byte-identical to the untraced ones.

The load is a closed loop: a spec starts when the previous one returns.
Serial workloads run :func:`repro.runner.executor.execute_spec`
in-process; ``campaign`` goes through ``Runner(max_workers=2)`` with a
fresh result cache, cold and then warm.

Every failure counts against ``attempted``: an exception (a budget,
oracle or workload-verify failure included), a check pass whose
``(total_cycles, commits, aborts)`` differ from the timed pass, a timed
pass whose result differs from the first pass, a warm campaign result
that is not byte-equal to the cold one, and a traced result that is not
byte-identical to the untraced one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import multiprocessing
import resource
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import layers
from reference import in_reference_s, reference_seconds
from workloads import CAMPAIGN_WORKERS

#: timed passes of an untraced run; fixed, so that a faster commit does
#: the same work as a slower one.  Two, not three: on a contended host
#: an ``hc16`` pass takes 9 s, and a run of three passes near 40 s
PASSES = 2
#: timed passes of ``campaign``, whose pass is a quarter as long and
#: fills both vCPUs while the reference runs on one: more passes keep
#: its run as long as the others' and its median steadier
CAMPAIGN_PASSES = 4
#: processes of the untimed check pass
CHECK_WORKERS = 2

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "suv_speedup_logtm": "x",
    "suv_speedup_fastm": "x",
}

#: per-layer metrics of a traced run: name -> unit
PER_LAYER = {
    "simulator.self_s": "s", "simulator.share": "fraction",
    "simulator.context_switches": "count",
    "kernel.self_s": "s", "kernel.share": "fraction", "kernel.events": "count",
    "kernel.events_per_op": "events/op", "kernel.peak_queue": "count",
    "workloads.self_s": "s", "workloads.share": "fraction", "workloads.ops": "count",
    "mem.self_s": "s", "mem.share": "fraction", "mem.calls": "count",
    "mem.l1_hit_ratio": "fraction",
    "htm.vm.self_s": "s", "htm.vm.share": "fraction", "htm.vm.calls": "count",
    "htm.vm.commit_s": "s", "htm.vm.abort_s": "s",
    "htm.policy.self_s": "s", "htm.policy.share": "fraction",
    "htm.policy.conflicts": "count",
    "htm.tx.self_s": "s", "htm.tx.share": "fraction",
    "signatures.self_s": "s", "signatures.share": "fraction",
    "signatures.calls": "count",
    "htm.commit_ratio": "fraction",
    "trace.self_s": "s", "trace.share": "fraction",
    # shares, not seconds: on the serial workloads they are exactly 0 on
    # every run, and seconds that never vary would read as unmeasured
    "runner.cache_get_share": "fraction", "runner.cache_put_share": "fraction",
    "runner.decode_share": "fraction", "runner.pool_wait_share": "fraction",
    "runner.result_kb": "KB", "runner.cache_hit_ratio": "fraction",
    "tracing.overhead": "x",
}


@dataclass
class Outcome:
    """What one execution of one spec produced."""

    spec: Any
    seconds: float
    result: Any = None
    error: str | None = None
    #: seconds of the reference computation, timed around the spec
    ref_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class Tally:
    """Attempted executions and the failures among them."""

    attempted: int = 0
    failures: list[dict[str, str]] = field(default_factory=list)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, spec: Any, kind: str, message: str) -> None:
        self.failures.append({"spec": spec.label(), "type": kind, "message": message})

    def take(self, outcome: Outcome) -> None:
        self.attempt()
        if not outcome.ok:
            kind, _, message = outcome.error.partition(": ")
            self.fail(outcome.spec, kind, message)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _digest(result: Any) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def serial_pass(specs: list, paced: bool = False) -> list[Outcome]:
    """Run every spec in-process, in order, timing each one.

    ``paced`` also times the reference computation between specs (and
    before the first and after the last); each spec's ``ref_s`` is the
    mean of the two runs around it.
    """
    from repro.runner.executor import execute_spec

    clock = time.perf_counter
    out = []
    before = reference_seconds() if paced else None
    for spec in specs:
        t0 = clock()
        try:
            outcome = Outcome(spec, 0.0, execute_spec(spec))
        except Exception as exc:  # every failure is counted, none stops the pass
            outcome = Outcome(spec, 0.0, error=_error(exc))
        outcome.seconds = clock() - t0
        if paced:
            after = reference_seconds()
            outcome.ref_s = (before + after) / 2
            before = after
        out.append(outcome)
    return out


def _join_workers() -> None:
    """Wait for pool workers the runner shut down without waiting."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def campaign_pass(specs: list, scratch: Path, worker: Any = None) -> tuple[float, list, list]:
    """One cold and one warm ``Runner`` pass over a fresh result cache.

    Returns ``(seconds, cold outcomes, warm outcomes)``; the time covers
    pool start-up, both passes and pool shutdown.
    """
    from repro.runner.cache import ResultCache
    from repro.runner.executor import Runner

    cache_dir = scratch / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with Runner(
        max_workers=CAMPAIGN_WORKERS, cache=ResultCache(cache_dir),
        retries=0, worker=worker,
    ) as runner:
        cold = runner.run(specs)
        warm = runner.run(specs)
    seconds = time.perf_counter() - t0
    _join_workers()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return seconds, cold, warm


def _campaign_outcomes(specs: list, cold: list, warm: list, tally: Tally) -> list[Outcome]:
    """Count a campaign pass; the cold results, as serial outcomes."""
    out = []
    for spec, c, w in zip(specs, cold, warm):
        for outcome in (c, w):
            tally.attempt()
            if not outcome.ok:
                tally.fail(spec, outcome.error_type or "error", outcome.error or "")
        if c.ok and w.ok and c.result.to_json() != w.result.to_json():
            tally.fail(spec, "CacheMismatch", "warm result differs from the cold one")
        out.append(Outcome(spec, c.duration_s, c.result if c.ok else None))
    return out


def _check(spec: Any) -> tuple[tuple[int, int, int] | None, str | None]:
    """Pool task of the check pass: ``(key, None)`` or ``(None, error)``."""
    from repro.runner.executor import execute_spec

    try:
        return _key(execute_spec(spec.with_(check=True))), None
    except Exception as exc:  # reported to the parent, which counts it
        return None, _error(exc)


def check_pass(specs: list, timed: list[Outcome], tally: Tally) -> None:
    """Re-run every spec with the oracle armed, on :data:`CHECK_WORKERS`
    processes: the pass is untimed, so it may use both CPUs.

    A spec passes when the oracle finds no violation and its
    ``(total_cycles, commits, aborts)`` equal the timed pass's.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=context) as pool:
        checked = list(pool.map(_check, specs))
    for spec, (key, error), before in zip(specs, checked, timed):
        tally.attempt()
        if error is not None:
            kind, _, message = error.partition(": ")
            tally.fail(spec, kind, message)
        elif before.ok and key != _key(before.result):
            tally.fail(spec, "CheckMismatch",
                       f"check pass gave {key}, timed pass {_key(before.result)}")


def _key(result: Any) -> tuple[int, int, int]:
    return (result.total_cycles, result.commits, result.aborts)


def suv_speedups(outcomes: list[Outcome]) -> dict[str, float]:
    """Geomean over (app, seed) of baseline cycles / SUV cycles."""
    cycles: dict[tuple[str, int], dict[str, int]] = {}
    for o in outcomes:
        if o.ok:
            cycles.setdefault((o.spec.workload, o.spec.seed), {})[o.spec.scheme] = (
                o.result.total_cycles
            )
    out = {}
    for metric, base in (("suv_speedup_logtm", "logtm-se"), ("suv_speedup_fastm", "fastm")):
        logs = [
            math.log(c[base] / c["suv"]) for c in cycles.values()
            if base in c and "suv" in c
        ]
        out[metric] = math.exp(statistics.fmean(logs)) if logs else float("nan")
    return out


def peak_rss_mb() -> float:
    """Max resident set of this process and its waited-for children."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def _spec_rows(outcomes: list[Outcome], samples: list[list[tuple[float, float]]]) -> list[dict]:
    rows = []
    for o, unit in zip(outcomes, samples):
        row: dict[str, Any] = {"spec": o.spec.label(), "cores": o.spec.cores,
                               "threads": o.spec.threads or o.spec.cores,
                               "seconds": [s for s, _ in unit],
                               "reference_s": [r for _, r in unit]}
        if o.ok:
            r = o.result
            row.update(total_cycles=r.total_cycles, commits=r.commits,
                       aborts=r.aborts, events=r.events_executed,
                       context_switches=r.context_switches)
        rows.append(row)
    return rows


def _timed_pass(serial: bool, specs: list, scratch: Path,
                samples: list[list[tuple[float, float]]], tally: Tally) -> list[Outcome]:
    """One timed pass: counts its outcomes in ``tally`` and appends each
    timing unit's ``(seconds, reference seconds)`` to ``samples``."""
    if serial:
        outcomes = serial_pass(specs, paced=True)
        for unit, o in zip(samples, outcomes):
            tally.take(o)
            unit.append((o.seconds, o.ref_s))
        return outcomes
    ref_before = reference_seconds()
    wall, cold, warm = campaign_pass(specs, scratch)
    samples[0].append((wall, (ref_before + reference_seconds()) / 2))
    return _campaign_outcomes(specs, cold, warm, tally)


def timed_run(name: str, specs: list, scratch: Path,
              between: Callable[[], None] | None = None) -> dict:
    """Untraced run of workload ``name`` over ``specs``: :data:`PASSES`
    timed passes, then the oracle-armed check pass.

    A *timing unit* is one spec of a serial workload, or one whole
    ``campaign`` pass (its specs overlap in the pool).  Each unit's time
    is paired with the reference computation timed around it, and the
    pass time is the sum over units of each unit's median over the
    passes, in measured seconds (``wall_s``) and in reference seconds
    (``wall_ref_s``).  ``between`` is called before each timed pass and
    after the last.
    """
    tally = Tally()
    serial = name != "campaign"
    #: per timing unit, one (seconds, reference seconds) pair per pass
    samples: list[list[tuple[float, float]]] = [[] for _ in range(len(specs) if serial else 1)]
    pass_walls: list[float] = []
    first: list[Outcome] = []
    digests: list[str | None] = []
    reference_seconds()  # the first run in a process pays the allocator's growth
    for _ in range(PASSES if serial else CAMPAIGN_PASSES):
        if between:
            between()
        t0 = time.perf_counter()
        outcomes = _timed_pass(serial, specs, scratch, samples, tally)
        pass_walls.append(time.perf_counter() - t0)
        if not first:
            first = outcomes
            digests = [_digest(o.result) if o.ok else None for o in outcomes]
        else:
            for o, ref in zip(outcomes, digests):
                if o.ok and ref is not None and _digest(o.result) != ref:
                    tally.fail(o.spec, "Nondeterminism", "result differs from the first pass")
    if between:
        between()
    # read before the check pass, whose worker processes are not part of
    # the timed load
    rss = peak_rss_mb()
    check_pass(specs, first, tally)
    # each unit is paired with the reference timed around it, not with
    # the pass's: the host's speed changes within a pass
    wall_ref_s = sum(statistics.median(in_reference_s(s, r) for s, r in unit) for unit in samples)
    metrics = {"wall_ref_s": wall_ref_s, "peak_rss_mb": rss, **suv_speedups(first)}
    diagnostics = {
        "wall_s": sum(statistics.median(s for s, _ in unit) for unit in samples),
        "reference_s": statistics.median(r for unit in samples for _, r in unit),
        "events": sum(o.result.events_executed for o in first if o.ok),
        "passes": len(pass_walls),
        "pass_walls_s": pass_walls,
        "fail_frac": len(tally.failures) / tally.attempted,
    }
    return {
        "metrics": metrics,
        "diagnostics": diagnostics,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "specs": _spec_rows(first, samples) if serial else [],
    }


def traced_run(name: str, specs: list, scratch: Path) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics."""
    tally = Tally()
    span_cost = layers.calibrate()
    rec = layers.Recorder(span_cost)
    if name == "campaign":
        plain_wall, cold, warm = campaign_pass(specs, scratch)
        plain = _campaign_outcomes(specs, cold, warm, tally)
        span_dir = scratch / "spans"
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        worker = functools.partial(layers.traced_worker, str(span_dir), span_cost)
        with layers.installed(rec):
            t0 = time.perf_counter()
            _, cold, warm = rec.span("bench", "pass", campaign_pass)(specs, scratch, worker)
            traced_wall = time.perf_counter() - t0
        traced = _campaign_outcomes(specs, cold, warm, tally)
        for path in sorted(span_dir.glob("worker-*.json")):
            rec.merge(json.loads(path.read_text()))
        shutil.rmtree(span_dir, ignore_errors=True)
    else:
        t0 = time.perf_counter()
        plain = serial_pass(specs)
        plain_wall = time.perf_counter() - t0
        with layers.installed(rec):
            t0 = time.perf_counter()
            traced = rec.span("bench", "pass", serial_pass)(specs)
            traced_wall = time.perf_counter() - t0
        for o in plain + traced:
            tally.take(o)
    for p, t in zip(plain, traced):
        if p.ok and t.ok and p.result.to_json() != t.result.to_json():
            tally.fail(p.spec, "TraceMismatch", "traced result differs from the untraced one")
    results = [o.result for o in traced if o.ok]
    report = layers.layer_report(rec)
    events = sum(r.events_executed for r in results)
    ops = report["workloads.ops"]
    attempts = sum(r.tx_attempts for r in results)
    report.update({
        "simulator.context_switches": sum(r.context_switches for r in results),
        "kernel.events": events,
        "kernel.events_per_op": events / ops if ops else 0.0,
        "kernel.peak_queue": max(
            (r.phase_breakdown.get("kernel", {}).get("peak_queue", 0) for r in results),
            default=0,
        ),
        "htm.commit_ratio": sum(r.commits for r in results) / attempts if attempts else 0.0,
        "tracing.overhead": traced_wall / plain_wall,
    })
    return {
        "metrics": {name: report[name] for name in PER_LAYER},
        "diagnostics": {
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "self_s": {
                name: report[f"{name}.self_s"]
                for name in (*layers.LAYERS, "tracing", "bench")
            },
            "runner_s": {name: report[f"runner.{name}_s"] for name in layers.RUNNER_SITES},
            "span_cost_s": list(span_cost),
            "missing_targets": rec.missing,
        },
        "attempted": tally.attempted,
        "failures": tally.failures,
    }
