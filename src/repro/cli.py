"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one workload under one scheme and print the
  breakdown and scheme statistics.
* ``compare`` — run several schemes on one workload and print the
  Figure 6/9-style normalized comparison.
* ``sweep`` — sweep one redirect-table parameter (Figure 7/8 style).
* ``matrix`` — run a (workload × scheme × seed) matrix across worker
  processes, with on-disk result caching; ``--resume JOURNAL``
  checkpoints every spec to a write-ahead journal so a killed campaign
  resumes where it died.
* ``cache`` — verify (checksums) or summarize the on-disk result cache;
  corrupt entries are quarantined, never silently trusted.
* ``chaos`` — chaos campaigns against the runner itself: inject worker
  crashes/hangs/corruption, kill the campaign mid-flight, resume it,
  and audit the resilience invariants.
* ``faults`` — run a fault-injection campaign (schemes × workloads ×
  fault plans) with the atomicity oracle enabled on every run.
* ``study`` — design-space study: sweep the legal policy space over a
  workload set, rank combinations, compute per-workload Pareto fronts
  over (cycles, aborts, pool high-water) and write a schema-versioned
  ``STUDY_<date>.json``; ``study report`` re-renders one, ``study
  compare`` diffs two modulo volatile sections (the determinism gate).
* ``hwcost`` — print the Table VII / Section V-C hardware-cost report.
* ``list`` — list workloads, schemes and fault-plan presets.

Host performance is measured outside the CLI, by
``benchmarks/e2e/run.py`` (gated in CI by ``benchmarks/gate.py``).

The commands are thin adapters over the :mod:`repro.runner` API:
``argparse`` namespaces become :class:`~repro.runner.ExperimentSpec`
values, which the library-level :func:`~repro.runner.run_experiment` /
:func:`~repro.runner.run_matrix` execute.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.config import SimConfig
from repro.errors import IncompatiblePolicyError, UnknownSchemeError
from repro.faults import list_presets
from repro.htm.policy import RESOLUTION_AXIS
from repro.htm.vm.base import available_schemes, resolve_scheme_name
from repro.runner import (
    ArtifactStore,
    CampaignReport,
    ExperimentSpec,
    ResultCache,
    RunMatrix,
    Runner,
    run_experiment,
    run_matrix,
)
from repro.runner.chaos import CHAOS_PRESETS
from repro.simulator import SimResult
from repro.stats.report import (
    format_breakdown_table,
    format_phase_table,
    format_table,
)
from repro.workloads import WORKLOAD_NAMES

SCHEMES = available_schemes()

_WORKLOAD_CHOICES = WORKLOAD_NAMES + ("synthetic",)


def _scheme_name(value: str) -> str:
    """``argparse`` type: any named or composed scheme name."""
    try:
        return resolve_scheme_name(value)
    except (UnknownSchemeError, IncompatiblePolicyError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _scheme_from_args(args: argparse.Namespace, scheme: str):
    """The scheme the namespace describes: per-axis flags override."""
    if getattr(args, "vm", None) or getattr(args, "cd", None):
        return {
            "vm": args.vm or "redirect",
            "cd": args.cd or "eager",
            "resolution": args.resolution,
        }
    return scheme


def _spec_from_args(
    args: argparse.Namespace, scheme, **config_overrides
) -> ExperimentSpec:
    """The experiment an ``argparse`` namespace describes."""
    versions_k = getattr(args, "versions_k", 0)
    if versions_k:
        config_overrides.setdefault("redirect.versions_k", versions_k)
    return ExperimentSpec(
        workload=args.workload,
        scheme=scheme,
        scale=args.scale,
        seed=args.seed,
        cores=args.cores,
        threads=args.threads,
        resolution=args.resolution,
        stagger=args.stagger,
        verify=not args.no_verify,
        config_overrides=config_overrides,
        fault_plan=getattr(args, "fault_plan", "") or "",
        check=getattr(args, "check", False),
    )


def _build_config(args: argparse.Namespace, **redirect_overrides) -> SimConfig:
    """Thin adapter kept for back-compat: the SimConfig of ``args``."""
    overrides = {f"redirect.{k}": v for k, v in redirect_overrides.items()}
    return _spec_from_args(args, "suv", **overrides).build_config()


def _run_one(
    args: argparse.Namespace, scheme: str, **config_overrides
) -> SimResult:
    """Thin adapter over :func:`run_experiment` for one CLI run."""
    return run_experiment(_spec_from_args(args, scheme, **config_overrides))


def _run_specs(args: argparse.Namespace, specs: list[ExperimentSpec]) -> list[SimResult]:
    """Run CLI specs through the runner; exits non-zero on any failure."""
    outcomes = run_matrix(specs, max_workers=getattr(args, "jobs", 1), retries=0)
    failed = [out for out in outcomes if not out.ok]
    if failed:
        for out in failed:
            print(f"error: {out.spec.label()}: {out.error}", file=sys.stderr)
        raise SystemExit(1)
    return [out.result for out in outcomes]


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, _scheme_from_args(args, args.scheme))
    scheme_label = spec.scheme
    if args.trace:
        from repro.runner import execute_spec
        from repro.trace import Tracer

        tracer = Tracer(events=True)
        res = execute_spec(spec, trace=tracer)
        if args.trace_format == "chrome":
            tracer.write_chrome_trace(args.trace)
        else:
            tracer.write_jsonl(args.trace)
        print(f"trace: {res.phase_breakdown['events']['recorded']} events "
              f"({res.phase_breakdown['events']['dropped']} dropped) "
              f"-> {args.trace} [{args.trace_format}]")
    else:
        res = run_experiment(spec)
    if res.policy_axes:
        print("axes:", " ".join(
            f"{axis}={value}" for axis, value in res.policy_axes.items()
        ))
    print(f"{args.workload} under {scheme_label}: "
          f"{res.total_cycles:,} cycles, {res.commits} commits, "
          f"{res.aborts} aborts (ratio {res.abort_ratio:.1%}), "
          f"{res.n_threads} threads, "
          f"{res.context_switches} context switches")
    if res.fault_trace:
        hits = sum(1 for ev in res.fault_trace if ev.get("hit"))
        print(f"faults: {len(res.fault_trace)} events injected "
              f"({hits} hit)")
    if res.oracle is not None:
        print("oracle:", "PASSED" if res.oracle.get("passed") else "FAILED",
              f"({res.oracle.get('reads_checked', 0)} reads checked, "
              f"{res.oracle.get('entries', 0)} serial entries)")
    rows = [(k, v, f"{res.breakdown.fraction(k):.1%}")
            for k, v in res.breakdown.as_dict().items()]
    print(format_table(["component", "cycles", "share"], rows))
    if res.phase_breakdown:
        print()
        print(format_phase_table({scheme_label: res.phase_breakdown}))
    if args.stats:
        stats = [(k, v) for k, v in sorted(res.scheme_stats.items()) if v]
        print()
        print(format_table(["statistic", "value"], stats))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    specs = [_spec_from_args(args, scheme) for scheme in args.schemes]
    results = dict(zip(args.schemes, _run_specs(args, specs)))
    for scheme in args.schemes:
        print(f"{scheme:10s} {results[scheme].total_cycles:>12,} cycles")
    print()
    print(format_breakdown_table(
        {k: v.breakdown for k, v in results.items()},
        baseline=args.schemes[0],
        title=f"{args.workload} — normalized to {args.schemes[0]}",
    ))
    return 0


#: sweep stat columns by preference: the SUV redirect-table keys when the
#: scheme reports them, otherwise the undo-log/cache counters every
#: scheme carries — so a ``--scheme logtm-se`` sweep no longer prints
#: misleading all-zero SUV columns.
_SWEEP_TABLE_STATS = (
    ("table_l1_miss_rate", "L1-table miss rate", lambda v: f"{v:.3f}"),
    ("table_l2_overflows", "L2 ovf", lambda v: int(v)),
)
_SWEEP_GENERIC_STATS = (
    ("log_writes", "log writes", lambda v: int(v)),
    ("log_restores", "log restores", lambda v: int(v)),
    ("cache_overflows", "cache ovf", lambda v: int(v)),
)


def _sweep_stat_columns(results: list[SimResult]):
    present: set[str] = set()
    for res in results:
        present.update(res.scheme_stats)
    columns = [c for c in _SWEEP_TABLE_STATS if c[0] in present]
    return columns or [c for c in _SWEEP_GENERIC_STATS if c[0] in present]


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = [
        _spec_from_args(args, args.scheme,
                        **{f"redirect.{args.parameter}": value})
        for value in args.values
    ]
    results = _run_specs(args, specs)
    columns = _sweep_stat_columns(results)
    rows = [
        [value, res.total_cycles,
         *(fmt(res.scheme_stats.get(key, 0.0)) for key, _, fmt in columns)]
        for value, res in zip(args.values, results)
    ]
    print(format_table(
        [args.parameter, "exec cycles", *(header for _, header, _ in columns)],
        rows,
        title=f"{args.workload} / {args.scheme} — sweep of {args.parameter}",
    ))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    matrix = RunMatrix(
        workloads=tuple(args.workloads),
        schemes=tuple(args.schemes),
        vms=tuple(args.vms),
        cds=tuple(args.cds),
        scales=(args.scale,),
        seeds=tuple(args.seeds),
        cores=(args.cores,),
        threads=(args.threads,),
        resolutions=(args.resolution,),
        staggers=(args.stagger,),
        fault_plans=tuple(getattr(args, "fault_plans", None) or ("",)),
        verify=not args.no_verify,
        check=getattr(args, "check", False),
    )
    specs = matrix.specs()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    artifacts = ArtifactStore(args.artifacts) if args.artifacts else None
    runner = Runner(
        max_workers=args.jobs or None,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
        artifacts=artifacts,
        progress=not args.quiet,
        journal=getattr(args, "resume", None) or None,
    )
    started = time.monotonic()
    try:
        outcomes = [out for out in runner.run(specs) if out is not None]
    finally:
        runner.close()
    elapsed = time.monotonic() - started

    rows = []
    for out in outcomes:
        res = out.result
        rows.append([
            out.spec.workload, out.spec.scheme, out.spec.seed,
            f"{res.total_cycles:,}" if res else "-",
            res.commits if res else "-",
            res.aborts if res else "-",
            f"{res.abort_ratio:.1%}" if res else "-",
            "cache" if out.cached else
            (f"{out.duration_s:.1f}s" if out.ok else "FAILED"),
        ])
    print(format_table(
        ["workload", "scheme", "seed", "cycles", "commits", "aborts",
         "abort%", "source"],
        rows,
        title=f"matrix — {len(specs)} specs at scale {args.scale}, "
              f"{args.cores} cores",
    ))
    hits = sum(1 for out in outcomes if out.cached)
    failed = [out for out in outcomes if not out.ok]
    print()
    print(f"{len(specs)} specs | {len(specs) - len(failed)} ok, "
          f"{len(failed)} failed | cache hits {hits}/{len(specs)} "
          f"({hits / len(specs):.0%}) | workers={runner.max_workers} | "
          f"{elapsed:.1f}s")
    report = CampaignReport.collect(
        outcomes, runner=runner, cache=cache, wall_s=elapsed
    )
    print()
    print(report.format())
    if artifacts is not None:
        artifacts.append_report(report.to_dict())
    return 1 if failed else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Verify (checksums) or summarize the on-disk result cache."""
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        for key, value in sorted(cache.stats().items()):
            print(f"{key:18s}: {value}")
        return 0
    report = cache.verify()
    print(f"cache verify: {report['checked']} entries checked, "
          f"{report['ok']} ok, {len(report['quarantined'])} quarantined")
    for entry in report["quarantined"]:
        print(f"  quarantined {entry['entry']}: {entry['reason']}")
    if report["quarantined"]:
        print(f"quarantined entries moved to "
              f"{os.path.join(args.cache_dir, 'quarantine')}")
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos campaigns against the runner: kill, resume, audit.

    One campaign per (preset × chaos seed): the spec matrix runs under
    injected faults, is killed mid-flight, resumed over the same journal
    and cache, and audited against the resilience invariants (no spec
    lost, none completed twice, resume converges, results byte-identical
    to an uninterrupted run, failures typed).  Exits non-zero if any
    campaign violates an invariant.
    """
    from repro.runner import execute_spec
    from repro.runner.chaos import (
        chaos_plan,
        run_chaos_campaign,
        write_chaos_report,
    )

    matrix = RunMatrix(
        workloads=tuple(args.workloads),
        schemes=tuple(args.schemes),
        scales=(args.scale,),
        seeds=(args.sim_seed,),
        cores=(args.cores,),
    )
    specs = matrix.specs()
    # one uninterrupted reference run, shared by every campaign
    reference = {s.spec_hash(): execute_spec(s).to_json() for s in specs}
    rows = []
    reports = []
    for preset in args.presets:
        for chaos_seed in args.seeds:
            plan = chaos_plan(preset, seed=chaos_seed)
            if args.hang_s is not None:
                plan = plan.with_(hang_s=args.hang_s)
            root = os.path.join(args.root, f"{preset}-s{chaos_seed}")
            verdict = run_chaos_campaign(
                specs, plan, root,
                jobs=args.jobs,
                timeout=args.timeout,
                retries=args.retries,
                kill_after=args.kill_after,
                reference=reference,
            )
            write_chaos_report(verdict, os.path.join(root, "report.json"))
            reports.append(verdict)
            fired = ", ".join(
                f"{kind}×{n}"
                for kind, n in sorted(verdict.faults_fired.items())
            ) or "-"
            rows.append([
                preset, chaos_seed, verdict.n_specs, verdict.killed_after,
                fired, "pass" if verdict.passed else "FAIL",
            ])
    print(format_table(
        ["preset", "seed", "specs", "killed@", "faults fired", "verdict"],
        rows,
        title=f"chaos — {len(reports)} campaigns over {len(specs)} specs "
              f"at scale {args.scale}",
    ))
    failures = [r for r in reports if not r.passed]
    print()
    print(f"{len(reports)} campaigns | {len(reports) - len(failures)} passed, "
          f"{len(failures)} failed | reports under {args.root}/")
    for verdict in failures:
        for violation in verdict.violations:
            print(f"VIOLATION [{verdict.plan} seed={verdict.seed}]: "
                  f"{violation}")
    return 1 if failures else 0


def cmd_faults(args: argparse.Namespace) -> int:
    """A fault-injection campaign with the oracle armed on every run.

    Crosses schemes × workloads × fault plans (always including the
    fault-free baseline) and prints one row per run: cycles, aborts,
    injected fault events, and the oracle verdict.  Exits non-zero if
    any run fails its oracle or crashes.
    """
    plans = ("",) + tuple(args.plans)
    matrix = RunMatrix(
        workloads=tuple(args.workloads),
        schemes=tuple(args.schemes),
        scales=(args.scale,),
        seeds=(args.seed,),
        cores=(args.cores,),
        threads=(args.threads,),
        resolutions=(args.resolution,),
        staggers=(args.stagger,),
        fault_plans=plans,
        verify=not args.no_verify,
        check=True,
    )
    specs = matrix.specs()
    outcomes = run_matrix(
        specs, max_workers=args.jobs or None, retries=0, cache=None
    )
    rows = []
    failures = 0
    for out in outcomes:
        res = out.result
        if res is None:
            failures += 1
            rows.append([
                out.spec.workload, out.spec.scheme,
                out.spec.fault_plan or "(none)", "-", "-", "-",
                f"ERROR: {out.error}",
            ])
            continue
        injected = sum(1 for ev in res.fault_trace if ev.get("hit"))
        verdict = "pass" if (res.oracle or {}).get("passed") else "FAIL"
        if verdict == "FAIL":
            failures += 1
        rows.append([
            out.spec.workload, out.spec.scheme,
            out.spec.fault_plan or "(none)",
            f"{res.total_cycles:,}", res.aborts, injected, verdict,
        ])
    print(format_table(
        ["workload", "scheme", "fault plan", "cycles", "aborts",
         "faults hit", "oracle"],
        rows,
        title=f"fault campaign — {len(specs)} runs at scale {args.scale}, "
              f"oracle armed",
    ))
    print()
    print(f"{len(specs)} runs | {len(specs) - failures} ok, "
          f"{failures} failed")
    return 1 if failures else 0


def cmd_hwcost(args: argparse.Namespace) -> int:
    from repro.hwcost.cacti import CactiLite
    from repro.hwcost.storage import suv_overhead_report

    rows = [
        (e.tech_nm, e.access_time_ns, e.read_energy_nj, e.write_energy_nj,
         e.area_mm2, e.cycles_at(1.2))
        for e in CactiLite().table_vii()
    ]
    print(format_table(
        ["tech (nm)", "access (ns)", "read (nJ)", "write (nJ)",
         "area (mm²)", "cycles @1.2GHz"],
        rows, title="Table VII — first-level redirect table (CACTI-lite)",
    ))
    print()
    print(format_table(
        ["figure", "value"],
        [(k, f"{v:.4g}") for k, v in suv_overhead_report().items()],
        title="Section V-C overhead report",
    ))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads:", ", ".join(_WORKLOAD_CHOICES))
    print("schemes  :", ", ".join(SCHEMES), "(+ composed, see `repro schemes`)")
    print("scales   : tiny, small, full")
    print("fault plans:", ", ".join(list_presets()))
    return 0


def _schemes_doc() -> dict:
    """The named schemes + policy space as one JSON-friendly document."""
    from repro.htm.policy import (
        CD_AXIS,
        NAMED_SCHEMES,
        RESOLUTION_AXIS,
        VM_AXIS,
        iter_scheme_space,
    )

    legal, illegal = [], []
    for comp in iter_scheme_space():
        reason = comp.illegal_reason()
        if reason is None:
            legal.append(comp.name)
        else:
            illegal.append({"axes": comp.as_dict(), "reason": reason})
    return {
        "axes": {
            "vm": list(VM_AXIS),
            "cd": list(CD_AXIS),
            "resolution": list(RESOLUTION_AXIS),
        },
        "canonical": [
            {"name": name, "vm": row.vm, "cd": row.cd}
            for name, row in NAMED_SCHEMES.items()
        ],
        "legal": legal,
        "illegal": illegal,
        "counts": {"legal": len(legal), "total": len(legal) + len(illegal)},
    }


def scheme_table_markdown() -> str:
    """The README scheme table, generated from the named-scheme table."""
    doc = _schemes_doc()
    lines = [
        "| Scheme | VM axis | CD axis | Resolution |",
        "|--------|---------|---------|------------|",
    ]
    for row in doc["canonical"]:
        lines.append(
            f"| `{row['name']}` | {row['vm']} | {row['cd']} "
            "| config (`stall`) |"
        )
    counts = doc["counts"]
    lines.append("")
    lines.append(
        f"Composed names cover the legal subset of the three-axis space "
        f"({counts['legal']} of {counts['total']} combinations; "
        "`repro schemes --list` prints them all)."
    )
    return "\n".join(lines)


def cmd_schemes(args: argparse.Namespace) -> int:
    """Describe the named schemes and the composed policy space."""
    doc = _schemes_doc()
    if args.json:
        if args.list:
            print(json.dumps(doc["legal"], indent=2))
        else:
            print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.markdown:
        print(scheme_table_markdown())
        return 0
    if args.list:
        for name in doc["legal"]:
            print(name)
        return 0
    print(format_table(
        ["scheme", "vm", "cd"],
        [[row["name"], row["vm"], row["cd"]] for row in doc["canonical"]],
        title="canonical schemes (resolution from HTMConfig)",
    ))
    print()
    for axis, values in doc["axes"].items():
        print(f"{axis:12s}: {', '.join(values)}")
    counts = doc["counts"]
    print(f"\ncomposed space: {counts['legal']} legal of "
          f"{counts['total']} vm+cd+resolution combinations "
          "(`repro schemes --list`)")
    return 0


#: resolution choices come from the policy registry, never a hardcoded
#: list — new contention managers appear in every ``--resolution`` flag
#: (and in ``repro schemes``) the moment they are registered
_RESOLUTIONS = RESOLUTION_AXIS


def _split_commas(values: list[str]) -> tuple[str, ...]:
    """Flatten ``["a,b", "c"]`` → ``("a", "b", "c")`` (argparse helper)."""
    out: list[str] = []
    for value in values:
        out.extend(v for v in value.split(",") if v)
    return tuple(out)


def cmd_study(args: argparse.Namespace) -> int:
    """Design-space study: sweep, rank, Pareto-front, report."""
    from repro.study import (
        StudySpace,
        compare_studies,
        format_csv,
        format_markdown,
        load_study,
        run_study,
        write_study,
    )

    sub_cmd = getattr(args, "study_cmd", None)
    if sub_cmd == "report":
        doc = load_study(args.study_file)
        print(format_csv(doc) if args.csv else format_markdown(doc), end="")
        return 0
    if sub_cmd == "compare":
        problems = compare_studies(
            load_study(args.baseline), load_study(args.current)
        )
        if problems:
            print(f"{len(problems)} difference(s) "
                  f"(volatile sections ignored):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print("studies identical (volatile sections ignored)")
        return 0

    try:
        space = StudySpace(
            workloads=_split_commas(args.workloads),
            scale=args.scale,
            seeds=tuple(args.seeds),
            cores=args.cores,
            threads=args.threads,
            stagger=args.stagger,
            vms=_split_commas(args.vms),
            cds=_split_commas(args.cds),
            resolutions=_split_commas(args.resolutions),
            verify=not args.no_verify,
        )
        space.matrix()  # raises typed when the filters leave nothing
    except IncompatiblePolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    unknown = [w for w in space.workloads if w not in _WORKLOAD_CHOICES]
    if unknown:
        print(f"error: unknown workload(s): {', '.join(unknown)} "
              f"(see `repro list`)", file=sys.stderr)
        return 2
    if not args.quiet:
        desc = space.describe()
        print(f"study: {len(space.workloads)} workload(s) × "
              f"{desc['combos']} legal combos × {len(space.seeds)} seed(s) "
              f"= {len(space.specs())} runs", file=sys.stderr)
    doc = run_study(
        space,
        jobs=args.jobs or None,
        cache_dir=None if args.no_cache else args.cache_dir,
        journal=getattr(args, "resume", None) or None,
        timeout=args.timeout,
        retries=args.retries,
        progress=not args.quiet,
    )
    path = write_study(doc, args.out, date=args.date)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_markdown(doc), end="")
    print(f"\nstudy written to {path}", file=sys.stderr)
    return 1 if doc["failures"] else 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cores", type=int, default=16)
    p.add_argument("--threads", type=int, default=0,
                   help="software threads (default = cores; more than "
                        "cores enables time-multiplexing)")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--scale", choices=("tiny", "small", "full"),
                   default="small")
    p.add_argument("--resolution", choices=_RESOLUTIONS,
                   default="stall",
                   help="conflict-resolution axis")
    p.add_argument("--stagger", type=int, default=512)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the workload's functional verifier")
    p.add_argument("--fault-plan", default="",
                   help="fault plan: a preset name (see `repro list`) "
                        "or inline FaultPlan JSON")
    p.add_argument("--check", action="store_true",
                   help="run the atomicity oracle after the simulation")
    p.add_argument("--versions-k", type=int, default=0,
                   help="mvsuv: committed versions retained per line "
                        "(0 = config default)")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = in-process serial)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUV-TM reproduction (Yan et al., IPDPS 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one workload under one scheme")
    p.add_argument("workload", choices=_WORKLOAD_CHOICES)
    p.add_argument("scheme", type=_scheme_name, nargs="?", default="suv",
                   help="a named scheme or a composed "
                        "vm+cd+resolution name")
    p.add_argument("--vm",
                   choices=("undo", "flash", "redirect", "buffer", "mvsuv"),
                   help="version-management axis; with --cd/--resolution "
                        "this composes a scheme and overrides the "
                        "positional name")
    p.add_argument("--cd", choices=("eager", "lazy", "adaptive"),
                   help="conflict-detection axis (see --vm)")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="record the event trace to PATH (bypasses the "
                        "result cache)")
    p.add_argument("--trace-format", choices=("chrome", "jsonl"),
                   default="chrome",
                   help="chrome = load in chrome://tracing / Perfetto; "
                        "jsonl = one event object per line")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="compare schemes on one workload")
    p.add_argument("workload", choices=_WORKLOAD_CHOICES)
    p.add_argument("--schemes", nargs="+", default=["logtm-se", "fastm", "suv"],
                   type=_scheme_name)
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="sweep a redirect-table parameter")
    p.add_argument("workload", choices=_WORKLOAD_CHOICES)
    p.add_argument("parameter",
                   choices=("l1_entries", "l2_entries", "l2_latency"))
    p.add_argument("values", type=int, nargs="+")
    p.add_argument("--scheme", default="suv", type=_scheme_name)
    _add_common(p)
    _add_jobs(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "matrix",
        help="run a workload×scheme×seed matrix in parallel, with caching",
    )
    p.add_argument("--workloads", nargs="+", default=["ssca2", "intruder",
                                                      "kmeans", "vacation"],
                   choices=_WORKLOAD_CHOICES)
    p.add_argument("--schemes", nargs="+", default=["logtm-se", "fastm", "suv"],
                   type=_scheme_name)
    p.add_argument("--vms", nargs="+", default=[],
                   choices=("undo", "flash", "redirect", "buffer", "mvsuv"),
                   help="version-management axis sweep; with --cds/"
                        "--resolution replaces --schemes by the legal "
                        "composed cross product")
    p.add_argument("--cds", nargs="+", default=[],
                   choices=("eager", "lazy", "adaptive"),
                   help="conflict-detection axis sweep (see --vms)")
    p.add_argument("--seeds", type=int, nargs="+", default=[3])
    p.add_argument("--scale", choices=("tiny", "small", "full"),
                   default="tiny")
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--resolution", choices=_RESOLUTIONS,
                   default="stall")
    p.add_argument("--stagger", type=int, default=512)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--fault-plans", nargs="+", default=[],
                   help="fault-plan axis (preset names or inline JSON)")
    p.add_argument("--check", action="store_true",
                   help="run the atomicity oracle after every run")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = auto, at least 2)")
    p.add_argument("--cache-dir",
                   default=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    p.add_argument("--no-cache", action="store_true",
                   help="recompute everything, touch no cache")
    p.add_argument("--timeout", type=float, default=900.0,
                   help="per-run timeout in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="verbatim retries of a timed-out, crashed or "
                        "corrupt run; a simulation error is never retried")
    p.add_argument("--artifacts", metavar="PATH",
                   help="append one JSONL record per run to PATH")
    p.add_argument("--resume", metavar="JOURNAL",
                   help="write-ahead campaign journal: every spec's state "
                        "is checkpointed to JOURNAL, and re-running with "
                        "the same path resumes a killed campaign")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-run progress lines")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser(
        "cache",
        help="verify (checksums) or summarize the result cache",
    )
    p.add_argument("action", choices=("verify", "stats"))
    p.add_argument("--cache-dir",
                   default=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "chaos",
        help="chaos campaigns against the runner: kill, resume, audit",
    )
    p.add_argument("--presets", nargs="+", default=["crash", "corrupt"],
                   choices=sorted(CHAOS_PRESETS),
                   help="fault presets; one campaign per preset × seed")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                   help="chaos plan seeds (fault placement, not the "
                        "simulation seed)")
    p.add_argument("--workloads", nargs="+", default=["ssca2", "kmeans"],
                   choices=_WORKLOAD_CHOICES)
    p.add_argument("--schemes", nargs="+", default=["suv"],
                   type=_scheme_name)
    p.add_argument("--sim-seed", type=int, default=3,
                   help="simulation seed of the spec matrix")
    p.add_argument("--scale", choices=("tiny", "small", "full"),
                   default="tiny")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--jobs", type=int, default=2)
    p.add_argument("--retries", type=int, default=2,
                   help="per-spec retry budget (verbatim retries)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run timeout in seconds (required to survive "
                        "the hang preset quickly)")
    p.add_argument("--hang-s", type=float, default=None,
                   help="override the preset's injected hang duration")
    p.add_argument("--kill-after", type=int, default=None,
                   help="kill the first session after N resolved specs "
                        "(default: half the matrix)")
    p.add_argument("--root", default=".repro-chaos",
                   help="campaign root: journals, caches, markers, "
                        "report.json per campaign")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "faults",
        help="fault-injection campaign with the atomicity oracle",
    )
    p.add_argument("--workloads", nargs="+", default=["synthetic", "genome"],
                   choices=_WORKLOAD_CHOICES)
    p.add_argument("--schemes", nargs="+", default=list(SCHEMES),
                   type=_scheme_name)
    p.add_argument("--plans", nargs="+", default=list_presets(),
                   help="fault plans to inject (preset names or inline "
                        "JSON); the fault-free baseline always runs too")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--scale", choices=("tiny", "small", "full"),
                   default="tiny")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--resolution", choices=_RESOLUTIONS,
                   default="stall")
    p.add_argument("--stagger", type=int, default=512)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = auto, at least 2)")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "study",
        help="design-space study: sweep the legal policy space, rank "
             "per workload, compute Pareto fronts, write STUDY_<date>.json",
    )
    p.add_argument("--workloads", nargs="+", default=["starve", "ssca2"],
                   help="workload set (space- or comma-separated)")
    p.add_argument("--vms", nargs="+", default=[],
                   help="vm-axis filter (default: the whole axis)")
    p.add_argument("--cds", nargs="+", default=[],
                   help="cd-axis filter (default: the whole axis)")
    p.add_argument("--resolutions", nargs="+", default=[],
                   help="resolution-axis filter (default: the whole axis)")
    p.add_argument("--seeds", "--seed", type=int, nargs="+", default=[1])
    p.add_argument("--scale", choices=("tiny", "small", "full"),
                   default="tiny")
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--threads", type=int, default=0)
    p.add_argument("--stagger", type=int, default=512)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = auto, at least 2)")
    p.add_argument("--cache-dir",
                   default=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    p.add_argument("--no-cache", action="store_true",
                   help="recompute everything, touch no cache")
    p.add_argument("--timeout", type=float, default=900.0,
                   help="per-run timeout in seconds")
    p.add_argument("--retries", type=int, default=1)
    p.add_argument("--resume", metavar="JOURNAL",
                   help="write-ahead campaign journal (resumes a killed "
                        "study when re-run with the same path)")
    p.add_argument("--out", default="studies",
                   help="directory for STUDY_<date>.json (default: studies)")
    p.add_argument("--date", default=None,
                   help="override the date stamp in the output filename")
    p.add_argument("--json", action="store_true",
                   help="print the full STUDY document instead of markdown")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-run progress lines")
    study_sub = p.add_subparsers(dest="study_cmd")
    sp = study_sub.add_parser(
        "report", help="re-render an existing STUDY file"
    )
    sp.add_argument("study_file", help="a STUDY_*.json")
    sp.add_argument("--csv", action="store_true",
                    help="flat per-(workload, scheme) CSV instead of "
                         "markdown")
    sp.set_defaults(fn=cmd_study)
    sp = study_sub.add_parser(
        "compare",
        help="diff two STUDY files modulo volatile sections; non-zero "
             "exit when the deterministic analysis differs",
    )
    sp.add_argument("baseline", help="baseline STUDY_*.json")
    sp.add_argument("current", help="candidate STUDY_*.json")
    sp.set_defaults(fn=cmd_study)
    p.set_defaults(fn=cmd_study)

    p = sub.add_parser("hwcost", help="hardware-cost report (Table VII)")
    p.set_defaults(fn=cmd_hwcost)

    p = sub.add_parser(
        "schemes",
        help="describe the named schemes and composed policy space",
    )
    p.add_argument("--list", action="store_true",
                   help="print every legal composed scheme name")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.add_argument("--markdown", action="store_true",
                   help="emit the README scheme table")
    p.set_defaults(fn=cmd_schemes)

    p = sub.add_parser("list", help="list workloads and schemes")
    p.set_defaults(fn=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
