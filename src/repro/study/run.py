"""Study execution: the design-space sweep through the crash-safe runner.

``run_study`` fans the study's spec matrix out through the same
:class:`~repro.runner.Runner` every campaign uses — content-hashed
result cache (a re-run of an unchanged study is nearly free),
write-ahead journal (a killed nightly study resumes where it died) and
the supervised process pool — then folds the outcomes into the
schema-versioned STUDY document via :func:`build_study_doc`.

Aggregation over seeds is exact integer arithmetic (sums and maxima),
so the analysis sections of the document are byte-deterministic for a
fixed space and seed set; host-dependent facts (wall time, retries,
git revision) are quarantined under the ``provenance`` and
``campaign`` keys, which comparisons ignore.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.provenance import provenance
from repro.runner import (
    CampaignReport,
    ExperimentSpec,
    ResultCache,
    Runner,
    RunOutcome,
)
from repro.study.pareto import (
    StudyPoint,
    dominated_axis_values,
    pareto_front,
    rank_points,
)
from repro.study.report import STUDY_SCHEMA_VERSION
from repro.study.space import StudySpace


def _aggregate(
    outcomes: Iterable[RunOutcome],
) -> tuple[dict[str, list[StudyPoint]], list[dict[str, Any]]]:
    """Fold per-seed outcomes into per-(workload, scheme) study points.

    Cycles and aborts are summed over seeds, the preserved-pool
    high-water mark is the maximum any seed reached (the pool must be
    provisioned for the worst case, not the average).  Failed specs are
    reported, never silently dropped — a combination missing a seed is
    excluded from the analysis entirely so a partial sum cannot
    masquerade as a fast scheme.
    """
    sums: dict[tuple[str, str], dict[str, int]] = {}
    seeds_seen: dict[tuple[str, str], int] = {}
    failures: list[dict[str, Any]] = []
    expected: dict[tuple[str, str], int] = {}
    for out in outcomes:
        key = (out.spec.workload, out.spec.scheme)
        expected[key] = expected.get(key, 0) + 1
        if not out.ok or out.result is None:
            failures.append({
                "label": out.spec.label(),
                "error_type": out.error_type,
                "error": str(out.error or ""),
            })
            continue
        res = out.result
        agg = sums.setdefault(
            key, {"cycles": 0, "aborts": 0, "pool_high_water": 0}
        )
        agg["cycles"] += res.total_cycles
        agg["aborts"] += res.aborts
        agg["pool_high_water"] = max(
            agg["pool_high_water"],
            int(res.scheme_stats.get("pool_high_water", 0)),
        )
        seeds_seen[key] = seeds_seen.get(key, 0) + 1

    by_workload: dict[str, list[StudyPoint]] = {}
    for (workload, scheme), agg in sums.items():
        if seeds_seen[(workload, scheme)] != expected[(workload, scheme)]:
            continue  # incomplete combination: already in failures
        by_workload.setdefault(workload, []).append(StudyPoint(
            scheme=scheme,
            cycles=agg["cycles"],
            aborts=agg["aborts"],
            pool_high_water=agg["pool_high_water"],
        ))
    failures.sort(key=lambda f: f["label"])
    return by_workload, failures


def build_study_doc(
    space: StudySpace,
    outcomes: Iterable[RunOutcome],
    campaign: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The schema-versioned STUDY document for a finished sweep."""
    by_workload, failures = _aggregate(outcomes)
    swept = space.describe()["axes"]
    per_workload: dict[str, Any] = {}
    fronts: dict[str, list[StudyPoint]] = {}
    for workload in space.workloads:
        points = by_workload.get(workload, [])
        ranking = rank_points(points)
        front = pareto_front(points)
        fronts[workload] = front
        front_names = [p.scheme for p in front]
        per_workload[workload] = {
            "ranking": [
                {**p.as_dict(), "rank": i + 1,
                 "on_front": p.scheme in front_names}
                for i, p in enumerate(ranking)
            ],
            "pareto_front": front_names,
            "best": ranking[0].scheme if ranking else None,
        }
    return {
        "schema_version": STUDY_SCHEMA_VERSION,
        "kind": "STUDY",
        "space": space.describe(),
        "per_workload": per_workload,
        "dominated_axis_values": dominated_axis_values(fronts, swept),
        "failures": failures,
        # volatile sections — excluded from study comparisons
        "provenance": provenance(),
        "campaign": dict(campaign) if campaign else {},
    }


def run_study(
    space: StudySpace,
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    journal: str | None = None,
    timeout: float = 900.0,
    retries: int = 1,
    progress: bool = False,
) -> dict[str, Any]:
    """Execute a study space and return its STUDY document.

    ``cache_dir``/``journal`` plug the sweep into the crash-safe
    campaign machinery: re-running a study over the same cache is a
    near-total cache hit, and re-running over the same journal resumes
    a killed study instead of restarting it.
    """
    specs: list[ExperimentSpec] = space.specs()
    cache = ResultCache(cache_dir) if cache_dir else None
    runner = Runner(
        max_workers=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        progress=progress,
        journal=journal,
    )
    import time

    started = time.monotonic()
    try:
        outcomes = [out for out in runner.run(specs) if out is not None]
    finally:
        runner.close()
    report = CampaignReport.collect(
        outcomes, runner=runner, cache=cache,
        wall_s=time.monotonic() - started,
    )
    return build_study_doc(space, outcomes, campaign=report.to_dict())
