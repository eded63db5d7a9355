"""Runner-level chaos harness: seed-deterministic campaign fault injection.

The sibling of :mod:`repro.faults` one layer up: where ``repro.faults``
injects faults *inside* a simulation (signature storms, killed
transactions), this module injects faults into the **campaign
machinery itself** — worker crashes, worker hangs, abrupt worker death
(breaking the process pool), corrupt result payloads crossing the
process boundary, failing cache writes, and the campaign process being
killed mid-flight.  It exists to prove the resilience invariants the
journal/cache/supervision layer claims:

* **no spec lost** — every spec reaches a terminal journal state;
* **no spec run twice to completion** — a completed-and-cached spec is
  never re-executed (re-execution is justified only by a failed cache
  write or a quarantined entry);
* **resume converges** — a killed campaign, resumed over the same
  journal and cache, finishes every spec;
* **byte-identical results** — the merged results of killed+resumed
  equal an uninterrupted run of the same matrix, byte for byte;
* **failures are terminal and typed** — anything that does fail carries
  a typed error (``RetryBudgetExhausted`` for an injected fault that
  outlived its retries), never silently vanishes.

Injection is deterministic: each (plan seed, spec hash, fault kind)
triple hashes to a uniform roll, and each armed fault fires **once**
per spec (a marker file under the campaign root records the firing), so
retries and resumed sessions heal — the transient-fault model the
supervision layer is built for.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.runner.cache import ResultCache
from repro.runner.executor import Runner, RunOutcome, execute_spec
from repro.runner.journal import CampaignJournal
from repro.runner.report import CampaignReport
from repro.runner.spec import ExperimentSpec, RunMatrix


class ChaosCrash(RuntimeError):
    """The injected worker crash (an ordinary in-worker exception)."""


def chaos_roll(seed: int, key: str, kind: str) -> float:
    """Deterministic uniform roll in [0, 1) for one (spec, fault) pair."""
    digest = hashlib.sha256(f"chaos:{seed}:{key}:{kind}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ChaosPlan:
    """What to break, how often, under which seed.

    Rates are per-spec probabilities; ``seed`` makes every decision
    reproducible.  Each armed fault fires once per spec (marker files
    under the campaign root), so the faults are transient: a retry or a
    resumed session runs clean.
    """

    name: str = "custom"
    seed: int = 0
    #: worker raises :class:`ChaosCrash` (clean in-worker exception)
    crash_rate: float = 0.0
    #: worker calls ``os._exit`` — kills the worker process and breaks
    #: the pool, exercising recycling/backoff/circuit supervision
    pool_kill_rate: float = 0.0
    #: worker sleeps ``hang_s`` (drive with a runner ``timeout``!)
    hang_rate: float = 0.0
    hang_s: float = 30.0
    #: worker returns a truncated/mangled result payload
    corrupt_rate: float = 0.0
    #: ``ResultCache.put`` raises ``OSError`` (via :class:`FlakyCache`)
    cache_fail_rate: float = 0.0

    def with_(self, **changes: Any) -> "ChaosPlan":
        return replace(self, **changes)


#: named chaos presets for tests and the CI chaos job
CHAOS_PRESETS: dict[str, ChaosPlan] = {
    "crash": ChaosPlan(name="crash", crash_rate=0.6),
    "pool-kill": ChaosPlan(name="pool-kill", pool_kill_rate=0.4),
    "hang": ChaosPlan(name="hang", hang_rate=0.5, hang_s=120.0),
    "corrupt": ChaosPlan(name="corrupt", corrupt_rate=0.6),
    "cache-flaky": ChaosPlan(name="cache-flaky", cache_fail_rate=0.6),
    "mixed": ChaosPlan(
        name="mixed", crash_rate=0.3, corrupt_rate=0.3, cache_fail_rate=0.3
    ),
}


def chaos_plan(name: str, seed: int | None = None) -> ChaosPlan:
    """A preset by name, optionally re-seeded."""
    if name not in CHAOS_PRESETS:
        raise ValueError(
            f"unknown chaos preset {name!r}; "
            f"choose from {', '.join(sorted(CHAOS_PRESETS))}"
        )
    plan = CHAOS_PRESETS[name]
    return plan if seed is None else plan.with_(seed=seed)


def _fire_once(plan: ChaosPlan, markers: str, key: str, kind: str,
               rate: float) -> bool:
    """True exactly once per (spec, kind) when the roll arms the fault."""
    if rate <= 0.0 or chaos_roll(plan.seed, key, kind) >= rate:
        return False
    marker = Path(markers) / f"{key}.{kind}"
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return False  # already fired once: the fault has healed
    except OSError:
        return False  # marker dir gone: fail open (no injection)
    return True


class ChaosWorker:
    """A picklable pool worker that injects faults around the real run."""

    def __init__(self, plan: ChaosPlan, markers: str | Path) -> None:
        self.plan = plan
        self.markers = str(markers)

    def _armed(self, key: str, kind: str, rate: float) -> bool:
        return _fire_once(self.plan, self.markers, key, kind, rate)

    def __call__(self, spec: ExperimentSpec) -> str:
        plan = self.plan
        key = spec.spec_hash()
        if self._armed(key, "pool_kill", plan.pool_kill_rate):
            os._exit(13)  # abrupt worker death: breaks the pool
        if self._armed(key, "crash", plan.crash_rate):
            raise ChaosCrash(f"chaos: injected worker crash ({key[:12]})")
        if self._armed(key, "hang", plan.hang_rate):
            time.sleep(plan.hang_s)
        payload = execute_spec(spec).to_json()
        if self._armed(key, "corrupt", plan.corrupt_rate):
            return payload[: len(payload) // 2] + '…chaos-truncated'
        return payload


class FlakyCache(ResultCache):
    """A :class:`ResultCache` whose writes fail on chaos command."""

    def __init__(
        self,
        root: str | Path,
        plan: ChaosPlan,
        markers: str | Path,
        **kwargs: Any,
    ) -> None:
        super().__init__(root, **kwargs)
        self.plan = plan
        self.markers = str(markers)

    def put(self, spec: ExperimentSpec, result: Any) -> Path:
        if _fire_once(
            self.plan, self.markers, spec.spec_hash(), "cache_fail",
            self.plan.cache_fail_rate,
        ):
            raise OSError("chaos: injected cache-write failure")
        return super().put(spec, result)


@dataclass
class ChaosCampaignReport:
    """The verdict of one chaos campaign: invariants, violations, stats."""

    plan: str
    seed: int
    n_specs: int
    killed_after: int | None
    invariants: dict[str, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    campaign: dict[str, Any] = field(default_factory=dict)
    journal_stats: dict[str, Any] = field(default_factory=dict)
    #: faults that actually fired, by kind (from the marker files)
    faults_fired: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan,
            "seed": self.seed,
            "n_specs": self.n_specs,
            "killed_after": self.killed_after,
            "passed": self.passed,
            "invariants": dict(self.invariants),
            "violations": list(self.violations),
            "campaign": dict(self.campaign),
            "journal": dict(self.journal_stats),
            "faults_fired": dict(self.faults_fired),
        }


def run_chaos_campaign(
    specs: Iterable[ExperimentSpec] | RunMatrix,
    plan: ChaosPlan,
    root: str | Path,
    *,
    jobs: int = 2,
    timeout: float | None = None,
    retries: int = 2,
    kill_after: int | None = None,
    reference: dict[str, str] | None = None,
) -> ChaosCampaignReport:
    """Run a matrix under chaos, kill it, resume it, check the invariants.

    Four phases:

    1. **reference** — every spec executed uninterrupted and in-process;
       the byte-identity baseline (pass a precomputed ``{spec_hash:
       result_json}`` mapping to skip it);
    2. **chaos session** — the matrix through a supervised, journaled,
       cached :class:`Runner` with a :class:`ChaosWorker`; after
       ``kill_after`` resolved outcomes the campaign is abandoned
       mid-flight (the simulated ``SIGKILL``);
    3. **resume session** — a fresh runner over the same journal and
       cache finishes the campaign;
    4. **audit** — the journal is replayed and the resilience
       invariants checked.

    Every injected fault is a failure of the infrastructure, which the
    runner retries with the identical spec: chaos faults are transient
    by construction, and byte-identity requires re-running the *same*
    spec, exactly the semantics a distributed runner needs for worker
    death.
    """
    spec_list = specs.specs() if isinstance(specs, RunMatrix) else list(specs)
    root = Path(root)
    markers = root / "markers"
    markers.mkdir(parents=True, exist_ok=True)
    journal_path = root / "campaign.journal"
    cache_root = root / "cache"

    if reference is None:
        reference = {
            spec.spec_hash(): execute_spec(spec).to_json()
            for spec in spec_list
        }

    if kill_after is None:
        kill_after = max(1, len(spec_list) // 2)

    def make_runner() -> Runner:
        return Runner(
            max_workers=jobs,
            cache=FlakyCache(cache_root, plan, markers),
            timeout=timeout,
            retries=retries,
            journal=CampaignJournal(journal_path),
            worker=ChaosWorker(plan, markers),
            backoff_base_s=0.0,  # no real sleeping inside the harness
            supervision_seed=plan.seed,
        )

    # -- session 1: run until "killed" ----------------------------------
    first_session: list[RunOutcome] = []
    runner = make_runner()
    try:
        for outcome in runner.run_iter(spec_list):
            first_session.append(outcome)
            if len(first_session) >= kill_after:
                break  # the campaign process "dies" here
    finally:
        runner.close()
        if runner.journal is not None:
            runner.journal.close()

    # -- session 2: resume over the same journal + cache ----------------
    resume_runner = make_runner()
    try:
        # a dropped spec (a None outcome) is precisely the bug this
        # harness exists to catch — audit it, don't crash on it
        outcomes = [o for o in resume_runner.run(spec_list) if o is not None]
        report = CampaignReport.collect(
            outcomes, runner=resume_runner, cache=resume_runner.cache
        )
    finally:
        resume_runner.close()
        if resume_runner.journal is not None:
            resume_runner.journal.close()

    # -- audit -----------------------------------------------------------
    state = CampaignJournal.replay(journal_path)
    verdict = ChaosCampaignReport(
        plan=plan.name,
        seed=plan.seed,
        n_specs=len(spec_list),
        killed_after=kill_after,
        campaign=report.to_dict(),
        journal_stats={
            "sessions": state.sessions,
            "events_specs": len(state.specs),
            "truncated_lines": state.truncated_lines,
            "degradations": len(state.degradations),
        },
    )
    for marker in markers.iterdir():
        kind = marker.suffix.lstrip(".")
        verdict.faults_fired[kind] = verdict.faults_fired.get(kind, 0) + 1
    _check_invariants(verdict, spec_list, outcomes, state, reference)
    return verdict


def _check_invariants(
    verdict: ChaosCampaignReport,
    spec_list: Sequence[ExperimentSpec],
    outcomes: Sequence[RunOutcome],
    state: Any,
    reference: dict[str, str],
) -> None:
    hashes = [spec.spec_hash() for spec in spec_list]

    lost = [h for h in hashes
            if h not in state.specs or not state.specs[h].terminal]
    verdict.invariants["no_spec_lost"] = not lost
    for h in lost:
        verdict.violations.append(f"spec lost (no terminal state): {h[:12]}")

    duplicates = [s for s in state.specs.values() if s.duplicate_completions]
    verdict.invariants["no_duplicate_completion"] = not duplicates
    for s in duplicates:
        verdict.violations.append(
            f"spec completed {s.completions} times "
            f"({s.duplicate_completions} unjustified): {s.spec_hash[:12]}"
        )

    unresolved = [o for o in outcomes if o.result is None and o.error is None]
    verdict.invariants["resume_converged"] = (
        len(outcomes) == len(spec_list) and not unresolved
    )
    if len(outcomes) != len(spec_list):
        verdict.violations.append(
            f"resume resolved {len(outcomes)} of {len(spec_list)} specs"
        )
    for o in unresolved:
        verdict.violations.append(f"unresolved outcome: {o.spec.label()}")

    mismatched = []
    untyped = []
    for outcome in outcomes:
        h = outcome.spec.spec_hash()
        if outcome.ok:
            if outcome.result.to_json() != reference.get(h):
                mismatched.append(outcome)
        elif not outcome.error_type:
            untyped.append(outcome)
    verdict.invariants["results_byte_identical"] = not mismatched
    for o in mismatched:
        verdict.violations.append(
            f"result differs from uninterrupted run: {o.spec.label()}"
        )
    verdict.invariants["failures_typed"] = not untyped
    for o in untyped:
        verdict.violations.append(
            f"terminal failure without a typed error: {o.spec.label()}"
        )


def write_chaos_report(report: ChaosCampaignReport, path: str | Path) -> Path:
    """Serialize a chaos verdict next to its journal for CI artifacts."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return path
