"""Concurrent experiment execution.

:class:`Runner` executes :class:`~repro.runner.spec.ExperimentSpec`
lists with a ``ProcessPoolExecutor``: a per-run timeout enforced inside
each pool worker, bounded verbatim retry of infrastructure failures (a
simulation error is the spec's result and is never retried), and
graceful degradation to in-process serial execution when process pools
are unavailable (or break mid-run).  Results cross the process boundary
as :meth:`SimResult.to_json` strings, the same representation the
on-disk cache uses, so parallel and serial execution are
observationally identical.

The module-level conveniences are the stable public API surface:

* :func:`execute_spec` — run one spec in-process, no pooling/caching;
* :func:`run_experiment` — one spec through the (optional) cache;
* :func:`run_matrix` — many specs (or a :class:`RunMatrix`) through a
  :class:`Runner`.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ReproError, RetryBudgetExhausted
from repro.runner.artifacts import ArtifactStore
from repro.runner.cache import ResultCache
from repro.runner.journal import CampaignJournal, SpecState
from repro.runner.spec import ExperimentSpec, RunMatrix
from repro.simulator import SimResult, Simulator


def execute_spec(spec: ExperimentSpec, trace: Any = None) -> SimResult:
    """Build and run the simulation a spec describes, in-process.

    ``spec.fault_plan`` arms a fault injector for the run;
    ``spec.check`` runs the atomicity oracle afterwards (raising
    :class:`~repro.errors.OracleViolation` on a violation) and attaches
    its report to the result.  Both happen here, inside the worker, so
    they behave identically in serial and process-pool execution.

    ``trace`` (a :class:`~repro.trace.Tracer`, ``True``, or a ring
    capacity) arms event tracing for the run; inspect it afterwards via
    the returned result's ``phase_breakdown`` or the tracer object.
    Tracing never changes simulated timing, so cached results stay
    valid.
    """
    from repro.faults import parse_plan
    from repro.workloads import make_workload

    config = spec.build_config()
    n_threads = spec.threads or config.n_cores
    program = make_workload(
        spec.workload,
        n_threads=n_threads,
        seed=spec.seed,
        scale=spec.scale,
        **dict(spec.workload_kwargs),
    )
    sim = Simulator(
        config,
        scheme=spec.scheme,
        seed=spec.seed,
        faults=parse_plan(spec.fault_plan),
        oracle=spec.check,
        trace=trace,
    )
    result = sim.run(program.threads, max_events=spec.max_events)
    if spec.check:
        result.oracle = sim.oracle.verify()
    if spec.verify:
        program.verify(result.memory)
    return result


def _json_worker(spec: ExperimentSpec) -> str:
    """Default pool worker: run the spec, return the result as JSON."""
    return execute_spec(spec).to_json()


def _warm_init() -> None:
    """Pool initializer: pay the heavy imports once per worker process.

    Without it every worker imports the simulator stack lazily inside
    its first task, so short specs measure import time, not simulation.
    """
    import repro.simulator  # noqa: F401
    import repro.workloads  # noqa: F401


class _Overrun(BaseException):
    """SIGALRM: a pooled spec ran past its timeout (no ``except
    Exception`` in a worker can swallow it)."""


#: True while a pool worker's timer covers a running spec, so a late
#: alarm after the spec returned is ignored
_armed = False


def _on_alarm(signum: int, frame: Any) -> None:
    if _armed:
        raise _Overrun


def _attempt(
    worker: Callable[[ExperimentSpec], Any],
    spec: ExperimentSpec,
    timeout: float | None = None,
) -> tuple[str, Any, float]:
    """Run one spec: a ``(status, payload, seconds)`` triple.

    This is the one place that decides which failures are retryable.
    ``"ok"`` carries the worker's payload.  A :class:`ReproError` raised
    by the run (a deadlock, an exhausted event budget, an oracle
    violation, an illegal scheme, a malformed config) is the spec's own
    result: ``"fail"``, terminal on the first attempt, with ``(error
    type, message)`` as payload.  Any other exception, or a run past
    ``timeout`` (a ``SIGALRM`` timer only :func:`_chunk_worker` arms),
    is a failure of the infrastructure: ``"retry"`` with its message,
    since re-running the identical spec may succeed.
    """
    global _armed
    start = time.monotonic()
    try:
        if timeout is not None:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            status, payload = "ok", worker(spec)
        finally:
            if timeout is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                _armed = False
    except _Overrun:
        status, payload = "retry", f"timed out after {timeout}s"
    except ReproError as exc:
        status, payload = "fail", (type(exc).__name__, str(exc))
    except Exception as exc:
        status, payload = "retry", f"{type(exc).__name__}: {exc}"
    return status, payload, time.monotonic() - start


def _chunk_worker(
    worker: Callable[[ExperimentSpec], Any],
    specs: tuple[ExperimentSpec, ...],
    timeout: float | None,
) -> list[tuple[str, Any, float]]:
    """Pool task: run specs in order, one :func:`_attempt` triple each.

    Several specs per task amortize the submit/pickle cost, and neither
    a failing nor a timed-out spec takes its chunk siblings down.  Pool
    tasks run on the worker's main thread, which may own ``SIGALRM``.
    """
    if timeout is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
    return [_attempt(worker, spec, timeout) for spec in specs]


def _chunks(pending: list[int], workers: int) -> list[tuple[int, ...]]:
    """About four pool tasks per worker, task ``k`` = ``pending[k::n]``:
    neighbouring specs (often one workload's) go to different tasks."""
    size = max(1, len(pending) // (workers * 4))
    n_tasks = -(-len(pending) // size)
    return [tuple(pending[k::n_tasks]) for k in range(n_tasks)]


def _try_coerce(payload: Any) -> tuple[SimResult | None, str]:
    """(result, "") for a sound payload, (None, reason) for a corrupt one.

    A worker that crosses the process boundary with a mangled payload
    (truncated pickle, corrupted JSON, wrong type) must count as a
    *retryable spec failure*, not crash the whole campaign in the
    parent — the chaos harness injects exactly this.
    """
    if isinstance(payload, SimResult):
        return payload, ""
    try:
        return SimResult.from_json(payload), ""
    except Exception as exc:
        return None, f"corrupt result payload: {type(exc).__name__}: {exc}"


@dataclass
class RunOutcome:
    """What happened to one spec: a result, a cache hit, or an error."""

    spec: ExperimentSpec
    result: SimResult | None = None
    cached: bool = False
    attempts: int = 0
    duration_s: float = 0.0
    error: str | None = None
    #: the typed error class name for terminal failures: the run's own
    #: error (e.g. ``"OracleViolation"``) or ``"RetryBudgetExhausted"``
    #: — failures are typed, never bare text
    error_type: str | None = None
    #: True when a resumed campaign satisfied this spec from a previous
    #: session (journal said done, cache supplied the bytes)
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


class Runner:
    """Executes spec lists concurrently, with caching and retries.

    Parameters:

    * ``max_workers`` — worker processes; ``None`` = auto (at least 2),
      ``1`` or fewer = in-process serial execution.
    * ``cache`` — a :class:`ResultCache` (or its root path) consulted
      before running and updated after; ``None`` disables caching.
    * ``timeout`` — per-run wall-clock budget in seconds, enforced by
      a ``SIGALRM`` timer inside each pool worker (pool mode only; a
      serial run is never preempted).
    * ``retries`` — how many times a run that timed out, crashed the
      worker or returned a corrupt payload is re-run, with the
      identical spec.  A :class:`~repro.errors.ReproError` raised by
      the simulation (say an ``OracleViolation``) is the spec's result
      and is never retried.
    * ``artifacts`` — an :class:`ArtifactStore` (or path) appended to
      after every outcome.
    * ``progress`` — ``True`` for per-run progress/ETA lines on stderr,
      or a callable receiving each line.
    * ``worker`` — the pool task (a picklable
      ``spec -> SimResult | json-str``); replaceable for testing.
    * ``journal`` — a :class:`~repro.runner.journal.CampaignJournal`
      (or its path): every spec state transition is checkpointed
      write-ahead, and an existing journal resumes the campaign it
      records (done specs are satisfied from the cache, in-flight and
      failed ones re-run).
    * ``breaker_threshold`` / ``backoff_base_s`` / ``backoff_max_s`` /
      ``supervision_seed`` — worker supervision: after a pool breakage
      the pool is recycled and the unresolved specs re-dispatched,
      waiting an exponentially growing backoff with seed-deterministic
      jitter between recycles; after ``breaker_threshold`` consecutive
      breakages the circuit opens and the runner degrades to serial
      execution instead of thrashing pool spawns.

    The worker pool is *persistent*: created on first use (workers
    pre-import the simulator stack) and reused by later ``run()`` calls,
    so repeated small matrices skip process spawn and import cost.  It
    is recycled automatically after a pool breakage; call
    :meth:`close` (or use the runner as a context manager) to release
    it deterministically.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | str | Path | None = None,
        timeout: float | None = None,
        retries: int = 1,
        artifacts: ArtifactStore | str | Path | None = None,
        progress: bool | Callable[[str], None] = False,
        worker: Callable[[ExperimentSpec], Any] | None = None,
        journal: CampaignJournal | str | Path | None = None,
        breaker_threshold: int = 3,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 5.0,
        supervision_seed: int = 0,
    ) -> None:
        if max_workers is None:
            max_workers = max(2, min(4, os.cpu_count() or 2))
        self.max_workers = max_workers
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, retries)
        if isinstance(artifacts, (str, Path)):
            artifacts = ArtifactStore(artifacts)
        self.artifacts = artifacts
        self.progress = progress
        self._worker = worker
        self._owns_journal = isinstance(journal, (str, Path))
        if isinstance(journal, (str, Path)):
            journal = CampaignJournal(journal)
        self.journal = journal
        self.breaker_threshold = max(1, breaker_threshold)
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.supervision_seed = supervision_seed
        #: times the runner degraded to serial execution (pool failure)
        self.serial_fallbacks = 0
        #: pool breakages seen over this runner's lifetime
        self.pool_breakages = 0
        #: True once ``breaker_threshold`` consecutive breakages opened
        #: the circuit: all further execution is serial
        self.circuit_open = False
        #: cache writes that failed and were tolerated (result kept)
        self.cache_put_failures = 0
        #: supervision events (pool_breakage / circuit_open /
        #: cache_put_failure dicts) in occurrence order
        self.degradation_events: list[dict] = []
        self._consecutive_breaks = 0
        #: journal state of prior sessions, keyed by spec hash (set by
        #: ``_run_indexed`` when a journal is armed)
        self._prior: dict[str, SpecState] = {}
        if self.cache is not None and self.journal is not None:
            if self.cache.quarantine_hook is None:
                self.cache.quarantine_hook = self.journal.record_quarantine
        #: the persistent warm pool (created lazily, reused across
        #: ``run()`` calls, recycled after a pool breakage)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0

    # -- public entry points --------------------------------------------
    def run(
        self, specs: Iterable[ExperimentSpec] | RunMatrix
    ) -> list[RunOutcome]:
        """Execute every spec; outcomes are in spec order."""
        spec_list = specs.specs() if isinstance(specs, RunMatrix) else list(specs)
        outcomes: list[RunOutcome | None] = [None] * len(spec_list)
        for i, outcome in self._run_indexed(spec_list):
            outcomes[i] = outcome
        return outcomes  # type: ignore[return-value]

    def run_iter(
        self, specs: Iterable[ExperimentSpec] | RunMatrix
    ) -> Iterator[RunOutcome]:
        """Yield each outcome as soon as it is known (streaming).

        Cache hits come first; pooled results follow in completion
        order.  Useful for long matrices: consumers can plot/persist
        results while the rest of the sweep is still running, instead
        of gathering at the end.
        """
        spec_list = specs.specs() if isinstance(specs, RunMatrix) else list(specs)
        for _i, outcome in self._run_indexed(spec_list):
            yield outcome

    def run_one(self, spec: ExperimentSpec) -> RunOutcome:
        """Execute a single spec serially (cache consulted as usual)."""
        return self.run([spec])[0]

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent)."""
        self._close_pool()
        if self._owns_journal and self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- scheduling core --------------------------------------------------
    def _run_indexed(
        self, spec_list: Sequence[ExperimentSpec]
    ) -> Iterator[tuple[int, RunOutcome]]:
        """Yield ``(index, outcome)`` pairs as each spec resolves."""
        self._done_count = 0
        self._total = len(spec_list)
        self._t0 = time.monotonic()
        self._prior = (
            self.journal.begin(spec_list).specs
            if self.journal is not None else {}
        )

        pending: list[int] = []
        for i, spec in enumerate(spec_list):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                prior = self._prior.get(spec.spec_hash())
                outcome = RunOutcome(
                    spec, hit, cached=True,
                    resumed=prior is not None and prior.status == "done",
                )
                self._finish(outcome)
                yield i, outcome
            else:
                pending.append(i)

        leftover = pending
        if self.max_workers >= 2 and len(pending) > 1 and not self.circuit_open:
            leftover = []
            yield from self._pool_indexed(spec_list, pending, leftover)
        for i in leftover:
            outcome = self._run_serial(spec_list[i])
            self._finish(outcome)
            yield i, outcome

    # -- pool path -------------------------------------------------------
    def _make_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.max_workers, n_tasks),
            initializer=_warm_init,
        )

    def _ensure_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        """The warm pool, created on first use and kept across runs."""
        want = min(self.max_workers, n_tasks)
        if self._pool is not None and self._pool_workers < want:
            # a bigger matrix arrived: grow by recycling
            self._close_pool()
        if self._pool is None:
            self._pool = self._make_pool(n_tasks)
            self._pool_workers = want
        return self._pool

    def _close_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None:
            # don't block on tasks a breakage or an abandoned
            # run_iter() left behind
            pool.shutdown(wait=False, cancel_futures=True)

    def _pool_indexed(
        self,
        specs: Sequence[ExperimentSpec],
        pending: list[int],
        leftover: list[int],
    ) -> Iterator[tuple[int, RunOutcome]]:
        """Run ``pending`` indices in the warm pool, yielding as resolved.

        Supervision loop: when the pool breaks mid-run, the unresolved
        indices are re-dispatched to a recycled pool (after an
        exponential, jittered backoff) instead of being dumped to
        serial execution wholesale.  Only after ``breaker_threshold``
        consecutive breakages — or when a pool cannot be created at
        all — does the circuit open and the remainder go to
        ``leftover`` for the caller's serial path.
        """
        worker = self._worker or _json_worker
        remaining = list(pending)
        while remaining and not self.circuit_open:
            try:
                pool = self._ensure_pool(len(remaining))
            except (OSError, NotImplementedError, PermissionError):
                self.serial_fallbacks += 1
                break
            broken: list[int] = []
            yield from self._pool_dispatch(
                pool, worker, specs, remaining, broken
            )
            if not broken:
                self._consecutive_breaks = 0
                remaining = []
            else:
                remaining = broken  # bookkeeping happened in _pool_broke
        leftover.extend(remaining)

    def _pool_broke(self, unresolved: set[int], broken: list[int]) -> None:
        """Handle a pool breakage: recycle, back off, maybe open circuit.

        The unresolved indices go back to ``broken`` for the supervisor
        loop in :meth:`_pool_indexed` to re-dispatch (or finish serially
        once the circuit opens).
        """
        self.pool_breakages += 1
        self._consecutive_breaks += 1
        self._close_pool()
        broken.extend(sorted(unresolved))
        event: dict[str, Any] = {
            "kind": "pool_breakage",
            "breakage": self.pool_breakages,
            "consecutive": self._consecutive_breaks,
            "unresolved": len(unresolved),
        }
        if self._consecutive_breaks >= self.breaker_threshold:
            self.circuit_open = True
            self.serial_fallbacks += 1
            event["circuit"] = "open"
            self._degrade(event)
            self._degrade({
                "kind": "circuit_open",
                "after_breakages": self._consecutive_breaks,
            })
            return
        backoff = min(
            self.backoff_max_s,
            self.backoff_base_s * 2 ** (self._consecutive_breaks - 1),
        )
        backoff *= 1.0 + self._jitter(self.pool_breakages)
        event["backoff_s"] = round(backoff, 6)
        self._degrade(event)
        if backoff > 0:
            time.sleep(backoff)

    def _jitter(self, n: int) -> float:
        """Deterministic jitter in [0, 1) for the n-th breakage.

        Seeded so chaos campaigns replay identically: same supervision
        seed and breakage history, same backoff schedule.
        """
        digest = hashlib.sha256(
            f"supervision:{self.supervision_seed}:{n}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _degrade(self, event: dict) -> None:
        self.degradation_events.append(event)
        if self.journal is not None:
            self.journal.record_degradation(event)

    def _pool_dispatch(
        self,
        pool: ProcessPoolExecutor,
        worker: Callable[[ExperimentSpec], Any],
        specs: Sequence[ExperimentSpec],
        pending: list[int],
        broken: list[int],
    ) -> Iterator[tuple[int, RunOutcome]]:
        """The one dispatch loop: run ``pending`` as pool tasks.

        A task is a tuple of spec indices (:func:`_chunks`) run by
        :func:`_chunk_worker`, which enforces the per-run ``timeout``
        itself.  Every task is submitted at once and the pool
        prefetches.  A spec that earns a retry goes back on the queue
        as one more single-spec task.
        """
        queue = deque(
            (indices, 1) for indices in _chunks(pending, self._pool_workers)
        )
        unresolved = set(pending)
        live: dict[Future, tuple[tuple[int, ...], int]] = {}
        while queue or live:
            try:
                while queue:
                    indices, attempt = queue.popleft()
                    for i in indices:
                        self._journal_running(specs[i], attempt=attempt)
                    future = pool.submit(
                        _chunk_worker, worker,
                        tuple(specs[i] for i in indices), self.timeout,
                    )
                    live[future] = (indices, attempt)
            except (RuntimeError, OSError):
                # BrokenProcessPool, a shut-down pool, or a worker that
                # could not start
                self._pool_broke(unresolved, broken)
                return
            # the first completion; through as_completed, whose waits
            # benchmarks/e2e/layers.py times as pool_wait
            next(as_completed(live))
            for future, (indices, attempt) in list(live.items()):
                if not future.done():
                    continue
                del live[future]
                try:
                    triples = future.result()
                except BrokenProcessPool:
                    self._pool_broke(unresolved, broken)
                    return
                except Exception as exc:
                    lost = ("retry", f"{type(exc).__name__}: {exc}", 0.0)
                    triples = [lost] * len(indices)
                for i, triple in zip(indices, triples):
                    outcome = self._settle(specs[i], attempt, *triple)
                    if outcome is None:
                        queue.append(((i,), attempt + 1))
                        continue
                    unresolved.discard(i)
                    self._finish(outcome)
                    yield i, outcome

    # -- serial path -----------------------------------------------------
    def _run_serial(self, spec: ExperimentSpec) -> RunOutcome:
        worker = self._worker or execute_spec
        attempt = 0
        outcome: RunOutcome | None = None
        while outcome is None:
            attempt += 1
            self._journal_running(spec, attempt=attempt)
            outcome = self._settle(spec, attempt, *_attempt(worker, spec))
        return outcome

    # -- shared plumbing -------------------------------------------------
    def _settle(
        self,
        spec: ExperimentSpec,
        attempt: int,
        status: str,
        payload: Any,
        seconds: float,
    ) -> RunOutcome | None:
        """The outcome of one :func:`_attempt`; None = retry the spec.

        An infrastructure failure past the retry budget is a terminal,
        typed :class:`RetryBudgetExhausted` failure.
        """
        if status == "fail":
            error_type, error = payload
            return RunOutcome(
                spec, attempts=attempt, duration_s=seconds,
                error=error, error_type=error_type,
            )
        error = payload
        if status == "ok":
            result, error = _try_coerce(payload)
            if result is not None:
                return RunOutcome(
                    spec, result, attempts=attempt, duration_s=seconds
                )
        if attempt <= self.retries:
            return None
        exc = RetryBudgetExhausted(
            "retry budget exhausted",
            spec_label=spec.label(),
            attempts=attempt,
            last_error=error,
        )
        return RunOutcome(
            spec, attempts=attempt, error=str(exc), error_type=type(exc).__name__
        )

    def _journal_running(self, spec: ExperimentSpec, attempt: int) -> None:
        if self.journal is not None:
            self.journal.record_running(spec.spec_hash(), attempt)

    def _finish(self, outcome: RunOutcome) -> None:
        self._done_count += 1
        cache_ok = outcome.cached
        if outcome.ok and not outcome.cached and self.cache is not None:
            try:
                self.cache.put(outcome.spec, outcome.result)
                cache_ok = True
            except OSError as exc:
                # a failing cache must not take the campaign down: the
                # result is still returned/journaled, just not reusable
                self.cache_put_failures += 1
                self._degrade({
                    "kind": "cache_put_failure",
                    "spec_hash": outcome.spec.spec_hash(),
                    "error": f"{type(exc).__name__}: {exc}",
                })
        if self.journal is not None:
            spec_hash = outcome.spec.spec_hash()
            if outcome.ok:
                self.journal.record_done(
                    spec_hash,
                    attempts=outcome.attempts,
                    duration_s=outcome.duration_s,
                    cached=outcome.cached,
                    resumed=outcome.resumed,
                    cache_ok=cache_ok,
                    result_digest=hashlib.sha256(
                        outcome.result.to_json().encode()
                    ).hexdigest(),
                )
            else:
                self.journal.record_failed(
                    spec_hash,
                    attempts=outcome.attempts,
                    error=outcome.error or "",
                    error_type=outcome.error_type,
                )
        if self.artifacts is not None:
            self.artifacts.append(
                outcome.spec,
                outcome.result,
                cached=outcome.cached,
                attempts=outcome.attempts,
                duration_s=outcome.duration_s,
                error=outcome.error,
                error_type=outcome.error_type,
                resumed=outcome.resumed,
            )
        self._report(outcome)

    def _report(self, outcome: RunOutcome) -> None:
        if not self.progress:
            return
        done, total = self._done_count, self._total
        if outcome.cached:
            status = "cache hit"
        elif outcome.ok:
            status = (
                f"{outcome.result.total_cycles:,} cycles "
                f"({outcome.duration_s:.1f}s)"
            )
        else:
            status = f"FAILED: {outcome.error_type}: {outcome.error}"
        elapsed = time.monotonic() - self._t0
        eta = elapsed / done * (total - done) if done else 0.0
        line = (
            f"[{done:>{len(str(total))}}/{total}] "
            f"{outcome.spec.label()}: {status} | ETA {eta:.0f}s"
        )
        if callable(self.progress):
            self.progress(line)
        else:
            print(line, file=sys.stderr)


def run_experiment(
    spec: ExperimentSpec | str | None = None,
    *,
    cache: ResultCache | str | Path | None = None,
    **spec_kwargs: Any,
) -> SimResult:
    """Run one experiment, optionally through a result cache.

    Accepts a ready :class:`ExperimentSpec`, or a workload name plus
    spec keyword arguments::

        run_experiment("genome", scheme="suv", seed=7)
    """
    if isinstance(spec, str):
        spec = ExperimentSpec(workload=spec, **spec_kwargs)
    elif spec is None:
        spec = ExperimentSpec(**spec_kwargs)
    elif spec_kwargs:
        raise TypeError("pass either a spec or spec keyword arguments, not both")
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    if cache is not None:
        hit = cache.get(spec)
        if hit is not None:
            return hit
    result = execute_spec(spec)
    if cache is not None:
        cache.put(spec, result)
    return result


def run_matrix(
    specs: Iterable[ExperimentSpec] | RunMatrix, **runner_kwargs: Any
) -> list[RunOutcome]:
    """Run a matrix (or any iterable of specs) through a :class:`Runner`."""
    with Runner(**runner_kwargs) as runner:
        return runner.run(specs)
