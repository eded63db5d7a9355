"""Tests for the Runner: caching, timeout, retry, serial fallback."""

import multiprocessing
import os
import time
from collections import Counter

import pytest

from repro.errors import OracleViolation
from repro.runner import ExperimentSpec, ResultCache, Runner
from repro.runner.executor import execute_spec

TINY = ExperimentSpec("ssca2", scheme="suv", scale="tiny", cores=4)
#: the pool path (two workers) and the in-process serial path
PATHS = pytest.mark.parametrize("workers", [2, 1], ids=["pool", "serial"])


# -- pool workers (module-level so they pickle) --------------------------
def sleepy_worker(spec):
    time.sleep(5)
    return execute_spec(spec).to_json()


def crashy_worker(spec):
    # a deterministic infrastructure-style crash for seeds below 1000
    if spec.seed < 1000:
        raise RuntimeError("boom")
    return execute_spec(spec).to_json()


def pool_killing_worker(spec):
    # dies abruptly in pool children, works fine in-process
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return execute_spec(spec).to_json()


def garbage_worker(spec):
    # a mangled payload crossing the process boundary
    return "{definitely not a result"


def slow_start_worker(spec):
    time.sleep(0.3)
    return execute_spec(spec).to_json()


class Flaky:
    """Fails a spec's first call (or every call), then runs it.

    A marker file per spec hash under ``root`` records the first call,
    as the chaos harness's once-only faults do, and every call appends
    the spec hash to ``root/calls.log`` so a test can tell which specs
    ran and how often.
    """

    def __init__(self, root, failure, every=False):
        self.root = str(root)
        self.failure = failure
        self.every = every

    def __call__(self, spec):
        key = spec.spec_hash()
        with open(os.path.join(self.root, "calls.log"), "a") as log:
            log.write(key + "\n")
        try:
            open(os.path.join(self.root, key), "x").close()
        except FileExistsError:
            if not self.every:
                return execute_spec(spec).to_json()
        if self.failure == "exit":
            os._exit(1)
        if self.failure == "hang":
            time.sleep(4)
        if self.failure == "oracle":
            raise OracleViolation("injected violation")
        raise RuntimeError("boom")


def calls(root):
    return Counter((root / "calls.log").read_text().split())


# -- serial execution -----------------------------------------------------
def test_serial_run_matches_execute_spec():
    outcome = Runner(max_workers=1, retries=0).run_one(TINY)
    assert outcome.ok and not outcome.cached and outcome.attempts == 1
    assert outcome.result.to_json() == execute_spec(TINY).to_json()


def test_serial_failure_reported():
    bad = TINY.with_(workload="ssca2", config_overrides={"nosuch.field": 1})
    outcome = Runner(max_workers=1, retries=0).run_one(bad)
    assert not outcome.ok
    assert "ValueError" in outcome.error


# -- caching --------------------------------------------------------------
def test_cached_result_identical_to_fresh(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    runner = Runner(max_workers=1, cache=cache, retries=0)
    fresh = runner.run_one(TINY)
    hit = runner.run_one(TINY)
    assert not fresh.cached and hit.cached
    assert hit.result.to_json() == fresh.result.to_json()
    assert cache.hits == 1


def test_cache_shared_across_runners(tmp_path):
    Runner(max_workers=1, cache=tmp_path / "c", retries=0).run_one(TINY)
    outcome = Runner(max_workers=1, cache=tmp_path / "c", retries=0).run_one(TINY)
    assert outcome.cached


# -- pool path ------------------------------------------------------------
def test_pool_runs_specs_in_order():
    specs = [TINY.with_(seed=s) for s in (1, 2, 3)]
    outcomes = Runner(max_workers=2, retries=0).run(specs)
    assert [o.spec for o in outcomes] == specs
    assert all(o.ok for o in outcomes)
    # parallel (JSON round-tripped) results match in-process execution
    assert outcomes[0].result.to_json() == execute_spec(specs[0]).to_json()


def test_timeout_reported_as_error():
    runner = Runner(
        max_workers=2, timeout=0.2, retries=0, worker=sleepy_worker
    )
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    assert all(not o.ok for o in outcomes)
    assert all("timed out" in o.error for o in outcomes)


@PATHS
def test_crash_retried_verbatim(workers, tmp_path):
    specs = [TINY.with_(seed=3), TINY.with_(seed=4)]
    with Runner(
        max_workers=workers, retries=1, worker=Flaky(tmp_path, "crash")
    ) as runner:
        outcomes = runner.run(specs)
    for spec, outcome in zip(specs, outcomes):
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.result.to_json() == execute_spec(spec).to_json()
    # both attempts ran the identical spec: no reseeding
    assert calls(tmp_path) == {spec.spec_hash(): 2 for spec in specs}


def test_retries_exhausted_reports_error():
    runner = Runner(max_workers=2, retries=1, worker=crashy_worker)
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    assert all(not o.ok for o in outcomes)
    assert all("boom" in o.error for o in outcomes)


# -- failure paths: timeouts, retry accounting, typed exhaustion ----------
def test_timeout_retry_accounting():
    runner = Runner(
        max_workers=2, timeout=0.2, retries=1, worker=sleepy_worker
    )
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    for outcome in outcomes:
        assert not outcome.ok
        assert outcome.attempts == 2  # the initial try plus one retry
        assert outcome.error_type == "RetryBudgetExhausted"
        assert "timed out" in outcome.error


def test_pool_retry_accounting_is_verbatim(tmp_path):
    # a budget of two retries, of which a fail-once spec spends one
    specs = [TINY.with_(seed=3), TINY.with_(seed=4)]
    with Runner(
        max_workers=2, retries=2, worker=Flaky(tmp_path, "crash"),
        chunk_size=1,
    ) as runner:
        outcomes = runner.run(specs)
    for outcome in outcomes:
        assert outcome.ok
        assert outcome.attempts == 2
    assert calls(tmp_path) == {spec.spec_hash(): 2 for spec in specs}


def test_exhaustion_is_typed():
    runner = Runner(max_workers=1, retries=1, worker=crashy_worker)
    outcome = runner.run_one(TINY.with_(seed=1))
    assert not outcome.ok
    assert outcome.error_type == "RetryBudgetExhausted"
    assert "retry budget exhausted" in outcome.error
    assert "boom" in outcome.error  # the last underlying error rides along


def test_corrupt_payload_is_retried_not_fatal():
    # a worker returning garbage must not crash the parent campaign
    runner = Runner(max_workers=2, retries=0, worker=garbage_worker)
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    for outcome in outcomes:
        assert not outcome.ok
        assert outcome.error_type == "RetryBudgetExhausted"
        assert "corrupt result payload" in outcome.error


# -- the retry rule: only infrastructure failures, always verbatim --------
@PATHS
def test_simulation_error_is_terminal_on_the_first_attempt(workers):
    specs = [TINY.with_(seed=s, max_events=100) for s in (1, 2)]
    with Runner(max_workers=workers, retries=2) as runner:
        outcomes = runner.run(specs)
    for outcome in outcomes:
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error_type == "BudgetExhausted"
        assert outcome.error.startswith("BudgetExhausted: ")


@PATHS
def test_oracle_violation_is_run_exactly_once(workers, tmp_path):
    specs = [TINY.with_(seed=1), TINY.with_(seed=2)]
    worker = Flaky(tmp_path, "oracle", every=True)
    with Runner(max_workers=workers, retries=2, worker=worker) as runner:
        outcomes = runner.run(specs)
    for outcome in outcomes:
        assert outcome.attempts == 1
        assert outcome.error_type == "OracleViolation"
    assert calls(tmp_path) == {spec.spec_hash(): 1 for spec in specs}


def test_killed_worker_reruns_the_identical_spec(tmp_path):
    # os._exit breaks the pool; only a pool child can take that path
    specs = [TINY.with_(seed=1), TINY.with_(seed=2)]
    with Runner(
        max_workers=2, retries=1, worker=Flaky(tmp_path, "exit"),
        backoff_base_s=0.0,
    ) as runner:
        outcomes = runner.run(specs)
    for spec, outcome in zip(specs, outcomes):
        assert outcome.ok
        assert outcome.result.to_json() == execute_spec(spec).to_json()
    assert set(calls(tmp_path)) == {spec.spec_hash() for spec in specs}
    assert runner.pool_breakages >= 1


def test_timed_out_spec_reruns_the_identical_spec(tmp_path):
    # a timeout needs a pool: a serial run cannot be preempted
    specs = [TINY.with_(seed=1), TINY.with_(seed=2)]
    with Runner(
        max_workers=2, timeout=2.0, retries=1, worker=Flaky(tmp_path, "hang")
    ) as runner:
        outcomes = runner.run(specs)
    for spec, outcome in zip(specs, outcomes):
        assert outcome.ok and outcome.attempts == 2
        assert outcome.result.to_json() == execute_spec(spec).to_json()
    assert calls(tmp_path) == {spec.spec_hash(): 2 for spec in specs}


def test_pooled_duration_is_measured_in_the_worker():
    # with a timeout every spec is its own task; a spec that finished
    # next to a slower one must still report its own run time
    specs = [TINY.with_(seed=s) for s in (1, 2, 3, 4)]
    with Runner(
        max_workers=2, timeout=60.0, retries=0, worker=slow_start_worker
    ) as runner:
        outcomes = runner.run(specs)
    assert all(o.ok for o in outcomes)
    assert all(o.duration_s >= 0.3 for o in outcomes)


# -- graceful degradation to serial ---------------------------------------
def test_broken_pool_falls_back_to_serial():
    runner = Runner(max_workers=2, retries=0, worker=pool_killing_worker)
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    assert all(o.ok for o in outcomes)
    assert runner.serial_fallbacks >= 1


def test_pool_breakage_supervision_recorded():
    runner = Runner(
        max_workers=2, retries=0, worker=pool_killing_worker,
        backoff_base_s=0.0,
    )
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    assert all(o.ok for o in outcomes)  # the specs still got done
    # every pool dispatch broke: recycled until the circuit opened
    assert runner.pool_breakages == runner.breaker_threshold
    assert runner.circuit_open
    kinds = [e["kind"] for e in runner.degradation_events]
    assert kinds.count("pool_breakage") == runner.pool_breakages
    assert "circuit_open" in kinds
    # every breakage reported how many specs it left unresolved
    assert all(
        e["unresolved"] >= 1 for e in runner.degradation_events
        if e["kind"] == "pool_breakage"
    )


def test_breaker_threshold_one_opens_immediately():
    runner = Runner(
        max_workers=2, retries=0, worker=pool_killing_worker,
        breaker_threshold=1, backoff_base_s=0.0,
    )
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    assert all(o.ok for o in outcomes)
    assert runner.pool_breakages == 1 and runner.circuit_open
    assert runner.serial_fallbacks == 1


def test_open_circuit_skips_pool_on_later_runs():
    with Runner(
        max_workers=2, retries=0, worker=pool_killing_worker,
        breaker_threshold=1, backoff_base_s=0.0,
    ) as runner:
        runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
        assert runner.circuit_open
        outcomes = runner.run([TINY.with_(seed=5), TINY.with_(seed=6)])
        assert all(o.ok for o in outcomes)
        assert runner._pool is None  # degraded: no pool was spawned
        assert runner.pool_breakages == 1  # no new breakages either


def test_backoff_jitter_deterministic_per_seed():
    a = Runner(supervision_seed=7)
    b = Runner(supervision_seed=7)
    c = Runner(supervision_seed=8)
    rolls_a = [a._jitter(n) for n in range(1, 4)]
    assert rolls_a == [b._jitter(n) for n in range(1, 4)]
    assert rolls_a != [c._jitter(n) for n in range(1, 4)]
    assert all(0.0 <= r < 1.0 for r in rolls_a)


def test_cache_put_failure_tolerated(tmp_path):
    cache = ResultCache(tmp_path / "cache")

    def failing_put(spec, result):
        raise OSError("disk full")

    cache.put = failing_put
    runner = Runner(max_workers=1, retries=0, cache=cache)
    outcome = runner.run_one(TINY)
    assert outcome.ok  # the result survived the failed write
    assert runner.cache_put_failures == 1
    assert runner.degradation_events[0]["kind"] == "cache_put_failure"


def test_pool_creation_failure_falls_back_to_serial(monkeypatch):
    def no_pool(self, n_tasks):
        raise OSError("no processes here")

    monkeypatch.setattr(Runner, "_make_pool", no_pool)
    runner = Runner(max_workers=2, retries=0)
    outcomes = runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    assert all(o.ok for o in outcomes)
    assert runner.serial_fallbacks == 1


# -- journaled campaigns ---------------------------------------------------
def test_journaled_run_reaches_terminal_states(tmp_path):
    from repro.runner import CampaignJournal

    journal_path = tmp_path / "campaign.journal"
    with Runner(max_workers=1, retries=0, journal=journal_path) as runner:
        runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
    state = CampaignJournal.replay(journal_path)
    assert len(state.done) == 2 and not state.lost
    assert state.sessions == 1
    for spec_state in state.done:
        assert spec_state.result_digest  # byte-identity audit material


def test_resumed_campaign_satisfied_from_cache(tmp_path):
    from repro.runner import CampaignJournal

    journal_path = tmp_path / "campaign.journal"
    specs = [TINY.with_(seed=1), TINY.with_(seed=2)]
    cache_dir = tmp_path / "cache"
    with Runner(
        max_workers=1, retries=0, cache=cache_dir, journal=journal_path
    ) as runner:
        first = runner.run(specs)
    with Runner(
        max_workers=1, retries=0, cache=cache_dir, journal=journal_path
    ) as runner:
        second = runner.run(specs)
    assert all(o.cached and o.resumed for o in second)
    assert [o.result.to_json() for o in second] == [
        o.result.to_json() for o in first
    ]
    state = CampaignJournal.replay(journal_path)
    assert state.sessions == 2
    assert not state.duplicates  # cache hits are not re-completions


def test_resume_with_different_matrix_refused_by_runner(tmp_path):
    import pytest

    from repro.errors import CampaignJournalError

    journal_path = tmp_path / "campaign.journal"
    with Runner(max_workers=1, retries=0, journal=journal_path) as runner:
        runner.run([TINY.with_(seed=1)])
    with Runner(max_workers=1, retries=0, journal=journal_path) as runner:
        with pytest.raises(CampaignJournalError):
            runner.run([TINY.with_(seed=99)])


def test_journal_records_typed_failures(tmp_path):
    from repro.runner import CampaignJournal

    journal_path = tmp_path / "campaign.journal"
    with Runner(
        max_workers=1, retries=0, worker=crashy_worker, journal=journal_path
    ) as runner:
        runner.run([TINY.with_(seed=1)])
    state = CampaignJournal.replay(journal_path)
    (failed,) = state.failed
    assert failed.error_type == "RetryBudgetExhausted"


# -- artifacts & progress --------------------------------------------------
def test_artifacts_written_per_outcome(tmp_path):
    path = tmp_path / "runs.jsonl"
    runner = Runner(max_workers=1, retries=0, artifacts=path)
    runner.run([TINY, TINY.with_(seed=4)])
    from repro.runner import ArtifactStore

    records = ArtifactStore(path).load()
    assert len(records) == 2
    assert records[0]["spec"]["workload"] == "ssca2"
    assert records[0]["result"]["commits"] >= 0


def test_artifacts_record_provenance(tmp_path):
    path = tmp_path / "runs.jsonl"
    Runner(max_workers=1, retries=0, artifacts=path).run([TINY])
    from repro.runner import ArtifactStore

    record = ArtifactStore(path).load()[0]
    prov = record["provenance"]
    assert prov["python"] and prov["repro_version"]
    # inside this repo the revision resolves; outside it would be None
    assert "git_revision" in prov and "git_dirty" in prov


def test_progress_callable_sees_every_run():
    lines = []
    runner = Runner(max_workers=1, retries=0, progress=lines.append)
    runner.run([TINY, TINY.with_(seed=4)])
    assert len(lines) == 2
    assert "[2/2]" in lines[1]


# -- warm pool, chunking, streaming ---------------------------------------
def test_warm_pool_reused_across_runs():
    with Runner(max_workers=2, retries=0) as runner:
        runner.run([TINY.with_(seed=1), TINY.with_(seed=2)])
        first_pool = runner._pool
        assert first_pool is not None  # kept warm, not shut down
        outcomes = runner.run([TINY.with_(seed=5), TINY.with_(seed=6)])
        assert runner._pool is first_pool
        assert all(o.ok for o in outcomes)
    assert runner._pool is None  # context exit released it


def test_chunked_pool_matches_serial():
    specs = [TINY.with_(seed=s) for s in range(1, 7)]
    serial = [Runner(max_workers=1, retries=0).run_one(s) for s in specs]
    with Runner(max_workers=2, retries=0, chunk_size=3) as runner:
        pooled = runner.run(specs)
    assert [o.result.total_cycles for o in pooled] == [
        o.result.total_cycles for o in serial
    ]


def test_chunked_crash_retried_verbatim(tmp_path):
    specs = [TINY.with_(seed=1), TINY.with_(seed=2)]
    with Runner(
        max_workers=2, retries=1, worker=Flaky(tmp_path, "crash"),
        chunk_size=2,
    ) as runner:
        outcomes = runner.run(specs)
    assert all(o.ok for o in outcomes)
    assert all(o.attempts == 2 for o in outcomes)
    assert calls(tmp_path) == {spec.spec_hash(): 2 for spec in specs}


def test_chunk_failure_does_not_take_siblings_down():
    with Runner(
        max_workers=2, retries=0, worker=crashy_worker, chunk_size=2
    ) as runner:
        # seed 2000 succeeds, seed 1 crashes — same chunk
        outcomes = runner.run([TINY.with_(seed=2000), TINY.with_(seed=1)])
    assert outcomes[0].ok
    assert not outcomes[1].ok and "boom" in outcomes[1].error


def test_run_iter_streams_outcomes():
    specs = [TINY.with_(seed=s) for s in (1, 2, 3)]
    with Runner(max_workers=2, retries=0) as runner:
        seen = []
        for outcome in runner.run_iter(specs):
            assert outcome.ok  # resolved by the time it is yielded
            seen.append(outcome.spec.seed)
    assert sorted(seen) == [1, 2, 3]


def test_run_iter_yields_cache_hits_first(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    Runner(max_workers=1, cache=cache, retries=0).run_one(TINY.with_(seed=2))
    with Runner(max_workers=1, cache=cache, retries=0) as runner:
        outcomes = list(runner.run_iter([TINY.with_(seed=2), TINY.with_(seed=9)]))
    assert outcomes[0].cached and outcomes[0].spec.seed == 2
    assert not outcomes[1].cached and outcomes[1].ok
