"""Tests of the end-to-end benchmark, on the ``--smoke`` workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
from workloads import SCHEMES, WORKLOADS, build_specs

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def _run(out: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_are_the_declared_ones(tmp_path, trace, section):
    # the arguments BENCHMARK.json's callers pass
    last = _run(tmp_path, "--workload", "lc16", "--seed", "3", "--seconds", "10", "--trace", trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


def test_traced_results_are_byte_identical_to_untraced():
    specs = build_specs("mux32on8", 3, smoke=True)
    plain = harness.serial_pass(specs)
    with layers.installed(layers.Recorder()) as rec:
        traced = harness.serial_pass(specs)
    assert rec.layers["simulator"].calls > 0
    assert [o.result.to_json() for o in traced] == [o.result.to_json() for o in plain]


def test_traced_campaign_matches_and_reaches_the_runner(tmp_path):
    report = harness.traced_run("campaign", build_specs("campaign", 3, smoke=True), tmp_path)
    assert report["failures"] == []
    metrics = report["metrics"]
    assert metrics["runner.cache_hit_ratio"] == 0.5
    assert metrics["runner.decode_share"] > 0 and metrics["runner.pool_wait_share"] > 0
    assert 0 < report["diagnostics"]["runner_s"]["pool_wait"] < report["diagnostics"]["traced_wall_s"]
    # the pool workers' spans come back to the parent
    assert metrics["simulator.self_s"] > 0 and metrics["workloads.ops"] > 0


def test_layer_self_times_sum_to_the_traced_wall(tmp_path):
    report = harness.traced_run("hc16", build_specs("hc16", 3, smoke=True), tmp_path)
    assert report["failures"] == []
    metrics, diag = report["metrics"], report["diagnostics"]
    program = [diag["self_s"][layer] for layer in layers.LAYERS]
    assert min(program) >= 0
    # the program's layers plus the spans' own cost cover the traced pass:
    # the benchmark's loop outside every span is under 5% of it
    accounted = sum(program) + diag["self_s"]["tracing"]
    assert accounted == pytest.approx(diag["traced_wall_s"], rel=0.05)
    assert metrics["runner.cache_get_share"] == 0 and metrics["simulator.context_switches"] == 0


def test_fail_frac_counts_an_injected_budget_failure(tmp_path):
    specs = build_specs("lc16", 3, smoke=True)
    specs[1] = specs[1].with_(max_events=10)
    report = harness.timed_run("lc16", specs, tmp_path)
    passes = report["diagnostics"]["passes"]
    # every timed pass and the check pass hit the budget on that spec
    assert report["attempted"] == len(specs) * (passes + 1)
    assert {f["type"] for f in report["failures"]} == {"BudgetExhausted"}
    assert {f["spec"] for f in report["failures"]} == {specs[1].label()}
    assert report["diagnostics"]["fail_frac"] == pytest.approx((passes + 1) / report["attempted"])


def test_missing_targets_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("kernel", "repro.sim.kernel", "NoSuchQueue", ("run",)),
        ("kernel", "repro.sim.kernel", "EventQueue", ("no_such_method",)),
    ))
    rec = layers.Recorder()
    with layers.installed(rec):
        pass
    assert "repro.sim.kernel:NoSuchQueue" in rec.missing
    assert "repro.sim.kernel:EventQueue.no_such_method" in rec.missing


#: workload -> (spec count, apps, cores, threads, scales, seeds) at seed 3
PINNED = {
    "hc16": (9, {"genome", "intruder", "yada"}, {16}, {0}, {"small"}, {3}),
    "lc16": (9, {"kmeans", "ssca2", "vacation"}, {16}, {0}, {"small", "full"}, {3}),
    "mux32on8": (12, {"genome", "intruder", "vacation", "ssca2"}, {8}, {32}, {"full"}, {3}),
    "campaign": (
        96,
        {"bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada"},
        {4}, {0}, {"tiny"}, {3, 4, 5, 6},
    ),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_spec_lists_are_pinned(name):
    specs = build_specs(name, 3)
    count, apps, cores, threads, scales, seeds = PINNED[name]
    assert len(specs) == count == len({s.spec_hash() for s in specs})
    assert {s.workload for s in specs} == apps
    assert {s.cores for s in specs} == cores
    assert {s.threads for s in specs} == threads
    assert {s.scale for s in specs} == scales
    assert {s.seed for s in specs} == seeds
    for app in apps:
        assert sorted(s.scheme for s in specs if s.workload == app) == sorted(
            SCHEMES * (len(seeds) if name == "campaign" else 1)
        )
