"""The CI benchmark gate (``benchmarks/gate.py``) on the committed runs.

The fixtures are the committed smoke-run summaries themselves, edited
one field at a time, so every verdict is checked against the numbers
CI actually compares with.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_PATH = ROOT / "benchmarks" / "results" / "e2e-smoke.jsonl"

_spec = importlib.util.spec_from_file_location("e2e_gate", ROOT / "benchmarks" / "gate.py")
gate_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate_module)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in DECLARED["end_to_end"]}
COMMITTED = gate_module.summaries(COMMITTED_PATH)


def gate(current):
    return gate_module.gate(COMMITTED, current, DECLARED)


def scaled(key, factor):
    """A committed run whose ``key`` is the worst committed value × factor."""
    values = [run["metrics"][key]["value"] for run in COMMITTED]
    lower = BETTER[key.partition(".")[2]] == "lower"
    run = copy.deepcopy(COMMITTED[0])
    run["metrics"][key]["value"] = (max if lower else min)(values) * factor
    return run


def test_committed_runs_cover_every_declared_metric_of_every_workload():
    assert len(COMMITTED) >= 5
    workloads = {w["name"] for w in DECLARED["workloads"]}
    expected = {f"{w}.{n}" for w in workloads for n in BETTER}
    for run in COMMITTED:
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == expected


@pytest.mark.parametrize("index", range(len(COMMITTED)))
def test_gate_passes_every_committed_run_against_itself(index):
    assert gate(COMMITTED[index]) == []


@pytest.mark.parametrize("key,factor", [
    ("hc16.wall_ref_s", 1.25),
    ("campaign.wall_ref_s", 1.25),
    ("lc16.suv_speedup_logtm", 0.8),
    ("mux32on8.suv_speedup_fastm", 0.8),
])
def test_gate_fails_a_metric_worse_than_its_bound(key, factor):
    problems = gate(scaled(key, factor))
    assert len(problems) == 1 and problems[0].startswith(f"{key}:")


@pytest.mark.parametrize("key,factor", [
    ("hc16.wall_ref_s", 0.5),
    ("lc16.peak_rss_mb", 0.9),
    ("hc16.suv_speedup_logtm", 1.3),
])
def test_gate_passes_an_improved_metric(key, factor):
    assert gate(scaled(key, factor)) == []


@pytest.mark.parametrize("field,value,message", [
    ("correct", False, "correct is false"),
    ("failed", 1, "1 spec(s) failed"),
    ("attempted", 197, "attempted 197"),
], ids=["correct", "failed", "attempted"])
def test_gate_fails_an_incorrect_or_shrunk_run(field, value, message):
    run = copy.deepcopy(COMMITTED[0])
    run[field] = value
    problems = gate(run)
    assert len(problems) == 1 and problems[0].startswith(message)


def test_gate_fails_a_dropped_workload():
    run = copy.deepcopy(COMMITTED[0])
    run["metrics"] = {k: v for k, v in run["metrics"].items() if not k.startswith("hc16.")}
    problems = gate(run)
    assert len(problems) == len(DECLARED["end_to_end"])
    assert all(p.startswith("hc16.") and p.endswith(": missing") for p in problems)


def test_gate_fails_an_undeclared_metric():
    run = copy.deepcopy(COMMITTED[0])
    run["metrics"]["hc16.wall_s"] = {"value": 0.5, "unit": "s"}
    assert gate(run) == [
        "hc16.wall_s: not in the committed runs",
        "hc16.wall_s: not declared in BENCHMARK.json",
    ]


def test_gate_cli_reads_the_last_summary_line_of_a_stdout_file(tmp_path, capsys):
    stdout = tmp_path / "stdout.txt"
    stdout.write_text("hc16 wall_ref_s 0.3 s\n" + json.dumps(COMMITTED[-1]) + "\n")
    assert gate_module.main([str(COMMITTED_PATH), str(stdout)]) == 0
    assert "gate: pass" in capsys.readouterr().out
    stdout.write_text(json.dumps(scaled("hc16.wall_ref_s", 1.25)) + "\n")
    assert gate_module.main([str(COMMITTED_PATH), str(stdout)]) == 1
    out = capsys.readouterr().out
    assert "FAIL hc16.wall_ref_s" in out and "gate: FAIL" in out
    stdout.write_text("no summary\n")
    assert gate_module.main([str(COMMITTED_PATH), str(stdout)]) == 1
    assert gate_module.main([str(COMMITTED_PATH)]) == 2
