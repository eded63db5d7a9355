"""Tests for the JSONL artifact store's crash tolerance and reports."""

import json

import pytest

from repro.runner import ArtifactStore, ExperimentSpec
from repro.runner.executor import execute_spec

SPEC = ExperimentSpec("ssca2", scheme="suv", scale="tiny", cores=4)


def test_truncated_trailing_line_skipped_and_counted(tmp_path):
    store = ArtifactStore(tmp_path / "runs.jsonl")
    store.append(SPEC, execute_spec(SPEC))
    with store.path.open("a") as stream:
        stream.write('{"spec_hash": "dead')  # writer killed mid-append
    records = store.load()
    assert len(records) == 1
    assert store.skipped_lines == 1


def test_interior_corruption_still_raises(tmp_path):
    store = ArtifactStore(tmp_path / "runs.jsonl")
    store.path.write_text('{broken\n{"spec_hash": "ok"}\n')
    with pytest.raises(json.JSONDecodeError):
        store.load()


def test_error_type_and_resumed_recorded(tmp_path):
    store = ArtifactStore(tmp_path / "runs.jsonl")
    store.append(SPEC, None, error="boom",
                 error_type="RetryBudgetExhausted", attempts=3)
    store.append(SPEC, execute_spec(SPEC), cached=True, resumed=True)
    records = store.load()
    assert records[0]["error_type"] == "RetryBudgetExhausted"
    assert records[0]["result"] is None
    assert records[1]["resumed"] is True and records[1]["cached"] is True


def test_campaign_report_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path / "runs.jsonl")
    store.append(SPEC, execute_spec(SPEC))
    store.append_report({"total": 1, "ok": 1, "failed": 0})
    assert store.reports() == [{"total": 1, "ok": 1, "failed": 0}]
    runs = store.runs()
    assert len(runs) == 1 and runs[0]["spec_hash"] == SPEC.spec_hash()


def test_record_result_has_phase_breakdown_and_no_memory(tmp_path):
    store = ArtifactStore(tmp_path / "runs.jsonl")
    result = execute_spec(SPEC)
    store.append(SPEC, result)
    recorded = store.runs()[0]["result"]
    assert "memory" not in recorded
    assert recorded["phase_breakdown"] == result.phase_breakdown
    assert recorded["total_cycles"] == result.total_cycles
