"""STUDY documents: aggregation, artifacts, rendering and comparison.

Built on synthetic :class:`RunOutcome` values so every aggregation rule
(sum over seeds, max pool high-water, incomplete combos excluded,
failures never silently dropped) is pinned without simulation.
"""

import json

import pytest

from repro.runner import ExperimentSpec, RunOutcome
from repro.simulator import SimResult
from repro.stats.breakdown import Breakdown
from repro.study import (
    STUDY_SCHEMA_VERSION,
    StudySpace,
    build_study_doc,
    compare_studies,
    format_csv,
    format_markdown,
    load_study,
    strip_volatile,
    write_study,
)

SCHEME_A = "redirect+eager+stall"
SCHEME_B = "redirect+eager+greedy"


def result(cycles, aborts=0, pool=0):
    return SimResult(
        scheme="x", total_cycles=cycles, breakdown=Breakdown(),
        per_core=[], commits=1, aborts=aborts, tx_attempts=1 + aborts,
        scheme_stats={"pool_high_water": pool} if pool else {},
        memory={}, events_executed=1,
    )


def outcome(workload, scheme, seed, res=None, error=None):
    spec = ExperimentSpec(workload=workload, scheme=scheme, seed=seed,
                          scale="tiny")
    if error:
        return RunOutcome(spec=spec, error=error, error_type="RunFailed")
    return RunOutcome(spec=spec, result=res)


def space(**kw):
    kw.setdefault("workloads", ("starve",))
    kw.setdefault("vms", ("redirect",))
    kw.setdefault("cds", ("eager",))
    kw.setdefault("resolutions", ("stall", "greedy"))
    return StudySpace(**kw)


class TestBuildStudyDoc:
    def test_sums_cycles_and_aborts_over_seeds_maxes_pool(self):
        sp = space(seeds=(1, 2))
        doc = build_study_doc(sp, [
            outcome("starve", SCHEME_A, 1, result(100, 2, pool=7)),
            outcome("starve", SCHEME_A, 2, result(50, 3, pool=4)),
            outcome("starve", SCHEME_B, 1, result(60, 0)),
            outcome("starve", SCHEME_B, 2, result(60, 0)),
        ])
        ranking = doc["per_workload"]["starve"]["ranking"]
        by = {e["scheme"]: e for e in ranking}
        assert by[SCHEME_A]["cycles"] == 150
        assert by[SCHEME_A]["aborts"] == 5
        assert by[SCHEME_A]["pool_high_water"] == 7  # max, not sum
        assert doc["per_workload"]["starve"]["best"] == SCHEME_B

    def test_failed_seed_excludes_the_combo_and_reports_it(self):
        sp = space(seeds=(1, 2))
        doc = build_study_doc(sp, [
            outcome("starve", SCHEME_A, 1, result(1)),
            outcome("starve", SCHEME_A, 2, error="boom"),
            outcome("starve", SCHEME_B, 1, result(99)),
            outcome("starve", SCHEME_B, 2, result(99)),
        ])
        schemes = [e["scheme"]
                   for e in doc["per_workload"]["starve"]["ranking"]]
        assert schemes == [SCHEME_B]  # partial sum must not rank
        assert len(doc["failures"]) == 1
        assert doc["failures"][0]["error_type"] == "RunFailed"

    def test_front_and_rank_annotations(self):
        doc = build_study_doc(space(), [
            outcome("starve", SCHEME_A, 1, result(100, 0, 0)),
            outcome("starve", SCHEME_B, 1, result(50, 9, 0)),
        ])
        section = doc["per_workload"]["starve"]
        assert set(section["pareto_front"]) == {SCHEME_A, SCHEME_B}
        assert [e["rank"] for e in section["ranking"]] == [1, 2]
        assert all(e["on_front"] for e in section["ranking"])

    def test_workload_with_no_outcomes_is_present_but_empty(self):
        doc = build_study_doc(space(workloads=("starve", "ssca2")), [
            outcome("starve", SCHEME_A, 1, result(1)),
        ])
        assert doc["per_workload"]["ssca2"]["ranking"] == []
        assert doc["per_workload"]["ssca2"]["best"] is None

    def test_doc_shape(self):
        doc = build_study_doc(space(), [
            outcome("starve", SCHEME_A, 1, result(1)),
        ])
        assert doc["schema_version"] == STUDY_SCHEMA_VERSION
        assert doc["kind"] == "STUDY"
        assert doc["space"]["combos"] == 2
        assert "dominated_axis_values" in doc
        json.dumps(doc)  # JSON-safe throughout


class TestArtifacts:
    def _doc(self):
        return build_study_doc(space(), [
            outcome("starve", SCHEME_A, 1, result(100, 1, 2)),
            outcome("starve", SCHEME_B, 1, result(50)),
        ])

    def test_write_load_roundtrip(self, tmp_path):
        path = write_study(self._doc(), tmp_path, date="2026-08-07")
        assert path.name == "STUDY_2026-08-07.json"
        assert load_study(path)["kind"] == "STUDY"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "STUDY_x.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            load_study(path)

    def test_compare_ignores_volatile_sections(self):
        a, b = self._doc(), self._doc()
        b["provenance"] = {"git_revision": "different"}
        b["campaign"] = {"wall_s": 123.0}
        assert compare_studies(a, b) == []

    def test_compare_flags_analysis_differences(self):
        a, b = self._doc(), self._doc()
        b["per_workload"]["starve"]["best"] = SCHEME_A
        problems = compare_studies(a, b)
        assert problems and "per_workload" in problems[0]

    def test_compare_flags_missing_sections(self):
        a, b = self._doc(), self._doc()
        del b["dominated_axis_values"]
        assert any("missing from current" in p for p in compare_studies(a, b))

    def test_strip_volatile(self):
        stripped = strip_volatile(self._doc())
        assert "provenance" not in stripped and "campaign" not in stripped
        assert "per_workload" in stripped

    def test_markdown_renders_rankings_and_fronts(self):
        text = format_markdown(self._doc())
        assert "## starve" in text
        assert SCHEME_B in text and SCHEME_A in text
        assert "Pareto front" in text

    def test_csv_has_one_row_per_workload_scheme(self):
        lines = format_csv(self._doc()).strip().splitlines()
        assert lines[0].startswith("workload,rank,scheme,vm,cd")
        assert len(lines) == 1 + 2
        assert lines[1].split(",")[2] == SCHEME_B  # rank 1 first
