"""Tests for the command-line interface."""

import shlex
from pathlib import Path

import pytest

from repro.cli import SCHEMES, build_parser, main
from repro.htm.vm.base import available_schemes


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "genome" in out and "suv" in out and "dyntm+suv" in out


def test_hwcost_command(capsys):
    assert main(["hwcost"]) == 0
    out = capsys.readouterr().out
    assert "Table VII" in out
    assert "1.382" in out  # 90nm access time


def test_run_command(capsys):
    rc = main(["run", "ssca2", "suv", "--scale", "tiny", "--cores", "4",
               "--stagger", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "commits" in out and "NoTrans" in out


def test_run_with_stats(capsys):
    main(["run", "ssca2", "suv", "--scale", "tiny", "--cores", "4",
          "--stats"])
    out = capsys.readouterr().out
    assert "redirects" in out


def test_compare_command(capsys):
    rc = main(["compare", "ssca2", "--scale", "tiny", "--cores", "4",
               "--schemes", "logtm-se", "suv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized to logtm-se" in out


def test_sweep_command(capsys):
    rc = main(["sweep", "ssca2", "l1_entries", "64", "512",
               "--scale", "tiny", "--cores", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sweep of l1_entries" in out


def test_schemes_derived_from_registry():
    assert SCHEMES == available_schemes()


def test_sweep_emits_scheme_appropriate_stats(capsys):
    rc = main(["sweep", "ssca2", "l1_entries", "64",
               "--scale", "tiny", "--cores", "4", "--scheme", "logtm-se"])
    assert rc == 0
    out = capsys.readouterr().out
    # logtm-se has no redirect tables: no misleading SUV-only columns
    assert "L1-table miss" not in out
    assert "log writes" in out


def test_matrix_command_caches_results(capsys, tmp_path):
    argv = ["matrix", "--workloads", "ssca2", "synthetic",
            "--schemes", "logtm-se", "suv", "--seeds", "1", "2",
            "--scale", "tiny", "--cores", "4", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"), "--quiet"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "8 specs" in first and "cache hits 0/8" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "cache hits 8/8 (100%)" in second
    # cached results reproduce the fresh ones exactly (the trailing
    # column shows wall time vs "cache", so compare everything before it)
    def stat_rows(text):
        return [line.rsplit("|", 1)[0] for line in text.splitlines()
                if line.count("|") > 2 and "cache hits" not in line]

    assert stat_rows(first) == stat_rows(second)


def test_matrix_prints_campaign_report(capsys, tmp_path):
    rc = main(["matrix", "--workloads", "ssca2", "--schemes", "suv",
               "--seeds", "1", "--scale", "tiny", "--cores", "4",
               "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
               "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "campaign report:" in out
    assert "1 total | 1 ok, 0 failed" in out


def test_matrix_resume_satisfies_from_journal(capsys, tmp_path):
    argv = ["matrix", "--workloads", "ssca2", "--schemes", "suv",
            "--seeds", "1", "2", "--scale", "tiny", "--cores", "4",
            "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
            "--resume", str(tmp_path / "campaign.journal"), "--quiet"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache hits 2/2" in out
    assert "2 cached, 2 resumed" in out


def test_matrix_report_appended_to_artifacts(tmp_path):
    import json

    artifacts = tmp_path / "runs.jsonl"
    rc = main(["matrix", "--workloads", "ssca2", "--schemes", "suv",
               "--seeds", "1", "--scale", "tiny", "--cores", "4",
               "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
               "--artifacts", str(artifacts), "--quiet"])
    assert rc == 0
    records = [json.loads(line) for line in artifacts.read_text().splitlines()]
    assert records[-1]["kind"] == "campaign_report"
    assert records[-1]["report"]["ok"] == 1


def test_matrix_reports_a_listed_oracle_violation_as_failed(
    capsys, tmp_path, monkeypatch
):
    import json
    from pathlib import Path

    # the first known violation: it must fail once, typed, never be
    # replaced by a retried run on another seed
    known = json.loads(
        (Path(__file__).parent / "data" / "oracle_known_violations.json")
        .read_text()
    )[0]
    assert known == {"workload": "vacation", "scheme": "dyntm",
                     "seed": 3, "cores": 4}
    monkeypatch.chdir(tmp_path)
    artifacts = tmp_path / "runs.jsonl"
    rc = main(["matrix", "--workloads", "vacation", "--schemes", "dyntm",
               "--seeds", "3", "--scale", "tiny", "--cores", "4",
               "--check", "--no-cache", "--quiet",
               "--artifacts", str(artifacts)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "0 ok, 1 failed" in out
    assert "attempts  : 1 (0 retries)" in out
    (record,) = [
        json.loads(line) for line in artifacts.read_text().splitlines()
        if "spec_hash" in json.loads(line)
    ]
    assert record["error_type"] == "OracleViolation"
    assert record["attempts"] == 1
    assert record["spec"]["seed"] == 3


def test_cache_verify_command(capsys, tmp_path):
    from repro.runner import ExperimentSpec, ResultCache
    from repro.runner.executor import execute_spec

    spec = ExperimentSpec("ssca2", scheme="suv", scale="tiny", cores=4)
    cache = ResultCache(tmp_path / "cache")
    cache.put(spec, execute_spec(spec))
    assert main(["cache", "verify", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    assert "1 ok, 0 quarantined" in capsys.readouterr().out

    cache.path_for(spec).write_text("{not json")
    assert main(["cache", "verify", "--cache-dir",
                 str(tmp_path / "cache")]) == 1
    out = capsys.readouterr().out
    assert "1 quarantined" in out and "unreadable JSON" in out


def test_cache_stats_command(capsys, tmp_path):
    from repro.runner import ResultCache

    ResultCache(tmp_path / "cache")  # create an empty cache
    assert main(["cache", "stats", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "quarantined" in out


def test_chaos_command_smoke(capsys, tmp_path):
    rc = main(["chaos", "--presets", "crash", "--seeds", "2",
               "--workloads", "ssca2", "--schemes", "suv",
               "--scale", "tiny", "--cores", "4", "--jobs", "2",
               "--kill-after", "1", "--root", str(tmp_path / "chaos")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 campaigns | 1 passed, 0 failed" in out
    assert (tmp_path / "chaos" / "crash-s2" / "report.json").exists()
    assert (tmp_path / "chaos" / "crash-s2" / "campaign.journal").exists()


def test_run_trace_chrome(tmp_path, capsys):
    import json

    path = tmp_path / "trace.json"
    rc = main(["run", "synthetic", "suv", "--scale", "tiny", "--cores", "4",
               "--trace", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "Isolation windows" in out
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_run_trace_jsonl(tmp_path, capsys):
    import json

    path = tmp_path / "trace.jsonl"
    rc = main(["run", "synthetic", "suv", "--scale", "tiny", "--cores", "4",
               "--trace", str(path), "--trace-format", "jsonl"])
    assert rc == 0
    first = json.loads(path.read_text().splitlines()[0])
    assert {"ts", "kind", "core"} <= set(first)


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "quicksort"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_fault_plan_and_check(capsys):
    rc = main(["run", "synthetic", "suv", "--scale", "tiny", "--cores", "4",
               "--fault-plan", "tx-kill", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "faults:" in out and "events injected" in out
    assert "oracle: PASSED" in out


def test_run_rejects_unknown_fault_plan():
    with pytest.raises(ValueError, match="unknown fault plan"):
        main(["run", "synthetic", "suv", "--scale", "tiny", "--cores", "4",
              "--fault-plan", "no-such-plan"])


def test_faults_campaign_command(capsys):
    rc = main(["faults", "--workloads", "synthetic", "--schemes", "suv",
               "--plans", "tx-kill", "--scale", "tiny", "--cores", "4",
               "--jobs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault campaign" in out
    assert "(none)" in out      # the fault-free baseline row
    assert "tx-kill" in out
    assert "pass" in out and "FAIL" not in out


def test_list_mentions_fault_plans(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fault plans:" in out and "tx-kill" in out


def test_schemes_command_table(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "canonical schemes" in out
    assert "redirect" in out and "adaptive" in out
    assert "legal of" in out


def test_schemes_list_json_smoke(capsys):
    import json

    assert main(["schemes", "--list", "--json"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert "redirect+lazy+stall" in names
    assert "undo+eager+timestamp" in names
    assert "undo+lazy+stall" not in names  # illegal: not listed

    assert main(["schemes", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["legal"] == len(doc["legal"])
    assert doc["counts"]["total"] == len(doc["legal"]) + len(doc["illegal"])
    assert all(row["reason"] for row in doc["illegal"])
    assert {row["name"] for row in doc["canonical"]} == set(SCHEMES)


def test_schemes_markdown_matches_registry(capsys):
    assert main(["schemes", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "| Scheme | VM axis | CD axis |" in out
    for scheme in SCHEMES:
        assert f"`{scheme}`" in out


def test_run_accepts_composed_scheme_name(capsys):
    rc = main(["run", "ssca2", "redirect+lazy+stall",
               "--scale", "tiny", "--cores", "4", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "axes: vm=redirect cd=lazy resolution=stall\n" in out
    assert "oracle: PASSED" in out


def test_run_rejects_unknown_and_illegal_schemes(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "ssca2", "sub"])
    assert "did you mean" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "ssca2", "undo+lazy+stall"])
    assert "coherence" in capsys.readouterr().err
    # four-token names and the arbitration flag are gone
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["run", "ssca2", "redirect+lazy+stall+serial"]
        )
    assert "did you mean 'redirect+lazy+stall'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "ssca2", "--arbitration", "serial"])
    assert "unrecognized arguments: --arbitration" in capsys.readouterr().err


def test_matrix_sweeps_policy_axes(capsys, tmp_path):
    rc = main(["matrix", "--workloads", "ssca2",
               "--schemes", "redirect+lazy+stall", "buffer+lazy+stall",
               "--scale", "tiny", "--cores", "4", "--jobs", "1",
               "--cache-dir", str(tmp_path / "cache"), "--quiet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "redirect+lazy+stall" in out
    assert "buffer+lazy+stall" in out


def _documented_commands():
    """Every ``python -m repro`` command in the fenced blocks of the docs.

    ``\\`` continuations are joined; comments and anything after a pipe
    or a redirection are dropped.
    """
    root = Path(__file__).resolve().parent.parent
    for doc in ("README.md", "EXPERIMENTS.md"):
        fenced, pending = False, ""
        for lineno, line in enumerate(
            (root / doc).read_text().splitlines(), 1
        ):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, ""
                continue
            if not fenced:
                continue
            pending += line.rstrip()
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            command, pending = pending, ""
            if "python -m repro " not in command:
                continue
            argv = shlex.split(
                command.split("python -m repro ", 1)[1], comments=True
            )
            for stop in ("|", ">", "&&", ";"):
                if stop in argv:
                    argv = argv[:argv.index(stop)]
            yield pytest.param(argv, id=f"{doc}:{lineno}")


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_commands_parse(argv):
    # a deleted flag cannot leave a stale documented command behind
    build_parser().parse_args(argv)
