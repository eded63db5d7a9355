"""CI configuration invariants, enforced from the test suite.

The workflows can't run here, but their load-bearing properties are
plain text: exact action pins (one version per action, registered in
the setup-repro composite), concurrency cancellation, artifact uploads
that survive failed gates, the Python matrix, the benchmark gate and
the study jobs.
Textual assertions keep a drive-by workflow edit from silently
unpinning an action or dropping the determinism gate.  Scheme names
passed to ``--schemes`` are resolved here too, so a removed alias fails
locally rather than on GitHub.
"""

import json
import re
from pathlib import Path

from repro.htm.vm import resolve_scheme_name

GITHUB = Path(__file__).resolve().parent.parent / ".github"
CI = GITHUB / "workflows" / "ci.yml"
NIGHTLY = GITHUB / "workflows" / "nightly-study.yml"
SETUP = GITHUB / "actions" / "setup-repro" / "action.yml"
KNOWN_VIOLATIONS = (
    GITHUB.parent / "tests" / "data" / "oracle_known_violations.json"
)

#: exact semver tag, e.g. ``actions/checkout@v4.2.2``
EXACT = re.compile(r"^v\d+\.\d+\.\d+$")
USES = re.compile(r"uses:\s*(\S+)")
#: a repo-relative test or benchmark path on a command line
REPO_PATH = re.compile(r"(?<![\w/.-])((?:tests|benchmarks)/[\w./-]*)")


def job(name: str, path: Path = CI) -> str:
    """The text of one job block: its ``  name:`` header line and every
    following line until the next line indented two spaces or less."""
    lines = path.read_text().splitlines()
    start = lines.index(f"  {name}:")
    end = next(
        (i for i in range(start + 1, len(lines))
         if lines[i].strip() and len(lines[i]) - len(lines[i].lstrip()) <= 2),
        len(lines),
    )
    return "\n".join(lines[start:end])


def all_yaml_files():
    return sorted(GITHUB.rglob("*.yml"))


def action_refs():
    """Every third-party ``uses:`` reference across all CI yaml."""
    refs = []
    for path in all_yaml_files():
        for line in path.read_text().splitlines():
            match = USES.search(line)
            if match and not match.group(1).startswith("./"):
                refs.append((path.name, match.group(1)))
    return refs


def test_every_action_is_pinned_to_an_exact_version():
    assert action_refs(), "no action references found — wrong path?"
    for filename, ref in action_refs():
        name, _, version = ref.partition("@")
        assert EXACT.match(version), (
            f"{filename}: {ref} is not pinned to an exact version "
            f"(expected {name}@vX.Y.Z)"
        )


def test_each_action_has_exactly_one_version_everywhere():
    by_action: dict[str, set[str]] = {}
    for _filename, ref in action_refs():
        name, _, version = ref.partition("@")
        by_action.setdefault(name, set()).add(version)
    drifted = {n: sorted(v) for n, v in by_action.items() if len(v) > 1}
    assert not drifted, f"action versions drifted across workflows: {drifted}"


def test_setup_repro_composite_is_the_pin_registry():
    # the composite's description must list every pinned action at the
    # version the workflows actually use — one human-auditable place
    registry = SETUP.read_text()
    pins = {ref.partition("@")[0]: ref.partition("@")[2]
            for _filename, ref in action_refs()}
    for name, version in sorted(pins.items()):
        short = name.split("/")[-1]
        assert re.search(rf"{short}\s+{re.escape(version)}", registry), (
            f"setup-repro registry is missing {name} {version}"
        )


def test_ci_cancels_superseded_runs():
    text = CI.read_text()
    assert "concurrency:" in text
    assert "cancel-in-progress: true" in text


def test_ci_python_matrix_includes_313():
    matrix = re.search(r"python-version:\s*\[([^\]]+)\]", CI.read_text())
    assert matrix, "tests job lost its python-version matrix"
    versions = [v.strip().strip('"') for v in matrix.group(1).split(",")]
    assert versions == ["3.11", "3.12", "3.13"]


def test_artifact_uploads_survive_failed_gates():
    # every upload-artifact step needs `if: always()` — a failing gate
    # is exactly when the artifact matters
    for path in (CI, NIGHTLY):
        steps = path.read_text().split("- name:")
        for step in steps:
            if "upload-artifact" in step:
                assert "if: always()" in step, (
                    f"{path.name}: an upload-artifact step is missing "
                    "`if: always()`"
                )


def test_ci_has_the_study_smoke_determinism_gate():
    text = CI.read_text()
    assert "study-smoke:" in text
    assert "study --workloads starve,ssca2" in text
    assert "study compare" in text


def test_job_extracts_one_block_by_indentation():
    smoke = job("bench-smoke")
    assert smoke.startswith("  bench-smoke:")
    assert "\n  bench-gate:" not in smoke and "runs-on:" in smoke
    assert job("oracle-sweep").rstrip().endswith("path: oracle-out/*.jsonl")


def test_bench_smoke_runs_the_e2e_benchmark_tests():
    assert "python -m pytest benchmarks/e2e" in job("bench-smoke")


def test_bench_gate_runs_and_gates_the_e2e_benchmark():
    gate = job("bench-gate").replace("\\\n", " ")
    assert "benchmarks/e2e/run.py --smoke" in gate
    assert "benchmarks/gate.py benchmarks/results/e2e-smoke.jsonl" in " ".join(gate.split())
    # stdout goes to a file: a pipe would mask run.py's exit code
    run_line = next(line for line in gate.splitlines() if "e2e/run.py" in line)
    assert "|" not in run_line and ">" in run_line
    upload = next(step for step in gate.split("- name:") if "upload-artifact" in step)
    assert "if: always()" in upload
    assert not any(re.search(r"repro\s+bench", p.read_text()) for p in all_yaml_files())


def test_workflow_test_and_script_paths_exist():
    # a job that points pytest or python at a deleted tests/ or
    # benchmarks/ path would only fail on GitHub; catch it here
    root = GITHUB.parent
    checked = 0
    for path in all_yaml_files():
        text = path.read_text().replace("\\\n", " ")
        for line in text.splitlines():
            if "python" not in line:
                continue
            for target in REPO_PATH.findall(line):
                checked += 1
                assert (root / target).exists(), (
                    f"{path.name}: {target} does not exist in the checkout"
                )
    assert checked, "no tests/ or benchmarks/ paths found — wrong regex?"


def test_nightly_study_is_scheduled_and_dispatchable():
    text = NIGHTLY.read_text()
    assert "schedule:" in text and re.search(r"cron:\s*\"", text)
    assert "workflow_dispatch:" in text
    assert "python -m repro study" in text
    assert "--resume" in text  # crash-safe: journal-backed campaign


def test_workflow_scheme_names_resolve():
    # every name after ``--schemes`` on a (continuation-joined) command
    # line must resolve: named scheme, alias, or legal composed name
    checked = 0
    for path in all_yaml_files():
        for line in path.read_text().replace("\\\n", " ").splitlines():
            tokens = line.split()
            if "--schemes" not in tokens:
                continue
            for name in tokens[tokens.index("--schemes") + 1:]:
                if name.startswith("-"):
                    break
                checked += 1
                resolve_scheme_name(name)  # raises on a stale name
    assert checked, "no --schemes lists found — wrong path?"


def test_ci_sweeps_every_legal_name_under_the_oracle():
    sweep = job("oracle-sweep")
    assert "--check" in sweep and "--retries 0" in sweep
    assert "schemes --list" in sweep  # every legal composed name
    assert "--cores \"$cores\"" in sweep and "for cores in 4 16" in sweep
    assert "tests/data/oracle_known_violations.json" in sweep
    # every failure carries its own type: the ratchet judges it exactly
    assert 'r["error_type"] != "OracleViolation"' in sweep


def test_known_oracle_violations_name_real_runs():
    # the ratchet list must stay resolvable, or a renamed scheme would
    # turn every listed run into a "now passes" failure on GitHub
    known = json.loads(KNOWN_VIOLATIONS.read_text())
    for run in known:
        assert set(run) == {"workload", "scheme", "seed", "cores"}
        assert resolve_scheme_name(run["scheme"]) == run["scheme"]
        assert run["seed"] in (1, 2, 3) and run["cores"] in (4, 16)
    assert len({tuple(sorted(r.items())) for r in known}) == len(known)
