"""CI configuration invariants, enforced from the test suite.

The workflows can't run here, but their load-bearing properties are
plain text: exact action pins (one version per action, registered in
the setup-repro composite), concurrency cancellation, artifact uploads
that survive failed gates, the Python matrix, and the study jobs.
Textual assertions keep a drive-by workflow edit from silently
unpinning an action or dropping the determinism gate.  Scheme names
passed to ``--schemes`` are resolved here too, so a removed alias fails
locally rather than on GitHub.
"""

import re
from pathlib import Path

from repro.htm.vm import resolve_scheme_name

GITHUB = Path(__file__).resolve().parent.parent / ".github"
CI = GITHUB / "workflows" / "ci.yml"
NIGHTLY = GITHUB / "workflows" / "nightly-study.yml"
SETUP = GITHUB / "actions" / "setup-repro" / "action.yml"

#: exact semver tag, e.g. ``actions/checkout@v4.2.2``
EXACT = re.compile(r"^v\d+\.\d+\.\d+$")
USES = re.compile(r"uses:\s*(\S+)")
#: a repo-relative test or benchmark path on a command line
REPO_PATH = re.compile(r"(?<![\w/.-])((?:tests|benchmarks)/[\w./-]*)")


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


def test_bench_smoke_runs_the_e2e_benchmark_tests():
    job = CI.read_text().split("bench-smoke:")[1].split("\n  bench-regression:")[0]
    assert "python -m pytest benchmarks/e2e" in job


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
