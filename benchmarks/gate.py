"""Gate one end-to-end benchmark run against committed runs.

Usage: python3 benchmarks/gate.py COMMITTED CURRENT

Both files hold ``benchmarks/e2e/run.py`` summaries, the JSON object
run.py prints as its last stdout line.  COMMITTED is a JSONL of several
runs; CURRENT is one run's stdout, whose last JSON line is judged.  The
run fails when it is not correct, when it attempts a different number
of specs or reports a different metric set than the committed runs,
when a metric is not declared in BENCHMARK.json's ``end_to_end`` list,
or when a metric is worse than its reference by more than its bound.
The reference is the worst committed value, so run-to-run noise inside
the committed spread never fails.  Exit code: 0 pass, 1 fail, 2 usage.
"""

import json
import sys
from pathlib import Path

DECLARED = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summaries(path):
    """Every run.py summary line in ``path``, in file order."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


def gate(committed, current, declared):
    """Problems of the ``current`` run against the ``committed`` runs."""
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    problems = [] if current["correct"] else ["correct is false"]
    if current["failed"]:
        problems.append(f"{current['failed']} spec(s) failed")
    attempted = sorted({run["attempted"] for run in committed})
    if attempted != [current["attempted"]]:
        problems.append(f"attempted {current['attempted']}, committed {attempted}")
    ref_keys, cur_keys = set(committed[0]["metrics"]), set(current["metrics"])
    problems += [f"{key}: missing" for key in sorted(ref_keys - cur_keys)]
    problems += [f"{key}: not in the committed runs" for key in sorted(cur_keys - ref_keys)]
    problems += [f"{key}: not declared in BENCHMARK.json" for key in sorted(ref_keys | cur_keys)
                 if key.partition(".")[2] not in bounds]
    print(f"{'metric':32} {'reference':>10} {'current':>10} {'change':>8}  verdict")
    for key in committed[0]["metrics"]:
        metric = bounds.get(key.partition(".")[2])
        if metric is None or key not in cur_keys:
            continue
        lower = metric["better"] == "lower"
        ref = (max if lower else min)(run["metrics"][key]["value"] for run in committed)
        cur = current["metrics"][key]["value"]
        change = cur / ref - 1.0
        worse = (change if lower else -change) > metric["bound"]
        print(f"{key:32} {ref:10.4g} {cur:10.4g} {change:+8.1%}  {'FAIL' if worse else 'ok'}")
        if worse:
            problems.append(f"{key}: {ref:.4g} -> {cur:.4g} "
                            f"({change:+.1%}, bound {metric['bound']:.0%})")
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    committed, current = summaries(argv[0]), summaries(argv[1])
    if not committed or not current:
        print("gate: FAIL (no run.py summary line)")
        return 1
    problems = gate(committed, current[-1], json.loads(DECLARED.read_text()))
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"gate: {'FAIL' if problems else 'pass'} against {len(committed)} committed runs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
