"""STUDY artifacts: write, load, render and compare.

The study document is schema-versioned, written as
``STUDY_<date>.json`` with sorted keys, and diffed by
:func:`compare_studies` after stripping the volatile sections (``provenance``, ``campaign`` — git revision, wall time,
cache-hit counts).  An empty comparison is the CI determinism gate:
two runs of the same study space on the same seeds must analyse
identically, byte for byte.
"""

from __future__ import annotations

import datetime
import io
import json
from pathlib import Path
from typing import Any, Mapping

STUDY_SCHEMA_VERSION = 1

#: document sections that legitimately differ between identical runs
VOLATILE_KEYS = ("provenance", "campaign")


def write_study(
    doc: Mapping[str, Any], out_dir: str | Path, date: str | None = None
) -> Path:
    """Write ``doc`` as ``<out_dir>/STUDY_<date>.json``; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = date or datetime.date.today().isoformat()
    path = out / f"STUDY_{stamp}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_study(path: str | Path) -> dict[str, Any]:
    """Load and schema-check one STUDY file."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != STUDY_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r}, "
            f"this build reads {STUDY_SCHEMA_VERSION}"
        )
    return doc


def strip_volatile(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The deterministic core of a study document."""
    return {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}


def compare_studies(
    baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> list[str]:
    """Differences between two studies, ignoring volatile sections.

    Empty list = the analyses are identical; this is what the CI
    determinism gate asserts across two runs of the same space.
    """
    a, b = strip_volatile(baseline), strip_volatile(current)
    problems: list[str] = []
    for key in sorted(a.keys() - b.keys()):
        problems.append(f"{key}: missing from current study")
    for key in sorted(b.keys() - a.keys()):
        problems.append(f"{key}: missing from baseline study")
    for key in sorted(a.keys() & b.keys()):
        if a[key] != b[key]:
            problems.append(
                f"{key}: differs between baseline and current "
                f"({json.dumps(a[key], sort_keys=True)[:120]} vs "
                f"{json.dumps(b[key], sort_keys=True)[:120]})"
            )
    return problems


def format_markdown(doc: Mapping[str, Any]) -> str:
    """A human-readable study report (rankings, fronts, dead axes)."""
    space = doc.get("space", {})
    lines: list[str] = ["# Design-space study", ""]
    lines.append(
        f"Scale `{space.get('scale')}`, seeds {space.get('seeds')}, "
        f"{space.get('cores')} cores, {space.get('combos')} legal "
        f"combinations per workload."
    )
    prov = doc.get("provenance") or {}
    if prov.get("git_revision"):
        lines.append(f"Revision `{prov['git_revision'][:12]}`.")
    for workload, section in sorted(doc.get("per_workload", {}).items()):
        lines += ["", f"## {workload}", ""]
        ranking = section.get("ranking", [])
        if not ranking:
            lines.append("_no completed runs_")
            continue
        lines.append(
            "| rank | scheme | cycles | aborts | pool high-water | front |"
        )
        lines.append("|---:|---|---:|---:|---:|:---:|")
        for entry in ranking:
            lines.append(
                f"| {entry['rank']} | `{entry['scheme']}` "
                f"| {entry['cycles']} | {entry['aborts']} "
                f"| {entry['pool_high_water']} "
                f"| {'*' if entry.get('on_front') else ''} |"
            )
        lines.append("")
        lines.append(
            f"Pareto front ({len(section.get('pareto_front', []))}): "
            + ", ".join(f"`{s}`" for s in section.get("pareto_front", []))
        )
    dead = {
        axis: values
        for axis, values in (doc.get("dominated_axis_values") or {}).items()
        if values
    }
    lines += ["", "## Dominated axis values", ""]
    if dead:
        for axis, values in sorted(dead.items()):
            lines.append(
                f"- `{axis}`: {', '.join(f'`{v}`' for v in values)} "
                f"(on no workload's Pareto front)"
            )
    else:
        lines.append(
            "Every swept axis value appears on at least one Pareto front."
        )
    failures = doc.get("failures") or []
    if failures:
        lines += ["", "## Failures", ""]
        for f in failures:
            lines.append(f"- `{f['label']}`: {f['error_type']}: {f['error']}")
    return "\n".join(lines) + "\n"


def format_csv(doc: Mapping[str, Any]) -> str:
    """The flat ranking table, one row per (workload, scheme)."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "workload", "rank", "scheme", "vm", "cd", "resolution",
        "cycles", "aborts", "pool_high_water", "on_front",
    ])
    for workload, section in sorted(doc.get("per_workload", {}).items()):
        for entry in section.get("ranking", []):
            writer.writerow([
                workload, entry["rank"], entry["scheme"], entry["vm"],
                entry["cd"], entry["resolution"], entry["cycles"],
                entry["aborts"], entry["pool_high_water"],
                int(bool(entry.get("on_front"))),
            ])
    return buf.getvalue()
