"""Append-only JSONL artifact store for run outcomes.

One JSON object per line, whose result payload is
:meth:`~repro.simulator.SimResult.to_dict` without the final memory
image, so external tooling (plot scripts, dashboards) can
stream-parse a sweep's history without loading it whole.

A process killed mid-append leaves a truncated trailing line — exactly
the artifact a crashed campaign leaves behind.  :meth:`ArtifactStore.
load` skips such partial trailing lines (counting them in
:attr:`skipped_lines`) instead of crashing with ``JSONDecodeError``;
corruption *before* the trailing line is a damaged file, not a crash
artifact, and still raises.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.provenance import provenance
from repro.runner.spec import ExperimentSpec
from repro.simulator import SimResult


class ArtifactStore:
    """A JSONL file of per-run records (spec, outcome, result summary)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: partial trailing lines skipped by the most recent :meth:`load`
        self.skipped_lines = 0

    def _append(self, record: Mapping[str, Any]) -> None:
        with self.path.open("a") as stream:
            stream.write(json.dumps(dict(record), sort_keys=True) + "\n")

    def append(
        self,
        spec: ExperimentSpec,
        result: SimResult | None,
        *,
        cached: bool = False,
        attempts: int = 1,
        duration_s: float = 0.0,
        error: str | None = None,
        error_type: str | None = None,
        resumed: bool = False,
    ) -> None:
        summary = None
        if result is not None:
            # the final memory image can be as large as the footprint,
            # and no reader of a record needs it
            summary = result.to_dict()
            del summary["memory"]
        record = {
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "provenance": provenance(),
            "cached": cached,
            "resumed": resumed,
            "attempts": attempts,
            "duration_s": round(duration_s, 6),
            "error": error,
            "error_type": error_type,
            "result": summary,
        }
        self._append(record)

    def append_report(self, report: Mapping[str, Any]) -> None:
        """Append a campaign-level summary record (kind: campaign_report)."""
        self._append({
            "kind": "campaign_report",
            "provenance": provenance(),
            "report": dict(report),
        })

    def load(self) -> list[dict]:
        """Every record in append order (empty if the file is absent).

        Partial trailing lines — what a killed writer leaves — are
        skipped and counted in :attr:`skipped_lines`.
        """
        self.skipped_lines = 0
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        lines = [line for line in text.splitlines() if line.strip()]
        records: list[dict] = []
        for at, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if at == len(lines) - 1:
                    self.skipped_lines += 1
                    continue
                raise
        return records

    def reports(self) -> list[dict]:
        """Just the campaign-report records, in append order."""
        return [
            r["report"] for r in self.load()
            if r.get("kind") == "campaign_report"
        ]

    def runs(self) -> list[dict]:
        """Just the per-run records, in append order."""
        return [r for r in self.load() if "spec_hash" in r]
