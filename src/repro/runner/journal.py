"""Write-ahead campaign journal: crash-safe per-spec run state.

The SUV paper's version-management insight is that keeping pre-images
makes recovery a pointer flip instead of a log walk.  The campaign
analogue: if every state transition of every spec is journaled *before*
it takes effect, recovering a killed campaign is a replay of a JSONL
file, not a re-run of the whole matrix.

:class:`CampaignJournal` appends one JSON object per line to a journal
file.  Appends are atomic at the line level (a single ``write`` of one
``\\n``-terminated line) and fsync'd by default, so a ``SIGKILL`` leaves
at most one truncated trailing line — which :meth:`replay` skips and
counts, exactly like :meth:`ArtifactStore.load`.

Event kinds (all carry ``"event"`` and most carry ``"spec_hash"``):

``campaign_begin``
    One per runner session against this journal: the campaign hash (a
    digest of the sorted spec hashes), spec count, and whether the
    session is a resume of earlier sessions.
``spec_pending``
    The spec set of the campaign, one line per spec (hash + label),
    written once by the first session.
``spec_running``
    A spec (attempt ``n``) was handed to a worker.  Written *before*
    dispatch — write-ahead — so a killed campaign knows exactly which
    specs were in flight.
``spec_done``
    A spec completed: attempts, duration, whether it was a cache hit
    (``cached``), whether it was already done in a prior session
    (``resumed``), whether the result-cache write succeeded (``cache_ok``)
    and a sha256 digest of the result JSON for byte-identity audits.
``spec_failed``
    A spec failed *terminally*: attempts, the error text and the typed
    error class (``error_type``).
``cache_quarantine``
    The result cache quarantined a corrupt entry for this spec.
``degradation``
    A supervision event (pool breakage, backoff, circuit-open,
    cache-write failure) from the runner.

:meth:`replay` folds the event stream into one :class:`SpecState` per
spec and campaign-level invariant counters: lost specs (no terminal
state), duplicate completions (a spec executed to completion twice with
no justifying cache failure or quarantine in between), truncated lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, TextIO

from repro.errors import CampaignJournalError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner.spec import ExperimentSpec

#: bump when the journal record encoding changes
JOURNAL_FORMAT_VERSION = 1

_TERMINAL = ("done", "failed")


def campaign_hash(spec_hashes: Iterable[str]) -> str:
    """Order-independent digest identifying a campaign's spec set."""
    canonical = "\n".join(sorted(spec_hashes))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class SpecState:
    """The folded journal state of one spec."""

    spec_hash: str
    label: str = ""
    status: str = "pending"  # pending | running | done | failed
    attempts: int = 0
    duration_s: float = 0.0
    error: str | None = None
    error_type: str | None = None
    cached: bool = False
    resumed: bool = False
    cache_ok: bool = False
    result_digest: str | None = None
    #: times this spec was executed to completion (non-cached done)
    completions: int = 0
    #: completions that happened while a cache-backed completion stood —
    #: the "spec run twice to completion" invariant violation
    duplicate_completions: int = 0
    #: cache entries for this spec quarantined as corrupt
    quarantines: int = 0
    #: a completion whose result made it into the cache intact and has
    #: not been quarantined since; re-executing now would be a duplicate
    _safely_completed: bool = field(default=False, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL


@dataclass
class JournalState:
    """Everything :meth:`CampaignJournal.replay` recovers from disk."""

    specs: dict[str, SpecState] = field(default_factory=dict)
    campaign_hashes: list[str] = field(default_factory=list)
    sessions: int = 0
    truncated_lines: int = 0
    degradations: list[dict] = field(default_factory=list)

    @property
    def lost(self) -> list[SpecState]:
        """Specs with no terminal state — a violated campaign invariant
        unless the campaign is still running."""
        return [s for s in self.specs.values() if not s.terminal]

    @property
    def duplicates(self) -> list[SpecState]:
        """Specs executed to completion more than once without cause."""
        return [s for s in self.specs.values() if s.duplicate_completions]

    @property
    def done(self) -> list[SpecState]:
        return [s for s in self.specs.values() if s.status == "done"]

    @property
    def failed(self) -> list[SpecState]:
        return [s for s in self.specs.values() if s.status == "failed"]


class CampaignJournal:
    """Atomic, fsync'd JSONL checkpointing of per-spec campaign state.

    ``fsync=False`` trades crash-safety for speed (the OS still sees
    every line immediately; only a machine crash can lose data) — useful
    in tests and on battery-backed storage.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._stream: TextIO | None = None  # opened lazily on first append

    # -- write side ------------------------------------------------------
    def _append(self, record: Mapping[str, Any], *, sync: bool | None = None) -> None:
        if self._stream is None:
            self._stream = self.path.open("a", encoding="utf-8")
        line = json.dumps(dict(record), sort_keys=True) + "\n"
        self._stream.write(line)
        self._stream.flush()
        if self.fsync and sync is not False:
            os.fsync(self._stream.fileno())

    def begin(self, specs: Iterable["ExperimentSpec"]) -> JournalState:
        """Open a session for ``specs``; returns prior replayed state.

        First session: journals the campaign header and the full spec
        set (write-ahead, so a kill during the very first spec still
        leaves the pending set on disk).  Later sessions: verifies the
        spec set matches the journal's campaign hash — resuming a
        journal with a different matrix raises
        :class:`~repro.errors.CampaignJournalError` instead of silently
        mixing campaigns — then appends a resume header.
        """
        spec_list = list(specs)
        hashes = [spec.spec_hash() for spec in spec_list]
        chash = campaign_hash(hashes)
        prior = self.replay(self.path)
        if prior.campaign_hashes and prior.campaign_hashes[0] != chash:
            raise CampaignJournalError(
                "journal records a different campaign "
                f"({len(prior.specs)} specs, hash "
                f"{prior.campaign_hashes[0][:12]}…); refusing to resume "
                f"a {len(spec_list)}-spec matrix with hash {chash[:12]}… "
                "over it",
                path=str(self.path),
            )
        self._append({
            "event": "campaign_begin",
            "format": JOURNAL_FORMAT_VERSION,
            "campaign_hash": chash,
            "n_specs": len(spec_list),
            "resumed": bool(prior.sessions),
            "time": time.time(),
        })
        if not prior.sessions:
            for spec, spec_hash in zip(spec_list, hashes):
                self._append(
                    {
                        "event": "spec_pending",
                        "spec_hash": spec_hash,
                        "label": spec.label(),
                    },
                    sync=False,
                )
            if self.fsync and self._stream is not None:
                os.fsync(self._stream.fileno())
        return prior

    def record_running(self, spec_hash: str, attempt: int) -> None:
        self._append({
            "event": "spec_running",
            "spec_hash": spec_hash,
            "attempt": attempt,
        })

    def record_done(
        self,
        spec_hash: str,
        *,
        attempts: int,
        duration_s: float,
        cached: bool,
        resumed: bool,
        cache_ok: bool,
        result_digest: str | None = None,
    ) -> None:
        self._append({
            "event": "spec_done",
            "spec_hash": spec_hash,
            "attempts": attempts,
            "duration_s": round(duration_s, 6),
            "cached": cached,
            "resumed": resumed,
            "cache_ok": cache_ok,
            "result_digest": result_digest,
        })

    def record_failed(
        self,
        spec_hash: str,
        *,
        attempts: int,
        error: str,
        error_type: str | None,
    ) -> None:
        self._append({
            "event": "spec_failed",
            "spec_hash": spec_hash,
            "attempts": attempts,
            "error": error,
            "error_type": error_type,
        })

    def record_quarantine(self, spec_hash: str, reason: str = "") -> None:
        self._append({
            "event": "cache_quarantine",
            "spec_hash": spec_hash,
            "reason": reason,
        })

    def record_degradation(self, event: Mapping[str, Any]) -> None:
        self._append({"event": "degradation", **dict(event)})

    def close(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- read side -------------------------------------------------------
    @staticmethod
    def replay(path: str | Path) -> JournalState:
        """Fold the journal's event stream into per-spec states.

        Tolerates exactly the damage a killed process can do: a
        truncated trailing line (skipped and counted).  Corruption
        anywhere else raises :class:`CampaignJournalError` — that is
        not a crash artifact, it is a damaged journal.
        """
        state = JournalState()
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            return state
        lines = [ln for ln in text.splitlines() if ln.strip()]
        for at, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if at == len(lines) - 1:
                    state.truncated_lines += 1
                    continue
                raise CampaignJournalError(
                    f"corrupt journal record at line {at + 1} "
                    "(not the trailing line, so not a crash artifact)",
                    path=str(path),
                ) from None
            _fold(state, record)
        return state


def _fold(state: JournalState, record: Mapping[str, Any]) -> None:
    event = record.get("event")
    if event == "campaign_begin":
        state.sessions += 1
        chash = record.get("campaign_hash")
        if chash:
            state.campaign_hashes.append(str(chash))
        return
    if event == "degradation":
        state.degradations.append(dict(record))
        return
    spec_hash = record.get("spec_hash")
    if not spec_hash:
        return
    spec = state.specs.setdefault(spec_hash, SpecState(spec_hash=spec_hash))
    if event == "spec_pending":
        spec.label = str(record.get("label", spec.label))
    elif event == "spec_running":
        spec.status = "running"
        spec.attempts = max(spec.attempts, int(record.get("attempt", 1)))
    elif event == "spec_done":
        cached = bool(record.get("cached"))
        cache_ok = bool(record.get("cache_ok"))
        if not cached:
            spec.completions += 1
            if spec._safely_completed:
                spec.duplicate_completions += 1
            if cache_ok:
                spec._safely_completed = True
        spec.status = "done"
        spec.attempts = int(record.get("attempts", spec.attempts))
        spec.duration_s = float(record.get("duration_s", 0.0))
        spec.cached = cached
        spec.resumed = bool(record.get("resumed"))
        spec.cache_ok = cache_ok
        spec.result_digest = record.get("result_digest")
        spec.error = None
        spec.error_type = None
    elif event == "spec_failed":
        spec.status = "failed"
        spec.attempts = int(record.get("attempts", spec.attempts))
        spec.error = str(record.get("error", ""))
        spec.error_type = record.get("error_type")
    elif event == "cache_quarantine":
        spec.quarantines += 1
        # the cached copy is gone: a re-execution is now justified
        spec._safely_completed = False
