"""Structured simulator exceptions.

The simulator used to fail with bare ``RuntimeError``/``AssertionError``
strings; campaign tooling (the fault harness, the runner's retry logic,
CI triage) needs machine-readable failures.  Every error below carries
the simulated context it arose in — cycle, core, thread, transaction
site — and the deadlock-flavoured ones embed a wait-for-graph dump.

All simulation-time errors inherit ``RuntimeError`` so existing callers
(and tests) that catch ``RuntimeError`` keep working; new code should
catch the typed classes.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


class ReproError(Exception):
    """Base class of every typed error raised by the repro package."""


class SimulationError(ReproError, RuntimeError):
    """A simulation failed; carries the simulated context of the failure.

    ``context`` is free-form (cycle, core, tid, site, ...) and rendered
    into the message so plain tracebacks stay informative.
    """

    def __init__(self, message: str, **context: Any) -> None:
        self.context: dict[str, Any] = {
            k: v for k, v in context.items() if v is not None
        }
        if self.context:
            detail = ", ".join(f"{k}={v}" for k, v in self.context.items())
            message = f"{message} [{detail}]"
        super().__init__(message)

    @property
    def cycle(self) -> int | None:
        return self.context.get("cycle")

    @property
    def core(self) -> int | None:
        return self.context.get("core")


class TransactionError(SimulationError):
    """A transactional program misused the transaction API."""


class InvariantViolation(SimulationError, AssertionError):
    """An internal simulator invariant broke (a bug, not a user error)."""


class DeadlockError(SimulationError):
    """The simulation ended with live threads that can never progress.

    ``wait_graph`` is a list of per-core rows (core, status, waiting_on,
    tid, site, parked) — the wait-for graph at the moment the event
    queue drained; :func:`format_wait_graph` renders it.
    """

    def __init__(
        self,
        message: str,
        wait_graph: Sequence[Mapping[str, Any]] = (),
        **context: Any,
    ) -> None:
        self.wait_graph = [dict(row) for row in wait_graph]
        if self.wait_graph:
            message = f"{message}\n{format_wait_graph(self.wait_graph)}"
        super().__init__(message, **context)


class BudgetExhausted(SimulationError):
    """An event budget guard tripped (runaway or livelocked run)."""


class PoolExhausted(ReproError, RuntimeError):
    """The preserved redirect pool hit its configured page cap.

    SUV converts this into a transaction abort (with backoff) so the
    run degrades instead of crashing; seeing it escape to a caller means
    an allocation happened outside a transactional store.
    """

    def __init__(self, message: str, max_pages: int = 0, live_lines: int = 0):
        super().__init__(message)
        self.max_pages = max_pages
        self.live_lines = live_lines


class RetryBudgetExhausted(ReproError, RuntimeError):
    """A spec used up its per-spec retry budget and failed terminally.

    Raised (and recorded as a :class:`~repro.runner.RunOutcome`'s
    ``error_type``) by the runner's supervision layer when every allowed
    attempt of a spec crashed, timed out, or returned a corrupt payload.
    The failure is *terminal and visible*: the spec is never silently
    dropped, never retried forever.
    """

    def __init__(
        self,
        message: str,
        spec_label: str = "",
        attempts: int = 0,
        last_error: str = "",
    ) -> None:
        self.spec_label = spec_label
        self.attempts = attempts
        self.last_error = last_error
        detail = []
        if spec_label:
            detail.append(spec_label)
        if attempts:
            detail.append(f"attempts={attempts}")
        if detail:
            message = f"{message} [{', '.join(detail)}]"
        if last_error:
            message = f"{message}: last error: {last_error}"
        super().__init__(message)


class CampaignJournalError(ReproError, RuntimeError):
    """A campaign journal could not be replayed or does not match.

    Raised when ``--resume`` is pointed at a journal recorded for a
    different spec set (resuming it would silently mix campaigns), or
    when the journal file is corrupt beyond the tolerated truncated
    trailing line.
    """

    def __init__(self, message: str, path: str = "") -> None:
        self.path = path
        if path:
            message = f"{message} [journal={path}]"
        super().__init__(message)


class UnknownSchemeError(ReproError, ValueError):
    """A scheme name matched neither a named scheme nor a legal axis
    composition.

    Inherits ``ValueError`` so pre-existing callers that catch the old
    bare ``ValueError`` from ``make_version_manager`` keep working.
    ``suggestions`` holds near-miss scheme names (close spellings),
    already rendered into the message.
    """

    def __init__(
        self,
        message: str,
        name: str = "",
        suggestions: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.suggestions = tuple(suggestions)
        if self.suggestions:
            message += f"; did you mean {' or '.join(map(repr, self.suggestions))}?"
        super().__init__(message)


class ConfigError(ReproError, ValueError):
    """A spec's configuration does not build: an unknown section or
    field in ``config_overrides``, or a value the config rejects.

    A malformed spec fails the same way on every attempt, so it is the
    run's own typed result, never retried.  Inherits ``ValueError`` so
    callers that catch the old bare ``ValueError`` keep working.
    """


class IncompatiblePolicyError(ReproError, ValueError):
    """A scheme composition crossed physically-incompatible policy axes.

    ``axes`` is the offending ``{axis: value}`` mapping and ``reason``
    the one-line physical justification (both rendered into the
    message), so the legality-matrix tests and CLI errors can explain
    *why* a combination is rejected, not just that it is.
    """

    def __init__(
        self,
        message: str,
        axes: Mapping[str, str] | None = None,
        reason: str = "",
    ) -> None:
        self.axes = dict(axes) if axes else {}
        self.reason = reason
        if self.axes:
            detail = ", ".join(f"{k}={v}" for k, v in self.axes.items())
            message = f"{message} [{detail}]"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)


class OracleViolation(ReproError, AssertionError):
    """The atomicity oracle refuted a run.

    ``report`` is the oracle's structured verdict (see
    :mod:`repro.oracle`); the message embeds its failure list.
    """

    def __init__(self, message: str, report: Mapping[str, Any] | None = None):
        self.report = dict(report) if report else {}
        failures = self.report.get("failures")
        if failures:
            message += "\n  - " + "\n  - ".join(str(f) for f in failures)
        super().__init__(message)


def format_wait_graph(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render a wait-for-graph dump as an aligned text block."""
    lines = ["wait-for graph:"]
    for row in rows:
        waiting = row.get("waiting_on")
        arrow = f" -> core {waiting}" if waiting is not None else ""
        site = row.get("site")
        tx = f" tx@site={site}" if site is not None else ""
        lines.append(
            f"  core {row.get('core')}: {row.get('status')}"
            f" tid={row.get('tid')}{tx}{arrow}"
        )
    parked = [r for r in rows if r.get("parked")]
    if parked:
        lines.append("  parked threads: " + ", ".join(
            f"tid={r.get('tid')} ({r.get('park_reason')})" for r in parked
        ))
    return "\n".join(lines)
