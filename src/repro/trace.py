"""Structured event tracing and per-phase cycle accounting (`repro.trace`).

The paper's whole argument is about the *isolation window* — the span
during which a transaction's read/write signatures block its neighbours
(Figure 1).  The aggregate breakdown (:mod:`repro.stats.breakdown`)
shows *how much* time each scheme spends where; this module shows
*where inside a run* those cycles go, with three layers:

* :class:`Tracer` — a bounded ring buffer of typed events (transaction
  begin/commit/abort/stall, redirect-table hit/spill, pool
  alloc/reclaim, summary-signature tests), exportable as JSONL or as
  Chrome ``trace_event`` JSON for ``about:tracing`` / Perfetto.  Event
  recording is **opt-in**: when disabled, the per-event work is a single
  attribute test at the call site — no allocation, no buffering.
* **isolation-window accounting** — always on.  Every outermost
  transaction attempt opens a window at begin and closes it when commit
  or abort *processing* finishes (the processing tail is exactly the
  repair/merge pathology of Figure 1), accumulating per-scheme window
  spans plus commit-/abort-processing cycle totals.
* :class:`LatencyHistogram` — always-on power-of-two-bucket histograms
  (commit latency, abort latency, redirect-table lookup latency) with
  approximate p50/p95 and exact max/mean.  Buckets are fixed-size
  integer arrays: recording never allocates.

Everything here is a pure function of the simulated cycle clock, so two
runs with the same seed produce byte-identical traces — traces are
diffable across schemes, which is how the Figure 1 story is inspected
event by event.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterator

# ---------------------------------------------------------------------------
# event kinds
# ---------------------------------------------------------------------------

#: transaction lifecycle
TX_BEGIN = "tx_begin"
TX_COMMIT = "tx_commit"
TX_ABORT = "tx_abort"
TX_STALL = "tx_stall"
TX_UNSTALL = "tx_unstall"
#: SUV redirect machinery
TABLE_HIT = "table_hit"
TABLE_MISS = "table_miss"
TABLE_SPILL = "table_spill"
POOL_ALLOC = "pool_alloc"
POOL_RECLAIM = "pool_reclaim"
SIG_TEST = "sig_test"
#: scheme-specific end-of-transaction processing
LOG_WALK = "log_walk"
FLASH_ABORT = "flash_abort"
PUBLISH = "publish"
#: multiversioned SUV (mvsuv) machinery
VERSION_ALLOC = "version_alloc"
VERSION_READ = "version_read"
VERSION_GC = "version_gc"

#: every kind the exporters understand, for validation in tests
EVENT_KINDS = (
    TX_BEGIN, TX_COMMIT, TX_ABORT, TX_STALL, TX_UNSTALL,
    TABLE_HIT, TABLE_MISS, TABLE_SPILL, POOL_ALLOC, POOL_RECLAIM,
    SIG_TEST, LOG_WALK, FLASH_ABORT, PUBLISH,
    VERSION_ALLOC, VERSION_READ, VERSION_GC,
)

#: kinds rendered as Chrome duration-begin / duration-end pairs
_CHROME_BEGIN = {TX_BEGIN: "tx", TX_STALL: "stall"}
_CHROME_END = {TX_COMMIT: "tx", TX_ABORT: "tx", TX_UNSTALL: "stall"}


class _ZeroClock:
    """Stand-in cycle clock for tracers not attached to a simulator."""

    now = 0


_ZERO_CLOCK = _ZeroClock()


class LatencyHistogram:
    """A power-of-two-bucket latency histogram with p50/p95/max.

    Bucket ``i`` holds samples whose ``int.bit_length()`` is ``i``
    (bucket 0 holds exact zeros), so recording is two integer ops and
    one list increment — no allocation, deterministic, and mergeable.
    Percentiles are approximate (resolved to the bucket's upper bound,
    clamped to the observed max); ``max`` and ``mean`` are exact.
    """

    #: samples at or above 2**(BUCKETS-2) share the top bucket
    BUCKETS = 40

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.total = 0
        self.max = 0

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative latency {value}")
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self.counts[min(value.bit_length(), self.BUCKETS - 1)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Approximate ``q``-quantile (0 < q <= 1), resolved upward."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if not self.count:
            return 0
        need = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= need:
                upper = 0 if i == 0 else (1 << i) - 1
                return min(upper, self.max)
        return self.max

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        return self

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "max": self.max,
            "total": self.total,
        }


class Tracer:
    """Ring-buffer event recorder plus always-on phase accounting.

    Parameters:

    * ``events`` — ``True`` enables the typed-event ring buffer;
      ``False`` (the default) leaves only the cycle accounting and
      histograms active.  Call sites guard emission with
      ``tracer.events is not None``, so a disabled tracer costs one
      attribute test per would-be event.
    * ``capacity`` — ring-buffer bound; the oldest events fall off.
    """

    def __init__(self, events: bool = False, capacity: int = 65536) -> None:
        self.capacity = capacity
        self.events: deque[tuple[int, str, int, int, dict | None]] | None = (
            deque(maxlen=capacity) if events else None
        )
        self.dropped = 0
        #: anything with a ``.now`` cycle counter; the simulator installs
        #: its event queue here so version managers can stamp events
        self.clock: Any = _ZERO_CLOCK
        #: free-form labels stamped on the trace (the simulator installs
        #: the run's policy axes: vm/cd/resolution)
        self.labels: dict[str, str] = {}
        # -- always-on metrics ------------------------------------------
        self.windows = 0
        self.windows_committed = 0
        self.windows_aborted = 0
        self.window_cycles_total = 0
        self.window_cycles_max = 0
        self.commit_processing_cycles = 0
        self.abort_processing_cycles = 0
        #: snapshot readers (mvsuv) never arm signatures: their attempts
        #: are counted apart and contribute zero isolation cycles
        self.snapshot_windows = 0
        self.snapshot_cycles_total = 0
        self.hist_window = LatencyHistogram()
        self.hist_commit = LatencyHistogram()
        self.hist_abort = LatencyHistogram()
        self.hist_table = LatencyHistogram()

    # -- event layer (opt-in) -------------------------------------------
    def emit(
        self,
        ts: int,
        kind: str,
        core: int = -1,
        tid: int = -1,
        data: dict | None = None,
    ) -> None:
        """Append one typed event; silently drops the oldest when full."""
        buf = self.events
        if buf is None:
            return
        if len(buf) == self.capacity:
            self.dropped += 1
        buf.append((ts, kind, core, tid, data))

    def __len__(self) -> int:
        return len(self.events) if self.events is not None else 0

    def iter_events(self) -> Iterator[dict[str, Any]]:
        """Events as dicts, oldest first."""
        for ts, kind, core, tid, data in self.events or ():
            row: dict[str, Any] = {"ts": ts, "kind": kind}
            if core >= 0:
                row["core"] = core
            if tid >= 0:
                row["tid"] = tid
            if data:
                row.update(data)
            yield row

    # -- metric layer (always on) ---------------------------------------
    def note_window(self, span: int, committed: bool) -> None:
        """One isolation window closed (commit/abort processing done)."""
        self.windows += 1
        if committed:
            self.windows_committed += 1
        else:
            self.windows_aborted += 1
        self.window_cycles_total += span
        if span > self.window_cycles_max:
            self.window_cycles_max = span
        self.hist_window.record(span)

    def note_snapshot_window(self, span: int) -> None:
        """A snapshot-mode attempt finished: it blocked nobody for its
        whole lifetime, so it adds **zero** isolation-window cycles —
        the wait-free collapse the mvsuv accounting must make visible."""
        self.snapshot_windows += 1
        self.snapshot_cycles_total += span

    def note_commit(self, latency: int) -> None:
        self.commit_processing_cycles += latency
        self.hist_commit.record(latency)

    def note_abort(self, latency: int) -> None:
        self.abort_processing_cycles += latency
        self.hist_abort.record(latency)

    def note_table_lookup(self, latency: int) -> None:
        self.hist_table.record(latency)

    # -- export ----------------------------------------------------------
    def phase_breakdown(
        self, kernel: dict[str, int] | None = None
    ) -> dict[str, Any]:
        """The per-phase summary attached to ``SimResult.phase_breakdown``."""
        windows = self.windows or 1
        out: dict[str, Any] = {
            "isolation": {
                "windows": self.windows,
                "committed": self.windows_committed,
                "aborted": self.windows_aborted,
                "open_cycles_total": self.window_cycles_total,
                "open_cycles_max": self.window_cycles_max,
                "open_cycles_mean": round(self.window_cycles_total / windows, 3),
                "commit_processing_cycles": self.commit_processing_cycles,
                "abort_processing_cycles": self.abort_processing_cycles,
            },
        }
        if self.snapshot_windows:
            # gated so non-multiversion runs keep a byte-identical shape
            out["isolation"].update({
                "snapshot_windows": self.snapshot_windows,
                "snapshot_lifetime_cycles": self.snapshot_cycles_total,
                "snapshot_isolation_cycles": 0,
            })
        out["latency"] = {
            "window": self.hist_window.as_dict(),
            "commit": self.hist_commit.as_dict(),
            "abort": self.hist_abort.as_dict(),
            "table_lookup": self.hist_table.as_dict(),
        }
        if kernel is not None:
            out["kernel"] = dict(kernel)
        out["events"] = {"recorded": len(self), "dropped": self.dropped}
        return out

    def to_jsonl(self) -> str:
        """One compact JSON object per event, oldest first."""
        return "\n".join(
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in self.iter_events()
        )

    def write_jsonl(self, path) -> None:
        from pathlib import Path

        text = self.to_jsonl()
        Path(path).write_text(text + ("\n" if text else ""))

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome ``trace_event`` JSON document for this trace.

        Cycle timestamps map 1:1 to trace microseconds; one simulated
        core renders as one Chrome "thread".  Transaction and stall
        spans become duration (``B``/``E``) pairs; table, pool and
        signature events become instants.  Load the result in
        ``about:tracing`` or https://ui.perfetto.dev.
        """
        trace_events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro-sim", **self.labels},
            }
        ]
        for ts, kind, core, tid, data in self.events or ():
            row_tid = core if core >= 0 else 0
            args = dict(data) if data else {}
            if tid >= 0:
                args["thread"] = tid
            if kind in _CHROME_BEGIN:
                ev = {"name": _CHROME_BEGIN[kind], "ph": "B"}
            elif kind in _CHROME_END:
                ev = {"name": _CHROME_END[kind], "ph": "E"}
                args["outcome"] = kind
            else:
                ev = {"name": kind, "ph": "i", "s": "t"}
            ev.update(ts=ts, pid=0, tid=row_tid)
            if args:
                ev["args"] = args
            trace_events.append(ev)
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_chrome_trace()))


def make_tracer(trace: "Tracer | bool | int | None") -> Tracer:
    """Normalize the ``Simulator(trace=...)`` argument to a Tracer.

    ``None``/``False`` — metrics only; ``True`` — events at the default
    capacity; an ``int`` — events with that capacity; a ready
    :class:`Tracer` passes through.
    """
    if isinstance(trace, Tracer):
        return trace
    if trace is None or trace is False:
        return Tracer(events=False)
    if trace is True:
        return Tracer(events=True)
    return Tracer(events=True, capacity=int(trace))
