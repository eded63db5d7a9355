"""The execution-driven CMP/HTM simulator.

One :class:`Simulator` runs a multi-threaded transactional *program*
over the memory substrate with a chosen version-management scheme,
producing total execution time, the paper's execution-time breakdown
(Figure 6/9 components), and scheme counters.

Key behaviours reproduced from the paper's evaluation methodology:

* **Eager conflict detection via signatures** with the *Stall policy*:
  a conflicting requester stalls; wait-for cycles are broken by aborting
  the youngest transaction in the cycle, which then backs off
  (randomized exponential) and retries.
* **Isolation windows include commit/abort processing**: a transaction's
  signatures stay armed while its version manager repairs (undo walk) or
  merges (lazy publication), so neighbours keep stalling — the repair
  and merge pathologies of Figure 1.  SUV's bit-flip end-of-transaction
  closes the window almost immediately.
* **Strong isolation**: non-transactional accesses conflict-check too,
  and under SUV they pay the redirect-table translation on the critical
  path.
* **Re-execution by checkpoint**: a transaction body is a generator
  factory; retry re-invokes it.
* **Thread suspension / migration (paper Section IV-C)**: more threads
  than cores are time-multiplexed.  A thread suspended *inside* a
  transaction keeps its read/write signatures armed — the summary-
  signature mechanism of LogTM-SE — so other threads still conflict
  with it and wait it out; a requester that conflicts with a suspended
  transaction yields its core so the suspended thread can be
  rescheduled and finish.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Generator, Iterator, Sequence

from repro.config import LINE_SHIFT, SimConfig
from repro.errors import DeadlockError, InvariantViolation, TransactionError
from repro.faults import FaultInjector, FaultPlan
from repro.htm.backoff import BackoffPolicy
from repro.htm.ops import Barrier, OpenTx, Read, Tx, Work, Write
from repro.htm.policy import (
    CommitArbitration,
    ConflictResolution,
    StallResolution,
    make_resolution,
)
from repro.htm.transaction import TxFrame
from repro.htm.vm.base import VersionManager, resolve_scheme
from repro.htm.vm.composed import build_version_manager
from repro.mem.hierarchy import MemoryHierarchy
from repro.oracle import OracleRecorder
from repro.signatures.hashes import H3HashFamily
from repro.sim.kernel import Event, EventQueue
from repro.sim.rng import RngStreams
from repro.stats.breakdown import Breakdown
from repro.trace import (
    TX_ABORT,
    TX_BEGIN,
    TX_COMMIT,
    TX_STALL,
    TX_UNSTALL,
    Tracer,
    make_tracer,
)

# core statuses
RUNNING = "running"
STALLED = "stalled"
BACKOFF = "backoff"
BARRIER = "barrier"
COMMITTING = "committing"
ABORTING = "aborting"
IDLE = "idle"
DONE = "done"


@dataclass(eq=False)  # identity semantics: ctxs are mounted/parked by object
class _ThreadCtx:
    """The migratable state of one software thread."""

    tid: int
    gen_stack: list[Generator] = field(default_factory=list)
    frames: list[TxFrame] = field(default_factory=list)
    pending_send: Any = None       # value sent into the top generator
    pending_op: Any = None         # op being retried after a stall
    consecutive_aborts: int = 0
    doomed_depth: int | None = None
    slice_start: int = 0
    last_core: int = -1  # -1 = never mounted
    park_start: int = 0
    park_reason: str | None = None  # "stall" | "preempt" | "barrier"
    barrier_bid: int | None = None
    barrier_start: int = 0
    done: bool = False
    finish_time: int = 0
    #: superset of the OR of this thread's *visible* frames' write/read
    #: signature words; it moves with the thread across cores (DESIGN §11)
    vis_w: int = 0
    vis_r: int = 0


class _Core:
    """A hardware context executing at most one thread at a time."""

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.ctx: _ThreadCtx | None = None
        self.status = IDLE
        self.waiting_on: int | None = None
        self.waiters: set[int] = set()
        self.stall_start = 0
        self.retry_event: Event | None = None
        #: the pending access a parked stall poll probes: its line's H3
        #: mask and whether it writes (see Simulator._park_poll)
        self.poll_mask = 0
        self.poll_write = False
        self.comp: dict[str, int] = {}
        self.finish_time = 0
        #: prebound callbacks (installed by Simulator.run); avoid
        #: allocating a fresh closure for every resume/retry event
        self.step_cb: Callable[[], None] | None = None
        self.retry_cb: Callable[[], None] | None = None
        self.stall_poll_cb: Callable[[], None] | None = None

    # -- delegation to the mounted thread ------------------------------
    @property
    def gen_stack(self) -> list[Generator]:
        return self.ctx.gen_stack

    @property
    def frames(self) -> list[TxFrame]:
        return self.ctx.frames if self.ctx is not None else []

    @property
    def pending_send(self) -> Any:
        return self.ctx.pending_send

    @pending_send.setter
    def pending_send(self, value: Any) -> None:
        self.ctx.pending_send = value

    @property
    def pending_op(self) -> Any:
        return self.ctx.pending_op

    @pending_op.setter
    def pending_op(self, value: Any) -> None:
        self.ctx.pending_op = value

    @property
    def doomed_depth(self) -> int | None:
        return self.ctx.doomed_depth if self.ctx is not None else None

    @doomed_depth.setter
    def doomed_depth(self, value: int | None) -> None:
        self.ctx.doomed_depth = value

    @property
    def consecutive_aborts(self) -> int:
        return self.ctx.consecutive_aborts

    @consecutive_aborts.setter
    def consecutive_aborts(self, value: int) -> None:
        self.ctx.consecutive_aborts = value

    @property
    def in_tx(self) -> bool:
        return bool(self.frames)

    def charge(self, component: str, cycles: int) -> None:
        self.comp[component] = self.comp.get(component, 0) + cycles


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    scheme: str
    total_cycles: int
    breakdown: Breakdown
    per_core: list[dict[str, int]]
    commits: int
    aborts: int
    tx_attempts: int
    scheme_stats: dict[str, float]
    memory: dict[int, int]
    events_executed: int
    n_threads: int = 0
    context_switches: int = 0
    #: fault-injection events applied during the run (empty = fault-free)
    fault_trace: list[dict[str, Any]] = field(default_factory=list)
    #: atomicity-oracle report when the run was checked, else None
    oracle: dict[str, Any] | None = None
    #: isolation-window accounting and latency percentiles (see
    #: :meth:`repro.trace.Tracer.phase_breakdown`)
    phase_breakdown: dict[str, Any] = field(default_factory=dict)
    #: the three policy-axis values the run executed under
    #: (``vm``/``cd``/``resolution``)
    policy_axes: dict[str, str] = field(default_factory=dict)

    @property
    def abort_ratio(self) -> float:
        return self.aborts / self.tx_attempts if self.tx_attempts else 0.0

    def speedup_over(self, other: "SimResult") -> float:
        """How much faster this run is than ``other`` (>1 = faster)."""
        return other.total_cycles / self.total_cycles

    # -- serialization (result cache + process-pool boundary) -----------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable dict losslessly describing this result."""
        return {
            "scheme": self.scheme,
            "total_cycles": self.total_cycles,
            "breakdown": self.breakdown.as_dict(),
            "per_core": [dict(comp) for comp in self.per_core],
            "commits": self.commits,
            "aborts": self.aborts,
            "tx_attempts": self.tx_attempts,
            "scheme_stats": {k: float(v) for k, v in self.scheme_stats.items()},
            "memory": {str(addr): val for addr, val in self.memory.items()},
            "events_executed": self.events_executed,
            "n_threads": self.n_threads,
            "context_switches": self.context_switches,
            "fault_trace": self.fault_trace,
            "oracle": self.oracle,
            "phase_breakdown": self.phase_breakdown,
            "policy_axes": self.policy_axes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scheme=data["scheme"],
            total_cycles=int(data["total_cycles"]),
            breakdown=Breakdown.from_dict(data["breakdown"]),
            per_core=[
                {k: int(v) for k, v in comp.items()}
                for comp in data["per_core"]
            ],
            commits=int(data["commits"]),
            aborts=int(data["aborts"]),
            tx_attempts=int(data["tx_attempts"]),
            scheme_stats={
                k: float(v) for k, v in data["scheme_stats"].items()
            },
            memory={int(addr): int(val) for addr, val in data["memory"].items()},
            events_executed=int(data["events_executed"]),
            n_threads=int(data.get("n_threads", 0)),
            context_switches=int(data.get("context_switches", 0)),
            fault_trace=list(data.get("fault_trace", ())),
            oracle=data.get("oracle"),
            phase_breakdown=dict(data.get("phase_breakdown", ())),
            policy_axes={
                k: str(v) for k, v in dict(data.get("policy_axes", ())).items()
            },
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimResult":
        return cls.from_dict(json.loads(text))


class Simulator:
    """Execution-driven simulator for one (config, scheme) pair."""

    def __init__(
        self,
        config: SimConfig | None = None,
        scheme: str = "suv",
        seed: int = 12345,
        faults: FaultPlan | FaultInjector | None = None,
        oracle: OracleRecorder | bool | None = None,
        trace: Tracer | bool | int | None = None,
    ) -> None:
        self.config = config or SimConfig()
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.hierarchy = MemoryHierarchy(self.config)
        self.memory = self.hierarchy.memory
        #: the scheme name alone pins all three policy axes
        name, composition = resolve_scheme(scheme)
        self.scheme: VersionManager = build_version_manager(
            composition, self.config, self.hierarchy, name
        )
        #: phase accounting is always on; event recording only when asked
        #: (``trace=True``, a capacity, or a ready Tracer)
        self.trace = make_tracer(trace)
        self.trace.clock = self.queue  # schemes read .now for event stamps
        self.scheme.attach_trace(self.trace)
        self.backoff = BackoffPolicy(self.config.htm, self.rng.stream("backoff"))
        #: every frame's read/write signature shares this family (same
        #: silicon hash matrix); the conflict scan fetches one mask per
        #: probed line from it instead of re-hashing per signature
        sig = self.config.signature
        self._sig_family = H3HashFamily.shared(sig.hashes, sig.bits, sig.seed)
        self._mask_of = self._sig_family.mask
        self._mask_memo = self._sig_family.mask_memo
        #: multiversion snapshot hooks (mvsuv); every one is None for
        #: ordinary schemes, so the per-access guard is one attribute
        #: test and no behaviour changes
        self._snapshot_mode_for = getattr(self.scheme, "snapshot_mode_for", None)
        self._snapshot_read = getattr(self.scheme, "snapshot_read", None)
        self._current_seq = getattr(self.scheme, "current_seq", None)
        self._note_publication = getattr(self.scheme, "note_publication", None)
        self._note_nontx_write = getattr(self.scheme, "note_nontx_write", None)
        self._note_snapshot_violation = getattr(
            self.scheme, "note_snapshot_violation", None
        )
        self._has_snapshot = self._snapshot_read is not None
        self._resolution: ConflictResolution = make_resolution(
            composition.resolution
        )
        #: the lazy-commit token (TCC-style): one lazy transaction at a
        #: time between validation and publication, so a committer's
        #: validation stays current.
        self._arbitration = CommitArbitration()
        #: the run's axis labels, attached to SimResult, the phase
        #: breakdown, and the trace metadata
        self.policy_axes: dict[str, str] = composition.as_dict()
        self.trace.labels.update(self.policy_axes)
        self._stall_period = self.config.htm.stall_retry_period
        #: preemption thresholds: a thread's time slice, stretched for a
        #: thread inside a transaction (its armed signatures would stall
        #: everyone, so only a runaway transaction loses the core)
        self._slice = self.config.htm.time_slice or 20_000
        self._tx_slice = self._slice * max(1, self.config.htm.tx_slice_grace)
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = FaultInjector(faults)
        self.faults = faults
        #: stall polls may re-stall in place and park: only the Stall
        #: policy, and only when no fault injector draws from its RNG on
        #: the poll and no event trace expects the TX_UNSTALL/TX_STALL pair
        #: (a zero period polls within the cycle: nothing to park)
        self._poll_in_place = (
            type(self._resolution) is StallResolution
            and faults is None
            and self.trace.events is None
            and self._stall_period > 0
        )
        #: stalled cores whose poll event is parked in the kernel, by
        #: core index, and an upper bound on their holders' indexes (made
        #: exact again by every _unpark_covered sweep)
        self._parked: dict[int, _Core] = {}
        self._park_hmax = -1
        #: superset of the OR of every thread's visible write/read words
        #: (mounted and suspended); a frame drop only marks it dirty, and
        #: the next probe it fails to reject rebuilds it (DESIGN §11)
        self._vis_w = 0
        self._vis_r = 0
        self._vis_dirty = False
        #: the armed set: threads whose visible words are non-zero, the
        #: only ones a visible holder can be (DESIGN §11)
        self._armed: set[_ThreadCtx] = set()
        if oracle is True:
            oracle = OracleRecorder()
        self.oracle: OracleRecorder | None = oracle or None
        self.cores: list[_Core] = []
        self._ctxs: list[_ThreadCtx] = []
        self._ready: deque[_ThreadCtx] = deque()
        self._barrier_arrived: dict[int, set[int]] = {}
        self._barrier_parked: dict[int, list[_ThreadCtx]] = {}
        self._line_versions = self.scheme.line_versions
        self.commits = 0
        self.aborts = 0
        self.tx_attempts = 0
        self.context_switches = 0
        self._multiplex = False

    # ==================================================================
    # public API
    # ==================================================================
    def run(
        self,
        threads: list[Callable[[], Generator]],
        max_events: int | None = 20_000_000,
    ) -> SimResult:
        """Execute the thread generators until all finish.

        With at most ``n_cores`` threads, each thread owns a core for
        the whole run.  With more threads (or ``htm.time_slice > 0``)
        the simulator time-multiplexes: threads are preempted at
        operation boundaries, and a thread suspended inside a
        transaction keeps its conflict state armed (Section IV-C).
        """
        self.cores = [_Core(idx=i) for i in range(self.config.n_cores)]
        for c in self.cores:
            c.step_cb = partial(self._step, c)
            c.retry_cb = partial(self._retry_pending, c)
            c.stall_poll_cb = partial(self._stall_poll, c)
        self._ctxs = []
        for tid, factory in enumerate(threads):
            ctx = _ThreadCtx(tid=tid)
            ctx.gen_stack.append(factory())
            self._ctxs.append(ctx)
        self._multiplex = (
            len(threads) > self.config.n_cores
            or self.config.htm.time_slice > 0
        )

        stagger_rng = self.rng.stream("start_stagger")
        window = self.config.htm.start_stagger
        first = self._ctxs[: self.config.n_cores]
        self._ready.extend(self._ctxs[self.config.n_cores:])
        for core, ctx in zip(self.cores, first):
            core.ctx = ctx
            ctx.last_core = core.idx
            core.status = RUNNING
            offset = int(stagger_rng.integers(0, window + 1)) if window else 0
            core.charge("NoTrans", offset)  # thread-launch skew
            ctx.slice_start = offset
            self.queue.schedule(offset, core.step_cb)

        if self.oracle is not None:
            self.oracle.attach(self)
        if self.faults is not None:
            self.faults.arm(self)
        executed = self.queue.run(max_events=max_events)
        for c in self.cores:
            # the bound callbacks close a reference cycle through the
            # simulator: drop them so a finished run is freed at once
            c.step_cb = c.retry_cb = c.stall_poll_cb = None

        laggards = [ctx.tid for ctx in self._ctxs if not ctx.done]
        if laggards:
            raise DeadlockError(
                f"simulation ended with non-finished threads {laggards} "
                "(likely a barrier mismatch or an undetected deadlock)",
                wait_graph=self.wait_graph_dump(),
                cycle=self.queue.now,
                laggards=laggards,
            )

        breakdown = Breakdown()
        per_core = []
        for core in self.cores:
            for comp, amt in core.comp.items():
                breakdown.add(comp, amt)
            per_core.append(dict(core.comp))
        total = max((ctx.finish_time for ctx in self._ctxs), default=0)
        phase = self.trace.phase_breakdown(
            kernel={
                "events": executed,
                "peak_queue": self.queue.peak_queue,
            }
        )
        phase["scheme"] = self.scheme.name
        phase["axes"] = dict(self.policy_axes)
        return SimResult(
            scheme=self.scheme.name,
            total_cycles=total,
            breakdown=breakdown,
            per_core=per_core[: max(len(threads), 1)],
            commits=self.commits,
            aborts=self.aborts,
            tx_attempts=self.tx_attempts,
            scheme_stats=self.scheme.scheme_stats(),
            memory=self.memory.snapshot(),
            events_executed=executed,
            n_threads=len(threads),
            context_switches=self.context_switches,
            fault_trace=(
                list(self.faults.trace) if self.faults is not None else []
            ),
            phase_breakdown=phase,
            policy_axes=dict(self.policy_axes),
        )

    def wait_graph_dump(self) -> list[dict[str, Any]]:
        """The current wait-for graph, one row per core plus parked
        threads — attached to :class:`DeadlockError` and usable live
        from a debugger or the fault harness."""
        rows: list[dict[str, Any]] = []
        for core in self.cores:
            ctx = core.ctx
            frames = ctx.frames if ctx is not None else []
            rows.append({
                "core": core.idx,
                "status": core.status,
                "tid": ctx.tid if ctx is not None else None,
                "site": frames[0].site if frames else None,
                "waiting_on": core.waiting_on,
                "parked": False,
            })
        mounted = {c.ctx for c in self.cores if c.ctx is not None}
        for ctx in self._ctxs:
            if ctx.done or ctx in mounted:
                continue
            rows.append({
                "core": None,
                "status": "parked",
                "tid": ctx.tid,
                "site": ctx.frames[0].site if ctx.frames else None,
                "waiting_on": None,
                "parked": True,
                "park_reason": ctx.park_reason
                or ("barrier" if ctx.barrier_bid is not None else "ready"),
            })
        return rows

    # ==================================================================
    # the scheduler (multiplexing layer)
    # ==================================================================
    def _park(self, core: _Core, reason: str, to_front: bool = False) -> None:
        """Unmount the core's thread; its transactional state stays armed."""
        ctx = core.ctx
        ctx.park_start = self.queue.now
        ctx.park_reason = reason
        ctx.last_core = core.idx
        core.ctx = None
        core.status = IDLE
        if self._parked:
            # its waiters now find a suspended holder: they must poll
            for waiter in list(self._parked.values()):
                if waiter.waiting_on == core.idx:
                    self._unpark(waiter)
        if reason != "barrier":
            if to_front:
                self._ready.appendleft(ctx)
            else:
                self._ready.append(ctx)
        self._dispatch_next(core)

    def _dispatch_next(self, core: _Core) -> None:
        """Mount the next ready thread on an idle core, if any."""
        if core.ctx is not None or core.status == DONE:
            return
        if not self._ready:
            core.status = IDLE
            return
        ctx = self._ready.popleft()
        self._mount(core, ctx)

    def _schedule_ready(self) -> None:
        """Give newly-ready threads to idle cores."""
        for core in self.cores:
            if not self._ready:
                break
            if core.ctx is None and core.status == IDLE:
                self._dispatch_next(core)

    def _mount(self, core: _Core, ctx: _ThreadCtx) -> None:
        switching = ctx.last_core != core.idx or ctx.park_reason is not None
        core.ctx = ctx
        if self._parked and core.idx < self._park_hmax:
            # a mounted transaction may now be a lower holder
            self._unpark_covered(core.idx, ctx.vis_w, ctx.vis_r)
        ctx.last_core = core.idx
        ctx.slice_start = self.queue.now
        core.status = RUNNING
        reason, ctx.park_reason = ctx.park_reason, None
        cost = 0
        if switching and self._multiplex:
            self.context_switches += 1
            cost = self.config.htm.context_switch_cycles
            core.charge("NoTrans", cost)
        if reason == "stall":
            core.charge("Stalled", self.queue.now - ctx.park_start)
            self.queue.schedule(cost, core.retry_cb)
        else:
            self.queue.schedule(cost, core.step_cb)

    # ==================================================================
    # the per-core step machine
    # ==================================================================
    def _step(self, core: _Core) -> None:
        """Advance a running core by one operation."""
        ctx = core.ctx
        if core.status == DONE or ctx is None:
            return
        # ctx is read directly below: core.doomed_depth/pending_send are
        # delegation properties, and the descriptor call costs on a path
        # that runs once per simulated operation
        if ctx.doomed_depth is not None:
            self._begin_abort(core)
            return
        if self.faults is not None:
            frozen = self.faults.consume_delay(core.idx)
            if frozen:
                # injected interrupt/interference burst: the core holds
                # still (transactional state stays armed) and resumes
                if core.in_tx:
                    core.frames[-1].tentative_cycles += frozen
                else:
                    core.charge("NoTrans", frozen)
                self._resume_after(core, frozen)
                return
        if (self._multiplex and self._ready
                and self.queue.now - ctx.slice_start
                >= (self._tx_slice if ctx.frames else self._slice)):
            # suspend at an operation boundary; transactional state
            # (signatures, redirect entries, logs) stays armed
            self._park(core, "preempt")
            return
        core.status = RUNNING
        gen = ctx.gen_stack[-1]
        try:
            value = ctx.pending_send
            if value is not None:
                ctx.pending_send = None
                if value is _SENTINEL_NONE:
                    value = None
                op = gen.send(value)
            else:
                op = next(gen)
        except StopIteration as stop:
            self._on_generator_done(core, stop)
            return
        # op dispatch, inlined (this is the per-operation hot path);
        # accesses first: they are the most frequent op by far
        if isinstance(op, (Read, Write)):
            self._access(core, op)
        elif isinstance(op, Work):
            cycles = op.cycles
            if cycles < 0:
                raise ValueError("Work cycles must be >= 0")
            frames = ctx.frames
            if frames:
                frames[-1].tentative_cycles += cycles
            else:
                comp = core.comp
                comp["NoTrans"] = comp.get("NoTrans", 0) + cycles
            self.queue.schedule(cycles, core.step_cb)
        elif isinstance(op, (Tx, OpenTx)):
            self._begin_tx(core, op)
        elif isinstance(op, Barrier):
            self._enter_barrier(core, op)
        else:
            raise TypeError(f"unknown operation {op!r}")

    def _resume_after(self, core: _Core, delay: int) -> None:
        self.queue.schedule(delay, core.step_cb)


    # ------------------------------------------------------------------
    # transactions: begin / commit / abort
    # ------------------------------------------------------------------
    def _begin_tx(self, core: _Core, op: Tx) -> None:
        depth = len(core.frames)
        outer = core.frames[0] if depth else None
        frame = TxFrame.create(
            site=op.site,
            body_factory=op.body,
            depth=depth,
            timestamp=outer.timestamp if outer else self.queue.now,
            now=self.queue.now,
            sig_config=self.config.signature,
        )
        frame.parent = core.frames[-1] if core.frames else None
        frame.read_only = getattr(op, "read_only", False)
        if outer is None:
            self._select_mode(core, frame)
        else:
            frame.mode = outer.mode
            frame.carrier = outer.carrier
            frame.visible = outer.visible
        if isinstance(op, OpenTx):
            if depth == 0:
                raise TransactionError(
                    "an open-nested transaction needs an enclosing "
                    "transaction",
                    cycle=self.queue.now, core=core.idx,
                    tid=core.ctx.tid, site=op.site,
                )
            if frame.mode == "lazy":
                raise TransactionError(
                    "open nesting is not supported in lazy execution mode",
                    cycle=self.queue.now, core=core.idx,
                    tid=core.ctx.tid, site=op.site,
                )
            frame.open_nested = True
            frame.compensate = op.compensate
        core.frames.append(frame)
        core.gen_stack.append(op.body())
        self.tx_attempts += 1 if depth == 0 else 0
        if depth == 0 and self.trace.events is not None:
            self.trace.emit(
                self.queue.now, TX_BEGIN, core.idx, core.ctx.tid,
                {"site": op.site, "attempt": frame.attempt, "mode": frame.mode},
            )
        cost = self.config.htm.checkpoint_cycles + frame.carrier.on_begin(core.idx, frame)
        frame.tentative_cycles += cost
        self._resume_after(core, cost)

    def _select_mode(self, core: _Core, frame: TxFrame) -> None:
        """Pick an outermost attempt's execution mode and fix what it
        implies: the carrier that serves the attempt and its visibility.
        DynTM may flip eager↔lazy between attempts; a snapshot attempt
        (mvsuv) captures its snapshot timestamp here."""
        mode = self.scheme.mode_for(core.idx, frame.site)
        if (self._snapshot_mode_for is not None
                and self._snapshot_mode_for(core.idx, frame.site, frame.read_only)):
            mode = "snapshot"
            # the newest publication this reader is allowed to observe
            frame.vm["snapshot_seq"] = self._current_seq()
        frame.mode = mode
        frame.carrier = self.scheme.carrier_for(mode)
        frame.visible = mode == "eager"

    def _on_generator_done(self, core: _Core, stop: StopIteration) -> None:
        if len(core.gen_stack) == 1:
            # the thread itself finished
            ctx = core.ctx
            ctx.gen_stack.pop()
            ctx.done = True
            ctx.finish_time = self.queue.now
            core.finish_time = self.queue.now
            core.ctx = None
            core.status = IDLE
            self._check_barriers()
            self._dispatch_next(core)
            if core.ctx is None and all(c.done for c in self._ctxs):
                core.status = DONE
            return
        self._begin_commit(core, getattr(stop, "value", None))

    def _begin_commit(self, core: _Core, tx_value: Any) -> None:
        frame = core.frames[-1]
        outermost = frame.depth == 0
        if frame.vm.get("must_abort"):
            core.doomed_depth = 0
            self._begin_abort(core)
            return
        if outermost:
            if frame.mode == "lazy":
                arb = self._arbitration
                arb_holder = arb.blocking(core.idx)
                if arb_holder is not None:
                    # another committer holds the token: arbitration stall
                    self._stall_on(core, arb_holder, ("commit", tx_value))
                    return
                arb.acquire(core.idx)
                if not frame.carrier.validate(core.idx, frame):
                    arb.release(core.idx)
                    core.doomed_depth = 0
                    self._begin_abort(core)
                    return
                # the committer probes its write set as a write: a
                # visible holder of those lines must finish first
                ctx = core.ctx
                masks = [self._mask_of(line) for line in frame.write_lines]
                hit = next(self._holders(ctx, masks, True), None)
                if hit is not None:
                    arb.release(core.idx)
                    holder = hit[0]
                    if holder is None:
                        # suspended: yield the core so it can run
                        ctx.pending_op = ("commit", tx_value)
                        self._park(core, "stall")
                    else:
                        self._stall_on(core, holder, ("commit", tx_value))
                    return
                # committer wins: hidden (lazy) holders of those lines
                # abort; a suspended one notices when it is resumed
                for holder, holder_ctx in self._holders(ctx, masks, True, hidden=True):
                    if holder is None:
                        holder_ctx.doomed_depth = 0
                    else:
                        self._doom(holder, 0)
                frame.visible = True
                self._publish_visible(core, frame)
            elif not frame.carrier.validate(core.idx, frame):
                core.doomed_depth = 0
                self._begin_abort(core)
                return
        # an open-nested commit publishes like an outermost one
        publishes = outermost or frame.open_nested
        latency = frame.carrier.commit(core.idx, frame, publishes)
        if outermost:
            # commit processing happens with the signatures still armed:
            # these cycles are the tail of the isolation window
            self.trace.note_commit(latency)
        core.charge("Committing", latency)
        core.status = COMMITTING
        self.queue.schedule(latency, partial(self._finish_commit, core, tx_value))

    def _finish_commit(self, core: _Core, tx_value: Any) -> None:
        frame = core.frames.pop()
        core.gen_stack.pop()
        self._arbitration.release(core.idx)
        if frame.depth == 0 or frame.open_nested:
            self._drop_frames(core.ctx)
        if frame.depth == 0:
            # the isolation window closes here: signatures disarm only
            # once commit processing (repair/merge/bit-flip) finished.
            # A snapshot reader never armed anything: its whole lifetime
            # is zero isolation cycles, accounted apart.
            span = self.queue.now - frame.start_time
            if frame.mode == "snapshot":
                self.trace.note_snapshot_window(span)
            else:
                self.trace.note_window(span, committed=True)
            if self.trace.events is not None:
                self.trace.emit(
                    self.queue.now, TX_COMMIT, core.idx, core.ctx.tid,
                    {"site": frame.site, "attempt": frame.attempt,
                     "writes": len(frame.write_lines)},
                )
            core.charge("Trans", frame.tentative_cycles)
            core.consecutive_aborts = 0
            frame.pending_compensations.clear()
            self.scheme.note_outcome(core.idx, frame, committed=True)
            self._publish(core, frame)
        elif frame.open_nested:
            # open-nested commit (§IV-C): publish now, release isolation,
            # and register the compensating action with the parent
            parent = core.frames[-1]
            parent.tentative_cycles += frame.tentative_cycles
            if frame.compensate is not None:
                parent.vm.setdefault("compensations", []).append(
                    frame.compensate
                )
            self._publish(core, frame)
        else:
            parent = core.frames[-1]
            parent.merge_child(frame)
            if self._parked and core.idx < self._park_hmax:
                # the union may cover a probe neither frame covered
                self._unpark_covered(
                    core.idx, parent.write_sig._word, parent.read_sig._word
                )
            parent.carrier.merge_nested(parent, frame)
        core.status = RUNNING
        core.pending_send = tx_value if tx_value is not None else _SENTINEL_NONE
        self._resume_after(core, 0)

    def _publish(self, core: _Core, frame: TxFrame) -> None:
        """A publishing commit (outermost or open-nested) lands: its
        writes reach memory, the version clock moves, and the isolation
        it released wakes its waiters."""
        if self._note_publication is not None and frame.write_buffer:
            # pre-image the overwritten words before they change
            self._note_publication(core.idx, frame)
        self.memory.bulk_store(frame.write_buffer)
        if self.oracle is not None:
            self.oracle.note_commit(core.idx, frame, open_nested=frame.open_nested)
        versions = self._line_versions
        if versions is not None:
            for line in frame.write_lines:
                versions[line] = versions.get(line, 0) + 1
        self.commits += 1
        self._wake_waiters(core)

    def _begin_abort(self, core: _Core) -> None:
        depth = core.doomed_depth if core.doomed_depth is not None else 0
        core.doomed_depth = None
        # discard any in-flight value or retried op from the doomed attempt
        core.pending_send = None
        core.pending_op = None
        if not core.frames:
            # nothing to abort (race with an already-finished abort)
            core.status = RUNNING
            self._resume_after(core, 0)
            return
        depth = min(depth, len(core.frames) - 1)
        latency = 0
        for frame in reversed(core.frames[depth:]):
            latency += frame.carrier.abort(
                core.idx, frame, outermost=(frame.depth == depth)
            )
            core.charge("Wasted", frame.tentative_cycles)
        # rollback processing keeps the window open (repair pathology)
        self.trace.note_abort(latency)
        core.charge("Aborting", latency)
        core.status = ABORTING
        self.aborts += 1
        self.queue.schedule(latency, partial(self._finish_abort, core, depth))

    def _finish_abort(self, core: _Core, depth: int) -> None:
        retry_frame = core.frames[depth]
        if depth == 0:
            # the aborted attempt's isolation window closes with the
            # end of abort processing; the retry opens a fresh one.
            # Aborted snapshot attempts held no isolation either.
            span = self.queue.now - retry_frame.start_time
            if retry_frame.mode == "snapshot":
                self.trace.note_snapshot_window(span)
            else:
                self.trace.note_window(span, committed=False)
            if self.trace.events is not None:
                self.trace.emit(
                    self.queue.now, TX_ABORT, core.idx, core.ctx.tid,
                    {"site": retry_frame.site, "attempt": retry_frame.attempt},
                )
        self.scheme.note_outcome(core.idx, retry_frame, committed=False)
        # compensations owed by committed open-nested children of the
        # aborted attempt run as a prologue of the retry
        for frame in core.frames[depth:]:
            retry_frame.pending_compensations.extend(
                frame.vm.get("compensations", ())
            )
        # drop the aborted levels (their signatures disarm here — the
        # repair window just closed)
        del core.frames[depth + 1:]
        del core.gen_stack[depth + 2:]
        core.gen_stack.pop()  # the aborted level's own generator
        retry_frame.reset_for_retry(self.queue.now)
        self._drop_frames(core.ctx)
        core.consecutive_aborts += 1
        if self.oracle is not None:
            self.oracle.note_abort(core.idx, depth)
        self._wake_waiters(core)
        delay = self.backoff.delay(core.consecutive_aborts)
        if self.faults is not None:
            delay = self.faults.perturb_backoff(core.idx, delay)
        core.charge("Backoff", delay)
        core.status = BACKOFF
        self.queue.schedule(delay, partial(self._retry_tx, core, depth))

    def _retry_tx(self, core: _Core, depth: int) -> None:
        frame = core.frames[depth]
        if depth == 0:
            # re-select the execution mode; the timestamp is kept so
            # older transactions keep priority
            self._select_mode(core, frame)
            # the retry's isolation window opens now — backoff cycles
            # (signatures clear, nobody blocked) are not window time
            frame.start_time = self.queue.now
            if self.trace.events is not None:
                self.trace.emit(
                    self.queue.now, TX_BEGIN, core.idx, core.ctx.tid,
                    {"site": frame.site, "attempt": frame.attempt,
                     "mode": frame.mode},
                )
        self.tx_attempts += 1 if depth == 0 else 0
        if frame.pending_compensations:
            original = frame.body_factory

            def _compensating_body(frame=frame, original=original):
                # each compensation is itself an open-nested transaction:
                # it publishes immediately (undoing the earlier published
                # effect) and is popped once durable, so a further abort
                # neither loses nor repeats it
                while frame.pending_compensations:
                    comp = frame.pending_compensations[-1]
                    yield OpenTx(comp)
                    frame.pending_compensations.pop()
                result = yield from original()
                return result

            core.gen_stack.append(_compensating_body())
        else:
            core.gen_stack.append(frame.body_factory())
        cost = self.config.htm.checkpoint_cycles + frame.carrier.on_begin(core.idx, frame)
        frame.tentative_cycles += cost
        core.status = RUNNING
        self._resume_after(core, cost)

    # ------------------------------------------------------------------
    # memory accesses + conflict resolution
    # ------------------------------------------------------------------
    def _access(self, core: _Core, op: Read | Write) -> None:
        line = op.addr >> LINE_SHIFT
        is_write = type(op) is Write
        ctx = core.ctx
        frames = ctx.frames
        # the line's one H3 lookup of this access: the scan probes it and
        # the frame's signature records it
        mask = self._mask_memo.get(line) or self._mask_of(line)
        # a hidden frame (lazy and not publishing yet, or a wait-free
        # snapshot) neither scans nor arms its signatures
        if frames and not frames[-1].visible:
            self._perform_access(core, op, line, is_write, mask, False)
            return
        # the summary only ever rejects a scan: no frame's word covers
        # the mask unless the OR of all visible words does
        if ((self._vis_w & mask == mask
                or (is_write and self._vis_r & mask == mask))
                and (not self._vis_dirty
                     or self._summary_covers(mask, is_write))):
            hit = next(self._holders(ctx, (mask,), is_write), None)
            if hit is not None:
                # the probe a parked poll of this access would watch
                core.poll_mask = mask
                core.poll_write = is_write
                holder, holder_ctx = hit
                if holder is None:
                    # the holder is a suspended transaction (its summary
                    # signature matched).  Age-based resolution prevents
                    # livelock between mutually-waiting suspended
                    # transactions: an older transactional requester
                    # dooms the younger suspended holder, which aborts
                    # when rescheduled; otherwise the requester yields
                    # its core so the suspended thread can finish.
                    if frames:
                        mine = (frames[0].timestamp, ctx.tid)
                        theirs = (holder_ctx.frames[0].timestamp,
                                  holder_ctx.tid)
                        if mine < theirs:
                            holder_ctx.doomed_depth = 0
                    ctx.pending_op = op
                    self._park(core, "stall")
                    return
                if frames:
                    self._resolution.resolve(self, core, holder, op)
                else:
                    # strong isolation: the non-transactional access waits
                    # out the conflicting transaction (it cannot deadlock)
                    self._stall_on(core, holder, op)
                return
        self._perform_access(core, op, line, is_write, mask, True)

    def _perform_access(
        self, core: _Core, op: Read | Write, line: int, is_write: bool,
        mask: int, visible: bool,
    ) -> None:
        """Carry out an access that found no conflict.  ``mask`` is the
        line's H3 mask; ``visible`` says the frame's new bits arm."""
        ctx = core.ctx
        frames = ctx.frames
        if frames:
            frame = frames[-1]
            if self._has_snapshot and frame.mode == "snapshot":
                self._snapshot_access(core, op, line, is_write, frame)
                return
            carrier = frame.carrier
            # a new line joins the read or write set, and its mask the
            # set's signature (BloomSignature.add, inlined)
            if is_write:
                lines, sig = frame.write_lines, frame.write_sig
            else:
                lines, sig = frame.read_lines, frame.read_sig
            if line not in lines:
                lines.add(line)
                sig._word |= mask
                sig._count += 1
                if visible:
                    self._note_visible(core, ctx, mask, is_write, sig._word)
            if is_write:
                extra, phys = carrier.pre_write(core.idx, frame, line)
                spec = carrier.speculative_marking
                if frame.vm.pop("allocate_write", False):
                    # fresh-line allocation (SUV pool): no fetch below
                    result = self.hierarchy.allocate_write(core.idx, phys, spec)
                elif carrier.local_writes:
                    result = self.hierarchy.local_write(core.idx, phys, spec)
                else:
                    result = self.hierarchy.write(core.idx, phys, speculative=spec)
                extra += carrier.post_write(core.idx, frame, line, result)
                frame.write_buffer[op.addr] = op.value
                if self.oracle is not None:
                    self.oracle.record_tx_write(frame, op.addr, op.value)
                latency = result.latency + extra
            else:
                extra, phys = carrier.pre_read(core.idx, frame, line)
                result = self.hierarchy.read(core.idx, phys)
                addr = op.addr
                buffer = frame.write_buffer
                if addr in buffer:
                    value = buffer[addr]
                elif len(frames) > 1:
                    value = self._tx_read_value(core, addr)
                else:
                    value = self.memory.load(addr)
                if self.oracle is not None:
                    self.oracle.record_tx_read(frame, op.addr, value)
                ctx.pending_send = value if value is not None else _SENTINEL_NONE
                latency = result.latency + extra
            frame.tentative_cycles += latency
            if frame.vm.get("must_abort"):
                core.doomed_depth = 0
                # the overflow is noticed when the access completes
                self.queue.schedule(latency, partial(self._begin_abort, core))
                return
            self.queue.schedule(latency, core.step_cb)
        else:
            extra, phys = self.scheme.nontx_translate(core.idx, line)
            if is_write:
                result = self.hierarchy.write(core.idx, phys)
                if self._note_nontx_write is not None:
                    # pre-image the word before the store lands (strong
                    # isolation makes this a publication of its own)
                    self._note_nontx_write(core.idx, op.addr, line)
                self.memory.store(op.addr, op.value)
                if self.oracle is not None:
                    self.oracle.record_nontx(core.idx, True, op.addr, op.value)
            else:
                result = self.hierarchy.read(core.idx, phys)
                value = self.memory.load(op.addr)
                if self.oracle is not None:
                    self.oracle.record_nontx(core.idx, False, op.addr, value)
                ctx.pending_send = value if value is not None else _SENTINEL_NONE
            latency = result.latency + extra
            comp = core.comp
            comp["NoTrans"] = comp.get("NoTrans", 0) + latency
            self.queue.schedule(latency, core.step_cb)

    def _snapshot_access(
        self, core: _Core, op: Read | Write, line: int, is_write: bool,
        frame: TxFrame,
    ) -> None:
        """A wait-free snapshot-mode access (mvsuv).

        Reads never arm signatures and never consult the redirect
        table: they are served from the version chain, or straight from
        memory when the chain proves no newer publication touched the
        word.  A write violates the read-only declaration, and a read
        whose history was garbage-collected cannot be served soundly —
        both abort the attempt, and the scheme demotes the site so the
        retry runs as an ordinary eager transaction (no livelock).
        """
        ctx = core.ctx
        if is_write:
            if self._note_snapshot_violation is not None:
                self._note_snapshot_violation(core.idx, frame)
            core.doomed_depth = 0
            self._begin_abort(core)
            return
        extra, value, ok = self._snapshot_read(core.idx, frame, op.addr, line)
        if not ok:
            core.doomed_depth = 0
            self._begin_abort(core)
            return
        if value is None:
            result = self.hierarchy.read(core.idx, line)
            value = self._tx_read_value(core, op.addr)
            latency = result.latency + extra
        else:
            latency = extra
        if self.oracle is not None:
            self.oracle.record_tx_read(frame, op.addr, value)
        frame.tentative_cycles += latency
        ctx.pending_send = value if value is not None else _SENTINEL_NONE
        self.queue.schedule(latency, core.step_cb)

    def _tx_read_value(self, core: _Core, addr: int) -> int:
        for frame in reversed(core.ctx.frames):
            if addr in frame.write_buffer:
                return frame.write_buffer[addr]
        return self.memory.load(addr)

    # -- conflicts -------------------------------------------------------
    def _note_visible(
        self, core: _Core, ctx: _ThreadCtx, mask: int, is_write: bool,
        word: int,
    ) -> None:
        """A visible frame of ``core`` gained ``mask`` in its write (or
        read) signature, whose word is now ``word``."""
        if is_write:
            ctx.vis_w |= mask
            self._vis_w |= mask
        else:
            ctx.vis_r |= mask
            self._vis_r |= mask
        self._armed.add(ctx)
        if self._parked and core.idx < self._park_hmax:
            # only the signature that gained bits can newly conflict
            if is_write:
                self._unpark_covered(core.idx, word, 0)
            else:
                self._unpark_covered(core.idx, 0, word)

    def _publish_visible(self, core: _Core, frame: TxFrame) -> None:
        """A lazy frame started publishing: its signatures join the
        conflict scan."""
        ctx = core.ctx
        w, r = frame.write_sig._word, frame.read_sig._word
        ctx.vis_w |= w
        ctx.vis_r |= r
        self._vis_w |= w
        self._vis_r |= r
        if ctx.vis_w | ctx.vis_r:
            self._armed.add(ctx)
        if self._parked and core.idx < self._park_hmax:
            self._unpark_covered(core.idx, w, r)

    def _drop_frames(self, ctx: _ThreadCtx) -> None:
        """Frames left ``ctx``: recompute its visible words and armed
        membership, and let the next probe the stale summary fails to
        reject rebuild it."""
        w = r = 0
        frames = ctx.frames
        # visibility is per transaction (see _holds)
        if frames and frames[0].visible:
            for frame in frames:
                w |= frame.write_sig._word
                r |= frame.read_sig._word
        ctx.vis_w = w
        ctx.vis_r = r
        if w | r:
            self._armed.add(ctx)
        else:
            self._armed.discard(ctx)
        self._vis_dirty = True

    def _summary_covers(self, mask: int, is_write: bool) -> bool:
        """Rebuild the dirty summary; does it still cover ``mask``?"""
        w = r = 0
        for ctx in self._armed:
            w |= ctx.vis_w
            r |= ctx.vis_r
        self._vis_w = w
        self._vis_r = r
        self._vis_dirty = False
        return w & mask == mask or (is_write and r & mask == mask)

    def _holders(
        self, my_ctx: _ThreadCtx, masks: Sequence[int], is_write: bool,
        hidden: bool = False,
    ) -> Iterator[tuple[int | None, _ThreadCtx]]:
        """Yield each other thread that holds a conflict with a probe
        (one H3 mask per line, and the access kind): mounted cores by
        index as ``(core index, ctx)``, then, under multiplexing,
        suspended threads in ``_ctxs`` order as ``(None, ctx)``.
        ``hidden`` picks the kind of holder :meth:`_holds` accepts:
        visible ones, which accesses and lazy commits wait for, or hidden
        ones, which a lazy committer dooms."""
        # A visible holder has non-zero visible words (DESIGN §11), so
        # only the armed set can hold one, and its OR-ed words cover a
        # mask only if one of its frames' words may: they reject a
        # one-line probe (an access) cheaply.  A hidden holder's words
        # are empty, so a hidden scan walks every thread, and a lazy
        # commit's many-line probe (rare) tests frames only.
        if hidden:
            candidates, probe = self._ctxs, 0
        else:
            candidates = self._armed
            probe = masks[0] if len(masks) == 1 else 0
        cores = self.cores
        n_cores = len(cores)
        # (scan order, core index or None, ctx): mounted threads sort by
        # core index, suspended ones after them by tid, their _ctxs index
        found = []
        for ctx in candidates:
            if (ctx is not my_ctx
                    and (ctx.vis_w & probe == probe
                         or (is_write and ctx.vis_r & probe == probe))):
                idx = ctx.last_core
                if cores[idx].ctx is ctx:  # mounted
                    found.append((idx, idx, ctx))
                elif self._multiplex:
                    # suspended transactions' signatures stay armed (the
                    # summary signature of Section IV-C)
                    found.append((n_cores + ctx.tid, None, ctx))
        if len(found) > 1:
            found.sort(key=itemgetter(0))
        for _, idx, ctx in found:
            if self._holds(ctx, masks, is_write, hidden):
                yield idx, ctx

    @staticmethod
    def _holds(
        ctx: _ThreadCtx, masks: Sequence[int], is_write: bool, hidden: bool
    ) -> bool:
        """The eager/lazy coexistence rule (DESIGN §12) for one holder.

        Mode is per transaction and only a lone outermost frame
        publishes, so visibility is decided per thread, by the outermost
        frame's ``visible``: an eager transaction, or a lazy one that is
        publishing, is visible; a lazy one that has not published yet is
        hidden; a snapshot one never arms its signatures.  A holder of
        the asked-for kind conflicts when a frame's signature covers a
        probed mask: a write conflicts with the read or write signature,
        a read with the write signature only."""
        frames = ctx.frames
        if not frames:
            return False
        if frames[0].visible is hidden:
            return False
        # each signature is tested on its own word: OR-ing the read and
        # write filters first would manufacture false positives
        for frame in frames:
            w, r = frame.write_sig._word, frame.read_sig._word
            for m in masks:
                if w & m == m or (is_write and r & m == m):
                    return True
        return False

    def _wait_cycle(self, requester: int, holder: int) -> list[int] | None:
        """Cores on the wait-path if requester→holder closes a cycle."""
        path = [requester]
        cur: int | None = holder
        while cur is not None:
            path.append(cur)
            if cur == requester:
                return path
            cur = self.cores[cur].waiting_on
        return None

    def _youngest(self, cycle: list[int]) -> int:
        """The youngest transaction (largest begin timestamp) to abort."""
        candidates = [
            i for i in set(cycle)
            if self.cores[i].frames and self.cores[i].status not in (COMMITTING,)
        ]
        if not candidates:
            return cycle[0]
        return max(
            candidates, key=lambda i: (self.cores[i].frames[0].timestamp, i)
        )

    def _break_wait_cycle(self, core: _Core, holder_idx: int) -> bool:
        """If waiting on ``holder_idx`` would close a wait-for cycle,
        abort the youngest transaction on it; True when that is the
        requester's own, which is now aborting."""
        cycle = self._wait_cycle(core.idx, holder_idx)
        if not cycle:
            return False
        victim_idx = self._youngest(cycle)
        if victim_idx == core.idx:
            core.doomed_depth = 0
            self._begin_abort(core)
            return True
        self._doom(victim_idx, 0)
        return False

    def _doom(self, victim_idx: int, depth: int) -> None:
        victim = self.cores[victim_idx]
        if (victim.ctx is None or not victim.frames
                or victim.status in (COMMITTING, ABORTING, DONE)):
            return
        victim.doomed_depth = (
            depth if victim.doomed_depth is None
            else min(victim.doomed_depth, depth)
        )
        if victim.status == STALLED:
            self._unstall(victim)
            self._begin_abort(victim)
        elif victim.status == BARRIER:
            raise InvariantViolation(
                "a transactional core is parked at a barrier",
                cycle=self.queue.now, core=victim_idx,
                tid=victim.ctx.tid if victim.ctx else None,
            )
        # RUNNING / BACKOFF victims notice the doom at their next event

    # -- stalling ---------------------------------------------------------
    def _stall_on(
        self, core: _Core, holder_idx: int, op: Any,
        period: int | None = None, cycle_checked: bool = False,
    ) -> None:
        """Stall ``core`` behind ``holder_idx`` until woken or retried.

        ``period`` overrides the configured stall-retry period for this
        episode — contention managers like ``polite`` stretch it
        exponentially instead of hammering the holder.
        ``cycle_checked`` says the caller has just run ``_wait_cycle``
        for this edge and broken any cycle it found.
        """
        holder = self.cores[holder_idx]
        if holder.ctx is None or not holder.ctx.frames:
            # the holder finished in the meantime: retry immediately
            core.pending_op = op
            self._resume_retry(core, 0)
            return
        core.status = STALLED
        core.pending_op = op
        core.waiting_on = holder_idx
        core.stall_start = self.queue.now
        if self.trace.events is not None:
            self.trace.emit(
                self.queue.now, TX_STALL, core.idx,
                core.ctx.tid if core.ctx is not None else -1,
                {"holder": holder_idx},
            )
        holder.waiters.add(core.idx)
        default = period is None
        if default:
            period = self._stall_period
        if self.faults is not None:
            period = self.faults.perturb_stall_retry(core.idx, period)
        event = self.queue.arm(period, core.stall_poll_cb)
        core.retry_event = event
        if (default and self._poll_in_place and type(op) in (Read, Write)
                and core.ctx.doomed_depth is None):
            # the access just scanned and found this holder first
            self._park_poll(core, event)
        if self._parked and not cycle_checked:
            # a new edge may close a wait-for cycle (through a waiter
            # whose holder was suspended and has not polled since): the
            # parked cores on it must poll to find the cycle
            for idx in self._wait_cycle(core.idx, holder_idx) or ():
                if idx in self._parked:
                    self._unpark(self.cores[idx])

    def _park_poll(self, core: _Core, event: Event) -> None:
        """Let the kernel re-arm the stall poll ``event`` by itself.

        A parked poll keeps the exact ``(time, seq)`` slots of the poll
        chain it stands for; the un-park triggers (DESIGN §11) turn it
        back into a real poll whenever its outcome could change.  The
        probe it watches (``poll_mask``/``poll_write``) was stored by the
        scan that found the holder.
        """
        event.park(self._stall_period)
        self._parked[core.idx] = core
        if core.waiting_on > self._park_hmax:
            self._park_hmax = core.waiting_on

    def _forget_parked(self, core: _Core) -> None:
        parked = self._parked
        del parked[core.idx]
        if not parked:
            self._park_hmax = -1

    def _unpark(self, core: _Core) -> None:
        """Make a parked core's next poll slot a real poll."""
        core.retry_event.unpark()
        self._forget_parked(core)

    def _unpark_covered(self, idx: int, write_word: int, read_word: int) -> None:
        """Un-park every waiter whose holder is above core ``idx`` and
        whose probe ``idx``'s new write/read words cover; recompute the
        holders' bound on the way."""
        hmax = -1
        for waiter in list(self._parked.values()):
            holder = waiter.waiting_on
            if holder > idx:
                m = waiter.poll_mask
                if write_word & m == m or (
                    waiter.poll_write and read_word & m == m
                ):
                    self._unpark(waiter)
                    continue
            if holder > hmax:
                hmax = holder
        self._park_hmax = hmax

    def _cancel_poll(self, core: _Core) -> None:
        event = core.retry_event
        if event is not None:
            if event.parked:
                self._forget_parked(core)
            event.cancel()
            core.retry_event = None

    def _unstall(self, core: _Core) -> None:
        core.charge("Stalled", self.queue.now - core.stall_start)
        if self.trace.events is not None:
            self.trace.emit(
                self.queue.now, TX_UNSTALL, core.idx,
                core.ctx.tid if core.ctx is not None else -1,
                {"waited": self.queue.now - core.stall_start},
            )
        self._cancel_poll(core)
        if core.waiting_on is not None:
            self.cores[core.waiting_on].waiters.discard(core.idx)
            core.waiting_on = None
        core.status = RUNNING

    def _stall_poll(self, core: _Core) -> None:
        """A stalled core's periodic retry (the Stall policy's poll).

        A poll that finds the same holder and no wait-for cycle re-stalls
        in place and parks its next poll: the same events and order the
        full unstall/retry/rescan/resolve/stall path produces, with
        ``Stalled`` charged once when the stall ends.  Everything else —
        a new holder, a wait-for cycle, a doom, another resolution
        policy — takes the full path.
        """
        if core.status != STALLED:
            return
        ctx = core.ctx
        op = ctx.pending_op
        holder = core.waiting_on
        if (self._poll_in_place and ctx.doomed_depth is None
                and type(op) in (Read, Write)
                and next(self._holders(
                    ctx, (core.poll_mask,), core.poll_write
                ), (None, None))[0] == holder
                and not (ctx.frames and self._wait_cycle(core.idx, holder))):
            event = self.queue.arm(self._stall_period, core.stall_poll_cb)
            core.retry_event = event
            self._park_poll(core, event)
            return
        self._unstall(core)
        self._retry_pending(core)

    def _wake_waiters(self, core: _Core) -> None:
        for waiter_idx in sorted(core.waiters):
            waiter = self.cores[waiter_idx]
            if waiter.status != STALLED or waiter.waiting_on != core.idx:
                continue
            waiter.charge("Stalled", self.queue.now - waiter.stall_start)
            if self.trace.events is not None:
                self.trace.emit(
                    self.queue.now, TX_UNSTALL, waiter.idx,
                    waiter.ctx.tid if waiter.ctx is not None else -1,
                    {"waited": self.queue.now - waiter.stall_start,
                     "woken_by": core.idx},
                )
            self._cancel_poll(waiter)
            waiter.waiting_on = None
            waiter.status = RUNNING
            self.queue.schedule(0, waiter.retry_cb)
        core.waiters.clear()

    def _resume_retry(self, core: _Core, delay: int) -> None:
        self.queue.schedule(delay, core.retry_cb)

    def _retry_pending(self, core: _Core) -> None:
        ctx = core.ctx
        if core.status == DONE or ctx is None:
            return
        if ctx.doomed_depth is not None:
            self._begin_abort(core)
            return
        op = ctx.pending_op
        ctx.pending_op = None
        if op is None:
            self._step(core)
            return
        if isinstance(op, tuple) and op and op[0] == "commit":
            core.status = RUNNING
            self._begin_commit(core, op[1])
        else:
            core.status = RUNNING
            self._access(core, op)

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def _enter_barrier(self, core: _Core, op: Barrier) -> None:
        if core.in_tx:
            raise TransactionError(
                "Barrier inside a transaction is not allowed",
                cycle=self.queue.now, core=core.idx, tid=core.ctx.tid,
                site=core.frames[0].site,
            )
        ctx = core.ctx
        ctx.barrier_bid = op.bid
        ctx.barrier_start = self.queue.now
        self._barrier_arrived.setdefault(op.bid, set()).add(ctx.tid)
        if self._multiplex:
            # release the core while waiting so unstarted threads can run
            self._barrier_parked.setdefault(op.bid, []).append(ctx)
            self._park(core, "barrier")
        else:
            core.status = BARRIER
        self._check_barriers()

    def _check_barriers(self) -> None:
        live = {ctx.tid for ctx in self._ctxs if not ctx.done}
        for bid, arrived in list(self._barrier_arrived.items()):
            waiting_ctxs = [
                ctx for ctx in self._ctxs
                if not ctx.done and ctx.barrier_bid == bid
            ]
            waiting = {ctx.tid for ctx in waiting_ctxs}
            if waiting and waiting >= live:
                del self._barrier_arrived[bid]
                parked = self._barrier_parked.pop(bid, [])
                for ctx in sorted(waiting_ctxs, key=lambda c: c.tid):
                    ctx.barrier_bid = None
                    wait = self.queue.now - ctx.barrier_start
                    if ctx in parked:
                        self.cores[ctx.last_core].charge("Barrier", wait)
                        ctx.park_reason = None
                        self._ready.append(ctx)
                    else:
                        c = self.cores[ctx.last_core]
                        c.charge("Barrier", wait)
                        c.status = RUNNING
                        self.queue.schedule(0, c.step_cb)
                self._schedule_ready()


class _NoneSentinel:
    """Distinguishes "send None" from "nothing pending" in the step loop."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<none>"


_SENTINEL_NONE = _NoneSentinel()
