"""Deterministic fault injection for the HTM simulator.

The robustness harness perturbs a run at chosen cycles — squeezing the
redirect-table capacity, capping the preserved pool, forcing summary-
signature false-positive storms, killing transactions, delaying cores,
and inflating backoff/stall timing — while keeping the run a pure
function of ``(config, workload, seed, plan)``: fault actions fire as
ordinary events on the simulator's deterministic :class:`EventQueue`,
and any randomness comes from the ``"faults"`` stream of the run's
seeded :class:`~repro.sim.rng.RngStreams`.  The same seed and plan
therefore reproduce the identical fault trace and the identical
:class:`~repro.simulator.SimResult`.

A :class:`FaultPlan` is a named, JSON-serializable list of
:class:`FaultAction`\\ s.  Plans travel through
:class:`~repro.runner.spec.ExperimentSpec` as strings (a preset name or
inline JSON — see :func:`parse_plan`) so they stay hashable and stable
under the result-cache key.

Supported action kinds
----------------------

``table_squeeze``
    Shrink the per-core L1 redirect tables to ``l1_entries`` and/or the
    shared L2 table to ``l2_ways`` ways; victims take the organic
    demotion/spill path (L1 → L2 → software overflow area).
``pool_cap``
    Cap the preserved pool at ``pool_pages`` pages (``0`` = freeze at
    the pages allocated so far).  Further growth raises
    :class:`~repro.errors.PoolExhausted`, which SUV converts into an
    abort-with-backoff.
``sig_storm``
    Force the redirect summary filter to answer "maybe redirected" for
    every inquiry for ``duration`` cycles — a saturated-filter
    false-positive storm (wasted lookups, never wrong results).
``kill_tx``
    Doom the transaction running on ``core`` (all in-flight
    transactions when ``core`` is ``None``); victims abort through the
    ordinary path and retry after backoff.
``delay_core``
    Freeze ``core`` for ``cycles`` cycles at its next operation
    boundary (models an interrupt / SMT interference burst).
``backoff_scale``
    Multiply every backoff delay by ``factor`` (plus seeded jitter)
    for ``duration`` cycles.
``stall_jitter``
    Randomize the stall-retry period within ``[period, period*factor]``
    for ``duration`` cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.simulator import Simulator

#: action kinds understood by the injector
KINDS = (
    "table_squeeze",
    "pool_cap",
    "sig_storm",
    "kill_tx",
    "delay_core",
    "backoff_scale",
    "stall_jitter",
)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled perturbation of the run."""

    kind: str
    at_cycle: int
    core: int | None = None       # kill_tx / delay_core target (None = all)
    cycles: int = 0               # delay_core: stall length
    duration: int = 0             # sig_storm / *_scale / *_jitter window
    l1_entries: int | None = None  # table_squeeze
    l2_ways: int | None = None     # table_squeeze
    pool_pages: int = 0            # pool_cap (0 = freeze at current)
    factor: float = 1.0            # backoff_scale / stall_jitter

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})"
            )
        if self.at_cycle < 0:
            raise ValueError("fault at_cycle must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "at_cycle": self.at_cycle}
        for key in ("core", "cycles", "duration", "l1_entries", "l2_ways",
                    "pool_pages", "factor"):
            value = getattr(self, key)
            default = FaultAction.__dataclass_fields__[key].default
            if value != default:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultAction":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of fault actions."""

    name: str
    actions: tuple[FaultAction, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "actions": [a.to_dict() for a in self.actions],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        return cls(
            name=data.get("name", "inline"),
            actions=tuple(
                FaultAction.from_dict(a) for a in data.get("actions", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# preset plans (the CLI campaign vocabulary)
# ----------------------------------------------------------------------
def _presets() -> dict[str, FaultPlan]:
    return {
        "table-squeeze": FaultPlan(
            "table-squeeze",
            (
                FaultAction("table_squeeze", at_cycle=1500,
                            l1_entries=4, l2_ways=2),
                FaultAction("table_squeeze", at_cycle=4000,
                            l1_entries=2, l2_ways=1),
            ),
        ),
        "pool-pressure": FaultPlan(
            "pool-pressure",
            (FaultAction("pool_cap", at_cycle=1200, pool_pages=0),),
        ),
        "sig-storm": FaultPlan(
            "sig-storm",
            (FaultAction("sig_storm", at_cycle=800, duration=6000),),
        ),
        "tx-kill": FaultPlan(
            "tx-kill",
            (
                FaultAction("kill_tx", at_cycle=900),
                FaultAction("kill_tx", at_cycle=2300),
                FaultAction("kill_tx", at_cycle=4100),
            ),
        ),
        "jitter": FaultPlan(
            "jitter",
            (
                FaultAction("backoff_scale", at_cycle=500,
                            duration=12000, factor=4.0),
                FaultAction("stall_jitter", at_cycle=500,
                            duration=12000, factor=3.0),
                FaultAction("delay_core", at_cycle=1700, core=0, cycles=400),
            ),
        ),
    }


PRESETS: dict[str, FaultPlan] = _presets()


def list_presets() -> list[str]:
    """Names of the built-in fault plans, sorted."""
    return sorted(PRESETS)


def parse_plan(spec: str | None) -> FaultPlan | None:
    """Resolve a spec string into a plan.

    ``None``/empty → no faults; a preset name → that preset; a string
    starting with ``{`` → inline JSON (:meth:`FaultPlan.from_json`).
    """
    if not spec:
        return None
    if spec in PRESETS:
        return PRESETS[spec]
    if spec.lstrip().startswith("{"):
        return FaultPlan.from_json(spec)
    raise ValueError(
        f"unknown fault plan {spec!r}: not a preset "
        f"({', '.join(list_presets())}) and not inline JSON"
    )


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Arms a :class:`FaultPlan` against one simulator run.

    The injector schedules each action on the simulator's event queue
    at ``arm`` time and exposes three hooks the simulator consults on
    its hot paths (``consume_delay``, ``perturb_backoff``,
    ``perturb_stall_retry``).  Every applied action is appended to
    :attr:`trace` as ``{"cycle", "kind", "target", "hit", "detail"}``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.trace: list[dict[str, Any]] = []
        self._sim: "Simulator" | None = None
        self._rng = None
        self._pending_delay: dict[int, int] = {}
        self._backoff_until = -1
        self._backoff_factor = 1.0
        self._stall_until = -1
        self._stall_factor = 1.0

    # -- lifecycle ------------------------------------------------------
    def arm(self, sim: "Simulator") -> None:
        """Bind to a run and schedule every action on its event queue."""
        self._sim = sim
        self._rng = sim.rng.stream("faults")
        for action in self.plan.actions:
            delay = max(0, action.at_cycle - sim.queue.now)
            sim.queue.schedule(delay, lambda a=action: self._apply(a))

    # -- simulator hooks ------------------------------------------------
    def consume_delay(self, core: int) -> int:
        """One-shot pending delay for ``core`` (0 when none)."""
        return self._pending_delay.pop(core, 0)

    def perturb_backoff(self, core: int, delay: int) -> int:
        """The (possibly inflated) backoff delay to actually use."""
        sim = self._sim
        if sim is None or sim.queue.now > self._backoff_until:
            return delay
        jitter = int(self._rng.integers(0, 16))
        return int(delay * self._backoff_factor) + jitter

    def perturb_stall_retry(self, core: int, period: int) -> int:
        """The (possibly randomized) stall-retry period to use."""
        sim = self._sim
        if sim is None or sim.queue.now > self._stall_until:
            return period
        hi = max(period + 1, int(period * self._stall_factor))
        return int(self._rng.integers(period, hi + 1))

    # -- action application ---------------------------------------------
    def _record(self, action: FaultAction, hit: bool, **detail: Any) -> None:
        self.trace.append({
            "cycle": self._sim.queue.now,
            "kind": action.kind,
            "target": action.core,
            "hit": hit,
            "detail": detail,
        })

    def _apply(self, action: FaultAction) -> None:
        handler = getattr(self, f"_do_{action.kind}")
        handler(action)

    def _do_table_squeeze(self, action: FaultAction) -> None:
        tables = list(self._find("table"))
        if not tables:
            self._record(action, hit=False, reason="no redirect table")
            return
        demoted = spilled = 0
        for table in tables:
            d, s = table.squeeze(action.l1_entries, action.l2_ways)
            demoted += d
            spilled += s
        self._record(action, hit=True, demoted=demoted, spilled=spilled,
                     l1_entries=action.l1_entries, l2_ways=action.l2_ways)

    def _do_pool_cap(self, action: FaultAction) -> None:
        pools = list(self._find("pool"))
        if not pools:
            self._record(action, hit=False, reason="no preserved pool")
            return
        caps = []
        for pool in pools:
            cap = action.pool_pages or max(1, pool.pages_allocated)
            pool.max_pages = cap
            caps.append(cap)
        self._record(action, hit=True, caps=caps)

    def _do_sig_storm(self, action: FaultAction) -> None:
        summaries = [s for s in self._find("summary") if s.enabled]
        if not summaries:
            self._record(action, hit=False, reason="no summary filter")
            return
        for summary in summaries:
            summary.force_positive = True
        self._record(action, hit=True, duration=action.duration)
        def _end() -> None:
            for summary in summaries:
                summary.force_positive = False
        self._sim.queue.schedule(max(1, action.duration), _end)

    def _do_kill_tx(self, action: FaultAction) -> None:
        sim = self._sim
        victims = []
        for core in sim.cores:
            if action.core is not None and core.idx != action.core:
                continue
            # only running/stalled/backing-off transactions are killable;
            # a committer/aborter is mid-flight and a barrier-parked core
            # cannot legally hold a transaction anyway
            if (core.ctx is None or not core.ctx.frames
                    or core.status in ("committing", "aborting",
                                       "barrier", "done")):
                continue
            victims.append(core.idx)
        for idx in victims:
            sim._doom(idx, 0)
        self._record(action, hit=bool(victims), victims=victims)

    def _do_delay_core(self, action: FaultAction) -> None:
        target = action.core if action.core is not None else 0
        self._pending_delay[target] = (
            self._pending_delay.get(target, 0) + max(1, action.cycles)
        )
        self._record(action, hit=True, cycles=action.cycles, target=target)

    def _do_backoff_scale(self, action: FaultAction) -> None:
        self._backoff_until = self._sim.queue.now + action.duration
        self._backoff_factor = action.factor
        self._record(action, hit=True, factor=action.factor,
                     until=self._backoff_until)

    def _do_stall_jitter(self, action: FaultAction) -> None:
        self._stall_until = self._sim.queue.now + action.duration
        self._stall_factor = action.factor
        self._record(action, hit=True, factor=action.factor,
                     until=self._stall_until)

    # -- component discovery --------------------------------------------
    def _find(self, attr: str) -> Iterable[Any]:
        """Instances of ``attr`` across the scheme's carriers: a bare
        carrier VM holds them itself, the adaptive scheme in its
        ``eager`` and ``lazy`` carriers."""
        seen: list[Any] = []
        for vm in self._sim.scheme.carriers:
            obj = getattr(vm, attr, None)
            if obj is not None and all(obj is not s for s in seen):
                seen.append(obj)
        return seen
