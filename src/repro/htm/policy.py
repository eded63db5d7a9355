"""The three composable policy axes of an HTM scheme.

The paper frames SUV as one point in a *design space* of version-
management choices (Section II's taxonomy).  This module makes that
space first-class: a scheme is no longer one monolithic
:class:`~repro.htm.vm.base.VersionManager` class but a composition of
three independent axes, mirroring the parameterization of the gem5/
Murcia HTM model (``lazy_vm`` / lazy conflict detection / resolution
policy as independent config knobs):

``vm`` — *where speculative bytes live*
    ``undo`` (LogTM-SE: in place + undo log), ``flash`` (FasTM: new
    values pinned in L1), ``redirect`` (SUV: redirect table + preserved
    pool), ``buffer`` (TCC-style redo-in-L1), ``mvsuv`` (multiversioned
    SUV: redirect table + bounded per-line version chains serving
    snapshot reads to read-only transactions).

``cd`` — *when conflicts are detected*
    ``eager`` (per access, via coherence + signatures), ``lazy``
    (invisible until a validating commit), ``adaptive`` (DynTM's
    history-based per-site selector between the two).

``resolution`` — *who yields on an eager conflict*
    ``stall`` (requester waits; wait-for cycles abort the youngest),
    ``abort_requester`` (requester partially aborts), ``abort_responder``
    (the paper's alternative: the holder aborts), ``timestamp``
    (older transaction wins, younger aborts — livelock-free by age),
    ``polite`` (exponential-backoff stalling, then the holder yields),
    ``greedy`` (the Greedy contention manager: timestamp seniority with
    waiting holders abortable — starvation-free), ``karma`` (accumulated
    work as priority, retained and incremented across aborts).

Lazy commits serialize through one global commit token
(:class:`CommitArbitration`, TCC-style), as in the paper's lazy
baselines.  It is a fixed mechanism, not an axis: with more than one
committer admitted, two whose write sets overlap would publish
unordered.

Every class here is a small, fully-typed policy object; the
:class:`~repro.htm.vm.composed.AdaptiveVM` wrapper and the simulator
consume them without ``Any`` at the seams.  Legality of a combination
is a physical property, not a table accident —
:meth:`SchemeComposition.check` rejects impossible crossings with a
typed :class:`~repro.errors.IncompatiblePolicyError` carrying the
reason.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, NamedTuple

from repro.errors import IncompatiblePolicyError, UnknownSchemeError

if TYPE_CHECKING:  # only for annotations; simulator imports us at runtime
    from repro.htm.transaction import TxFrame
    from repro.simulator import Simulator, _Core

# ---------------------------------------------------------------------------
# axis value spaces
# ---------------------------------------------------------------------------

#: version-management axis: where speculative bytes live
VM_AXIS: tuple[str, ...] = ("undo", "flash", "redirect", "buffer", "mvsuv")
#: conflict-detection axis: when conflicts are detected
CD_AXIS: tuple[str, ...] = ("eager", "lazy", "adaptive")
#: resolution axis: who yields on an eager conflict
RESOLUTION_AXIS: tuple[str, ...] = (
    "stall", "abort_requester", "abort_responder", "timestamp",
    "polite", "greedy", "karma",
)

class NamedScheme(NamedTuple):
    """One row of :data:`NAMED_SCHEMES`."""

    vm: str
    cd: str
    #: the name the scheme's results report (``SimResult.scheme``)
    reports: str
    #: other spellings that resolve to this scheme
    aliases: tuple[str, ...] = ()


#: the seven named schemes, in listing order (baseline first, the
#: paper's contribution third, as in the figures): each is a (vm, cd)
#: point of the space whose resolution axis comes from ``HTMConfig``
#: (default stall).  ``dyntm`` reports ``dyntm+fastm``, the name its
#: results always carried (the golden digests hash it).
NAMED_SCHEMES: Mapping[str, NamedScheme] = {
    "logtm-se": NamedScheme("undo", "eager", "logtm-se", ("logtmse", "logtm")),
    "fastm": NamedScheme("flash", "eager", "fastm"),
    "suv": NamedScheme("redirect", "eager", "suv"),
    "lazy": NamedScheme("buffer", "eager", "lazy"),
    "dyntm": NamedScheme("flash", "adaptive", "dyntm+fastm"),
    "dyntm+suv": NamedScheme(
        "redirect", "adaptive", "dyntm+suv", ("dyntm-suv",)
    ),
    "mvsuv": NamedScheme("mvsuv", "eager", "mvsuv"),
}


def _normalize_axis(value: str) -> str:
    return value.strip().lower().replace("-", "_")


# ---------------------------------------------------------------------------
# the composition value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeComposition:
    """One point of the three-axis design space, as a hashable value."""

    vm: str = "redirect"
    cd: str = "eager"
    resolution: str = "stall"

    @property
    def name(self) -> str:
        """The canonical composed scheme name, ``vm+cd+resolution``."""
        return f"{self.vm}+{self.cd}+{self.resolution}"

    def as_dict(self) -> dict[str, str]:
        return {"vm": self.vm, "cd": self.cd, "resolution": self.resolution}

    # -- legality -------------------------------------------------------
    def illegal_reason(self) -> str | None:
        """Why this combination is physically impossible, or ``None``."""
        if self.vm not in VM_AXIS:
            return f"unknown vm axis value (choose from {', '.join(VM_AXIS)})"
        if self.cd not in CD_AXIS:
            return f"unknown cd axis value (choose from {', '.join(CD_AXIS)})"
        if self.resolution not in RESOLUTION_AXIS:
            return (
                "unknown resolution axis value "
                f"(choose from {', '.join(RESOLUTION_AXIS)})"
            )
        if self.cd == "lazy" and self.vm in ("undo", "flash"):
            return (
                f"{self.vm} version management updates lines the coherence "
                "protocol can see (in-place undo log / L1 write ownership), "
                "so the transaction cannot stay invisible until commit as "
                "lazy conflict detection requires"
            )
        if self.cd == "adaptive" and self.vm == "buffer":
            return (
                "adaptive detection exists to escape lazy buffering when the "
                "L1 overflows, but a buffer VM still buffers in eager mode — "
                "the adaptation would have no overflow-tolerant fallback"
            )
        if self.vm == "mvsuv" and self.cd != "eager":
            return (
                "mvsuv snapshots are stamped by the order in which writers "
                "publish through the redirect table, which only eager "
                "detection pins at access time; under lazy or adaptive "
                "detection a writer's publication point is not known until "
                "commit arbitration, so a concurrent snapshot reader could "
                "not be given a consistent version timestamp"
            )
        return None

    def check(self) -> "SchemeComposition":
        """Validate; returns self or raises :class:`IncompatiblePolicyError`."""
        reason = self.illegal_reason()
        if reason is not None:
            raise IncompatiblePolicyError(
                "illegal policy composition", axes=self.as_dict(), reason=reason
            )
        return self

    @property
    def is_legal(self) -> bool:
        return self.illegal_reason() is None

    # -- parsing --------------------------------------------------------
    @classmethod
    def parse(cls, name: str) -> "SchemeComposition | None":
        """Parse a composed scheme name; ``None`` if not composition-shaped.

        A composed name has exactly three ``+``-separated axis tokens
        (which keeps two-token canonical names like ``dyntm+suv`` out of
        this path).  Returns the composition *unchecked* — callers
        decide between :meth:`check` and :attr:`is_legal`.
        """
        parts = [_normalize_axis(p) for p in name.split("+")]
        if len(parts) != 3 or not all(parts):
            return None
        return cls(vm=parts[0], cd=parts[1], resolution=parts[2])

    @classmethod
    def from_value(
        cls, value: "str | Mapping[str, str] | SchemeComposition"
    ) -> "SchemeComposition":
        """Coerce a name, axes mapping, or composition to a checked value."""
        if isinstance(value, SchemeComposition):
            return value.check()
        if isinstance(value, Mapping):
            known = {"vm", "cd", "resolution"}
            unknown = set(value) - known
            if unknown:
                raise IncompatiblePolicyError(
                    "unknown policy axis",
                    axes={k: str(value[k]) for k in sorted(unknown)},
                    reason=f"axes are {', '.join(sorted(known))}",
                )
            return cls(
                **{k: _normalize_axis(str(v)) for k, v in value.items()}
            ).check()
        comp = cls.parse(value)
        if comp is None:
            raise UnknownSchemeError(
                f"{value!r} is not a composed scheme name "
                "(expected vm+cd+resolution)",
                name=value,
            )
        return comp.check()


def compose_scheme(
    vm: str = "redirect",
    cd: str = "eager",
    resolution: str = "stall",
) -> str:
    """The canonical composed scheme name for the given axes.

    Validates legality (raising :class:`IncompatiblePolicyError` with
    the physical reason) and normalizes spelling, so the returned name
    is stable enough to use as a cache key or spec field::

        >>> compose_scheme(vm="redirect", cd="lazy")
        'redirect+lazy+stall'
    """
    return SchemeComposition(
        vm=_normalize_axis(vm),
        cd=_normalize_axis(cd),
        resolution=_normalize_axis(resolution),
    ).check().name


def iter_scheme_space() -> Iterator[SchemeComposition]:
    """Every enumerable axis combination, legal or not, in axis order."""
    for vm, cd, resolution in product(VM_AXIS, CD_AXIS, RESOLUTION_AXIS):
        yield SchemeComposition(vm, cd, resolution)


def legal_combinations() -> tuple[SchemeComposition, ...]:
    """The legal subset of :func:`iter_scheme_space`, in axis order."""
    return tuple(c for c in iter_scheme_space() if c.is_legal)


# ---------------------------------------------------------------------------
# conflict detection (the ``cd`` axis)
# ---------------------------------------------------------------------------
# ``eager`` and ``lazy`` detection need no policy object: a carrier VM
# whose ``cd_axis`` is ``lazy`` runs every frame in lazy mode
# (:meth:`~repro.htm.vm.base.VersionManager.mode_for`).  Only adaptive
# detection chooses per attempt.

class AdaptiveCD:
    """DynTM's history-based per-site eager/lazy selector.

    One saturating counter per static transaction site drifts toward
    lazy when eager attempts keep aborting and back toward eager when
    lazy runs overflow the L1 or pay heavy commit merges (the update
    rules of DynTM, Lupon MICRO'10).
    """

    name = "adaptive"

    def __init__(self, counter_bits: int, lazy_threshold: int) -> None:
        self._counters: dict[int, int] = {}
        self._max = (1 << counter_bits) - 1
        self._threshold = lazy_threshold

    def mode_for(self, site: int) -> str:
        """``"eager"`` or ``"lazy"`` for a new outermost attempt at ``site``."""
        if self._counters.get(site, 0) >= self._threshold:
            return "lazy"
        return "eager"

    def note_outcome(self, frame: "TxFrame", committed: bool) -> None:
        """Learn from one finished attempt of ``frame``'s site."""
        site = frame.site
        c = self._counters.get(site, 0)
        if frame.mode == "eager":
            if not committed:
                # eager aborts are expensive; drift toward lazy
                self._counters[site] = min(self._max, c + 1)
        else:
            if frame.vm.get("must_abort") == "overflow":
                # lazy cannot hold the write set: force eager
                self._counters[site] = 0
            elif committed and len(frame.vm.get("spec_lines", ())) > 32:
                # heavy merge: eager would commit for free
                self._counters[site] = max(0, c - 1)


# ---------------------------------------------------------------------------
# resolution policies (the ``resolution`` axis)
# ---------------------------------------------------------------------------

class ConflictResolution(ABC):
    """Who yields when an eager conflict is found.

    ``resolve`` runs with the requester ``core`` about to retry ``op``
    against the transaction mounted on ``holder_idx``; it must leave the
    requester either stalled, aborting, or scheduled to retry.  The
    policies drive the simulator through its stall/doom/abort machinery
    — they own the *decision*, the simulator owns the *mechanics*.
    """

    name: ClassVar[str] = "abstract"

    @abstractmethod
    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        """Resolve one requester-vs-holder conflict."""


class StallResolution(ConflictResolution):
    """Requester stalls; wait-for cycles abort the youngest transaction.

    The paper's default Stall policy: the conflicting requester waits
    for the holder, and a closed wait-for cycle is broken by aborting
    the youngest transaction on it (which then backs off and retries).
    """

    name = "stall"

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        cycle = sim._wait_cycle(core.idx, holder_idx)
        if cycle:
            victim_idx = sim._youngest(cycle)
            if victim_idx == core.idx:
                core.doomed_depth = 0
                sim._begin_abort(core)
                return
            sim._doom(victim_idx, 0)
        sim._stall_on(core, holder_idx, op)


class AbortRequesterResolution(ConflictResolution):
    """Requester immediately (partially) aborts and retries.

    The conflicting access belongs to the innermost frame, so a partial
    abort of that level suffices (LogTM-Nested): outer levels keep
    their work and the inner body re-executes.
    """

    name = "abort_requester"

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        core.doomed_depth = len(core.frames) - 1
        sim._begin_abort(core)


class AbortResponderResolution(ConflictResolution):
    """The holder aborts so the requester is guaranteed to run.

    The paper's alternative: "make the receiving core ... abort its
    transaction to guarantee the execution of the requester's
    transaction"; the requester waits out the holder's (brief) abort
    processing.
    """

    name = "abort_responder"

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        sim._doom(holder_idx, 0)
        sim._stall_on(core, holder_idx, op)


class TimestampResolution(ConflictResolution):
    """Age-based: the older transaction wins, the younger yields.

    A greedy timestamp contention manager: an older requester dooms the
    younger holder and waits out its abort; a younger requester aborts
    itself (full abort with backoff).  Wait-for edges only ever point
    from older to younger transactions, so no cycle — and therefore no
    deadlock or livelock — can form.
    """

    name = "timestamp"

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        holder = sim.cores[holder_idx]
        if holder.ctx is None or not holder.frames:
            # the holder finished in the meantime: retry immediately
            core.pending_op = op
            sim._resume_retry(core, 0)
            return
        mine = (core.frames[0].timestamp, core.ctx.tid)
        theirs = (holder.frames[0].timestamp, holder.ctx.tid)
        if mine < theirs:
            sim._doom(holder_idx, 0)
            sim._stall_on(core, holder_idx, op)
        else:
            core.doomed_depth = 0
            sim._begin_abort(core)


class _EpisodeTracking:
    """Per-requester conflict-episode counters for contention managers.

    An *episode* is one requester repeatedly re-resolving the same
    conflict (same holder, same address, same attempt of its outermost
    frame); the stall-retry machinery re-invokes ``resolve`` each time
    the conflict persists.  Counters live on the policy object, which is
    per-:class:`~repro.simulator.Simulator`, so runs stay deterministic
    and independent.
    """

    def __init__(self) -> None:
        self._episodes: dict[int, tuple[tuple[int, int, int], int]] = {}

    def _tries(self, core: "_Core", holder_idx: int, op: object) -> int:
        """Consecutive resolves of this episode, starting at 1."""
        key = (
            holder_idx,
            getattr(op, "addr", -1),
            core.frames[0].attempt if core.frames else -1,
        )
        prev_key, count = self._episodes.get(core.idx, (None, 0))
        count = count + 1 if prev_key == key else 1
        self._episodes[core.idx] = (key, count)
        return count

    def _forget(self, core: "_Core") -> None:
        self._episodes.pop(core.idx, None)


class PoliteResolution(_EpisodeTracking, ConflictResolution):
    """Exponential-backoff stalling, then the obstructing holder yields.

    The Polite contention manager of Scherer & Scott: the requester
    backs off politely — each re-encounter of the same conflict doubles
    its stall-retry period (capped by ``htm.backoff_cap``) — and only
    after ``patience`` rounds does it lose its temper and abort the
    holder.  Wait-for cycles are broken like the Stall policy's, by
    aborting the youngest transaction on the cycle.
    """

    name = "polite"

    #: backed-off rounds before the requester aborts the holder
    patience: ClassVar[int] = 8

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        holder = sim.cores[holder_idx]
        if holder.ctx is None or not holder.frames:
            self._forget(core)
            core.pending_op = op
            sim._resume_retry(core, 0)
            return
        cycle = sim._wait_cycle(core.idx, holder_idx)
        if cycle:
            victim_idx = sim._youngest(cycle)
            if victim_idx == core.idx:
                self._forget(core)
                core.doomed_depth = 0
                sim._begin_abort(core)
                return
            sim._doom(victim_idx, 0)
        tries = self._tries(core, holder_idx, op)
        if tries > self.patience:
            # patience exhausted: the holder yields (and its abort
            # processing is waited out, as under abort_responder)
            self._forget(core)
            sim._doom(holder_idx, 0)
            sim._stall_on(core, holder_idx, op)
            return
        base = sim.config.htm.stall_retry_period
        period = min(base << (tries - 1), sim.config.htm.backoff_cap)
        sim._stall_on(core, holder_idx, op, period=period)


class GreedyResolution(ConflictResolution):
    """The Greedy contention manager: seniority wins, waiters yield.

    Guerraoui/Herlihy/Pochon's Greedy manager, the classic
    starvation-freedom result (cf. arXiv 1904.03700's use of it for
    multi-version STM): every transaction carries the begin timestamp
    of its *first* attempt (kept across retries).  On a conflict the
    requester aborts the holder if the holder is younger **or** is
    itself waiting; otherwise the requester waits.  A transaction never
    self-aborts on conflict, and the oldest live transaction can lose
    to no one, so every transaction eventually becomes oldest and
    commits — no doom loop, no livelock.
    """

    name = "greedy"

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        holder = sim.cores[holder_idx]
        if holder.ctx is None or not holder.frames:
            core.pending_op = op
            sim._resume_retry(core, 0)
            return
        mine = (core.frames[0].timestamp, core.ctx.tid)
        theirs = (holder.frames[0].timestamp, holder.ctx.tid)
        # "stalled" = the holder is itself waiting on a third party
        # (simulator status constant; literal to avoid an import cycle).
        # A winner waiting out its victim's abort processing is *not*
        # waiting in Greedy's sense — it already won that conflict and
        # is about to run; treating it as abortable would let younger
        # transactions doom the oldest one and break the
        # starvation-freedom argument.
        waiting = holder.status == "stalled"
        if waiting and holder.waiting_on is not None:
            victim = sim.cores[holder.waiting_on]
            if victim.status == "aborting" or victim.doomed_depth is not None:
                waiting = False
        if theirs > mine or waiting:
            sim._doom(holder_idx, 0)
        sim._stall_on(core, holder_idx, op)


class KarmaResolution(_EpisodeTracking, ConflictResolution):
    """Accumulated-work priority with increment-on-abort.

    The Karma contention manager: a transaction's priority is the work
    it has invested — the lines in its read/write sets — plus a
    seniority credit for every abort it has already suffered (the
    outermost frame's attempt counter, which survives
    ``reset_for_retry``).  Crucially, invested work is *retained across
    aborts*: the read/write sets clear on retry, but the karma they
    earned is banked per transaction (keyed by the outermost begin
    timestamp, which retries keep), so a repeatedly-victimized big
    transaction keeps outranking the small ones that doomed it.  A
    higher-karma requester aborts the holder; a lower-karma requester
    backs off and retries, but each retry of the same episode earns one
    karma, so it attacks once its retries have made up the difference —
    bounded waiting, no starvation.
    """

    name = "karma"

    #: karma credited per suffered abort of the outermost frame
    abort_credit: ClassVar[int] = 4

    def __init__(self) -> None:
        super().__init__()
        #: core.idx -> ((tid, tx timestamp), banked work high-water);
        #: the key changes when the core starts a *new* transaction,
        #: which resets the bank — commits need no explicit hook
        self._bank: dict[int, tuple[tuple[int, int], int]] = {}

    def _karma(self, core_idx: int, tid: int,
               frames: "list[TxFrame]") -> int:
        work = sum(len(f.read_lines) + len(f.write_lines) for f in frames)
        key = (tid, frames[0].timestamp)
        prev_key, banked = self._bank.get(core_idx, (None, 0))
        if prev_key != key:
            banked = 0
        banked = max(banked, work)
        self._bank[core_idx] = (key, banked)
        return banked + self.abort_credit * frames[0].attempt

    def resolve(
        self, sim: "Simulator", core: "_Core", holder_idx: int, op: object
    ) -> None:
        holder = sim.cores[holder_idx]
        if holder.ctx is None or not holder.frames:
            self._forget(core)
            core.pending_op = op
            sim._resume_retry(core, 0)
            return
        cycle = sim._wait_cycle(core.idx, holder_idx)
        if cycle:
            victim_idx = sim._youngest(cycle)
            if victim_idx == core.idx:
                self._forget(core)
                core.doomed_depth = 0
                sim._begin_abort(core)
                return
            sim._doom(victim_idx, 0)
        mine = self._karma(core.idx, core.ctx.tid, core.frames)
        theirs = self._karma(holder.idx, holder.ctx.tid, holder.frames)
        tries = self._tries(core, holder_idx, op)
        older = (
            (core.frames[0].timestamp, core.ctx.tid)
            < (holder.frames[0].timestamp, holder.ctx.tid)
        )
        wins = mine > theirs or (mine == theirs and older)
        if wins or tries > max(0, theirs - mine):
            # enough karma (or enough patient retries to cover the
            # difference): the holder yields
            self._forget(core)
            sim._doom(holder_idx, 0)
        sim._stall_on(core, holder_idx, op)


_RESOLUTIONS: Mapping[str, type[ConflictResolution]] = {
    cls.name: cls
    for cls in (
        StallResolution,
        AbortRequesterResolution,
        AbortResponderResolution,
        TimestampResolution,
        PoliteResolution,
        GreedyResolution,
        KarmaResolution,
    )
}


def make_resolution(name: str) -> ConflictResolution:
    """Build a resolution policy by axis value.

    Unknown values raise :class:`~repro.errors.UnknownSchemeError` with
    difflib near-miss suggestions, so ``greedy``/``karma``/``polite``
    typos (``greedey``, ``carma``, ``polit`` ...) point at the intended
    policy instead of dumping the whole axis.
    """
    cls = _RESOLUTIONS.get(_normalize_axis(name))
    if cls is None:
        import difflib

        suggestions = difflib.get_close_matches(
            _normalize_axis(name), RESOLUTION_AXIS, n=3, cutoff=0.6
        ) or RESOLUTION_AXIS
        raise UnknownSchemeError(
            f"unknown conflict-resolution policy {name!r} "
            f"(axis values: {', '.join(RESOLUTION_AXIS)})",
            name=name, suggestions=suggestions,
        )
    return cls()


# ---------------------------------------------------------------------------
# lazy-commit arbitration
# ---------------------------------------------------------------------------

class CommitArbitration:
    """One global commit token (TCC-style): at most one lazy transaction
    is between validation and publication, so the version clock is
    always current when a committer validates and no two committers'
    write sets publish unordered."""

    def __init__(self) -> None:
        self._holder: int | None = None

    def blocking(self, requester: int) -> int | None:
        """Core index the requester must wait behind, or ``None`` to go."""
        holder = self._holder
        if holder is not None and holder != requester:
            return holder
        return None

    def acquire(self, requester: int) -> None:
        """Grant the requester the token (``blocking`` returned None)."""
        self._holder = requester

    def release(self, requester: int) -> None:
        """Release the requester's token, if it holds it (idempotent)."""
        if self._holder == requester:
            self._holder = None
